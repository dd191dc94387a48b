"""On-disk formats: field snapshots, trajectory directories, and reports.

A field file is one UTF-8 JSON header line (grid dimensions, mapping
parameters, rank, time stamp) followed by the raw little-endian float64
bytes of the node values. A trajectory directory holds a manifest, the
snapshot field files, and the diagnostics CSV (one row per accepted
super-step) whose header is the fixed column list of the stepping module.
All floats in text outputs are written with repr (shortest round-trip), so
identical runs produce identical bytes.
"""

import json
import os

import numpy as np

from .errors import OTFlowError
from .flow import STEP_COLUMNS, FlowContext, Snapshot, Trajectory


def _fmt(x):
    return repr(float(x))


def write_field(path, values, grid, rank="scalar", t=0.0, name=""):
    values = np.ascontiguousarray(values, dtype="<f8")
    header = {
        "format": "otflow-field-v1",
        "name": name,
        "rank": rank,
        "shape": list(values.shape),
        "grid": {"n_r": grid.n_r, "n_s": grid.n_s,
                 "domain": grid.domain.describe()},
        "t": float(t),
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(values.tobytes())


def read_field(path):
    """(header, values); OTFlowError unless the header parses and the payload
    holds exactly 8 bytes per value of its shape."""
    with open(path, "rb") as fh:
        head, payload = fh.readline(), fh.read()
    try:
        header = json.loads(head.decode())
        values = np.frombuffer(payload, dtype="<f8").reshape(header["shape"])
    except (ValueError, KeyError, TypeError) as exc:
        raise OTFlowError(f"corrupt field file {path}: {exc}") from None
    return header, values.copy()


def write_diagnostics_csv(path, records):
    lines = [",".join(STEP_COLUMNS)]
    for row in records:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_diagnostics_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != STEP_COLUMNS:
            raise OTFlowError(f"unexpected diagnostics columns {header}")
        rows = [[float(v) for v in line.strip().split(",")]
                for line in fh if line.strip()]
    return np.array(rows, float).reshape(-1, len(STEP_COLUMNS))


def save_trajectory(outdir, trajectory, config_dict):
    os.makedirs(outdir, exist_ok=True)
    grid = trajectory.grid
    files = []
    for i, snap in enumerate(trajectory.snapshots):
        fu = f"snap_{i:04d}_u.field"
        fr = f"snap_{i:04d}_rate.field"
        write_field(os.path.join(outdir, fu), snap.u, grid, "scalar", snap.t, "u")
        write_field(os.path.join(outdir, fr), snap.rate, grid, "scalar",
                    snap.t, "rate")
        files.append({"t": snap.t, "u": fu, "rate": fr})
    manifest = {
        "format": "otflow-trajectory-v1",
        "config": config_dict,
        "grid": {"n_r": grid.n_r, "n_s": grid.n_s},
        "snapshots": files,
        "n_steps": int(trajectory.step_records.shape[0]),
        "converged": bool(trajectory.converged),
        "reason": trajectory.reason,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    write_diagnostics_csv(os.path.join(outdir, "diagnostics.csv"),
                          trajectory.step_records)
    return manifest


def load_trajectory(outdir):
    """Rebuild a Trajectory (with live flow context) from a directory."""
    from .config import ScenarioConfig

    manifest_path = os.path.join(outdir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise OTFlowError(f"missing manifest.json in {outdir}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        raw_config = manifest["config"]
        entries = [(float(e["t"]), e["u"], e["rate"])
                   for e in manifest["snapshots"]]
        converged = bool(manifest["converged"])
    except (ValueError, KeyError, TypeError) as exc:
        raise OTFlowError(f"corrupt manifest.json in {outdir}: "
                          f"{type(exc).__name__}: {exc}") from None
    config = ScenarioConfig.from_dict(raw_config)
    spec, grid = config.build_problem()
    ctx = FlowContext(spec, grid)
    shape = [grid.n_r, grid.n_s]            # the grid of the manifest's config
    snapshots = []
    for t, *names in entries:
        fields = []
        for name in names:
            path = os.path.join(outdir, name)
            if not os.path.exists(path):
                raise OTFlowError(f"missing snapshot file {name} in {outdir}")
            header, values = read_field(path)
            field_grid = header.get("grid") or {}
            if ([field_grid.get("n_r"), field_grid.get("n_s")] != shape
                    or list(values.shape) != shape):
                raise OTFlowError(f"snapshot file {name} in {outdir} is not a "
                                  f"field on the manifest grid {shape}")
            fields.append(values)
        snapshots.append(Snapshot(t, *fields))
    records = read_diagnostics_csv(os.path.join(outdir, "diagnostics.csv"))
    return Trajectory(ctx=ctx, snapshots=snapshots, step_records=records,
                      converged=converged,
                      reason=manifest.get("reason", "")), manifest


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")
