"""On-disk formats: field snapshots, trajectory directories, and reports.

A field file is one UTF-8 JSON header line (grid dimensions, mapping
parameters, rank, time stamp) followed by the raw little-endian float64
bytes of the node values. A trajectory directory holds a manifest, the
snapshot field files, and the diagnostics CSV (one row per accepted
super-step) whose header is the fixed column list of the stepping module.
All floats in text outputs are written with repr (shortest round-trip), so
identical runs produce identical bytes.

``load_trajectory`` checks the manifest's snapshot time axis where it enters
the program: the times start at t = 0 (to ``flow.TIME_TOL``) and strictly
increase, as every reader of the series assumes, and each snapshot's two
field headers carry its manifest time (to ``TIME_TOL``). ``error_record`` is
the one builder of the {"error", "detail"} record (with an exception's
witness) that error.json, a failed Harnack summary and the CLI's stderr line
carry, and ``dumps`` the one-line JSON the CLI prints.
"""

import json
import os

import numpy as np

from .errors import OTFlowError
from .flow import STEP_COLUMNS, TIME_TOL, FlowContext, Snapshot, Trajectory


def _fmt(x):
    return repr(float(x))


def write_field(path, values, grid, t=0.0, name=""):
    values = np.asarray(values, dtype="<f8")     # keeps a 0-d shape
    header = {
        "format": "otflow-field-v1",
        "name": name,
        "rank": "scalar",
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
    """The step table; OTFlowError naming the file and line of a cell that
    is not a number or a row that is not one value per column."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != STEP_COLUMNS:
            raise OTFlowError(f"unexpected diagnostics columns {header} in {path}")
        for n, line in enumerate(fh, 2):
            row = line.strip().split(",")
            if row == [""]:
                continue
            try:
                if len(row) != len(STEP_COLUMNS):
                    raise ValueError(f"{len(row)} values, "
                                     f"{len(STEP_COLUMNS)} columns")
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise OTFlowError(f"corrupt {path}, line {n}: {exc}") from None
    return np.array(rows, float).reshape(-1, len(STEP_COLUMNS))


def save_trajectory(outdir, trajectory, config_dict):
    os.makedirs(outdir, exist_ok=True)
    grid = trajectory.grid
    files = []
    for i, snap in enumerate(trajectory.snapshots):
        fu = f"snap_{i:04d}_u.field"
        fr = f"snap_{i:04d}_rate.field"
        write_field(os.path.join(outdir, fu), snap.u, grid, snap.t, "u")
        write_field(os.path.join(outdir, fr), snap.rate, grid, snap.t, "rate")
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
    write_json(os.path.join(outdir, "manifest.json"), manifest)
    write_diagnostics_csv(os.path.join(outdir, "diagnostics.csv"),
                          trajectory.step_records)
    return manifest


def load_trajectory(outdir):
    """Rebuild a Trajectory (with live flow context) from a directory.

    OTFlowError for a missing or damaged file, for a manifest whose
    snapshot times do not start at t = 0 (to TIME_TOL) and strictly
    increase (every reader of the series assumes that time axis), and for
    a field file whose header's t is not its manifest entry's (to
    TIME_TOL)."""
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
    times = [t for t, *_ in entries]
    if not (times and abs(times[0]) <= TIME_TOL
            and all(a < b for a, b in zip(times, times[1:]))):
        raise OTFlowError(f"corrupt manifest.json in {outdir}: the snapshot "
                          "times must start at t = 0 and increase")
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
            field_t = header.get("t")
            if not (isinstance(field_t, (int, float))
                    and abs(field_t - t) <= TIME_TOL):
                raise OTFlowError(f"snapshot file {name} in {outdir} has "
                                  f"t = {field_t!r}, its manifest entry "
                                  f"t = {t!r}")
            fields.append(values)
        snapshots.append(Snapshot(t, *fields))
    records_path = os.path.join(outdir, "diagnostics.csv")
    if not os.path.exists(records_path):
        raise OTFlowError(f"missing diagnostics.csv in {outdir}")
    records = read_diagnostics_csv(records_path)
    return Trajectory(ctx=ctx, snapshots=snapshots, step_records=records,
                      converged=converged,
                      reason=manifest.get("reason", "")), manifest


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=_json_default)
        fh.write("\n")


def dumps(payload):
    """payload as one line of JSON, keys sorted: the CLI's output lines and
    the records of km.jsonl."""
    return json.dumps(payload, sort_keys=True, default=_json_default)


def error_record(exc, detail=None):
    """The error record of exc: its type name, ``detail`` (str(exc) by
    default) and, when the exception carries one, its witness."""
    record = {"error": type(exc).__name__,
              "detail": str(exc) if detail is None else detail}
    witness = getattr(exc, "witness", None)
    if witness is not None:             # NotCConvex: W's worst node
        i, j, x, eig = witness
        record["witness"] = {"node": [int(i), int(j)],
                             "x": [float(v) for v in x],
                             "min_eig_W": float(eig)}
    return record


def write_error(outdir, exc, detail=None):
    """Write exc's ``error_record`` to outdir/error.json and return it."""
    record = error_record(exc, detail)
    os.makedirs(outdir, exist_ok=True)
    write_json(os.path.join(outdir, "error.json"), record)
    return record


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")
