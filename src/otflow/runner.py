"""Scenario execution: validate, run, and write the artifact directory.

A run produces: manifest.json (config echo, snapshot index), the snapshot
field files, diagnostics.csv (one row per accepted super-step; its dt
column is the super-step tau), summary.json (decay rate, Harnack numbers,
worst-case monitors), and the requested audit reports under audits/.
Identical config and seed give byte-identical diagnostics output. Audits
can also be replayed on a finished directory without re-simulating.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import diagnostics, domains, km_geometry, linearized, serialize
from .errors import (DegenerateDenominator, NoDecayWindow, NonPositiveTheta,
                     OTFlowError)
from .flow import run_to_convergence

OUTPUT_ROOT_ENV = "OTFLOW_OUTPUT_ROOT"


@dataclass
class RunResult:
    status: int
    outdir: str | None
    summary: dict | None
    error: dict | None = None


def _output_root(output_root=None):
    return output_root or os.environ.get(OUTPUT_ROOT_ENV, "runs")


def resolve_outdir(config, output_root=None):
    return os.path.join(_output_root(output_root), config.output_dir or config.name)


def _error_report(outdir, kind, exc):
    payload = {"error": kind, "detail": str(exc)}
    witness = getattr(exc, "witness", None)
    if witness is not None:             # NotCConvex: W's worst node
        i, j, x, eig = witness
        payload["witness"] = {"node": [int(i), int(j)],
                              "x": [float(v) for v in x],
                              "min_eig_W": float(eig)}
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        serialize.write_json(os.path.join(outdir, "error.json"), payload)
    return payload


def config_failure(name, exc, output_root=None):
    """Exit-2 result for a config that failed to parse or validate; its
    error.json goes to the run directory ``name`` under the output root."""
    outdir = os.path.join(_output_root(output_root), name)
    return RunResult(2, outdir, None, _error_report(outdir, type(exc).__name__, exc))


def run_scenario(config, output_root=None):
    """Validate and run one scenario; returns a RunResult with exit status
    0 (completed), 2 (validation failure), or 1 (runtime failure)."""
    outdir = resolve_outdir(config, output_root)
    try:
        spec, grid = config.build_problem()
    except OTFlowError as exc:
        return RunResult(2, outdir, None, _error_report(outdir, type(exc).__name__, exc))
    problems = domains.validate_spec(spec, seed=config.seed)
    if problems:
        detail = "; ".join(f"{type(p).__name__}: {p}" for p in problems)
        payload = {"error": type(problems[0]).__name__, "detail": detail}
        os.makedirs(outdir, exist_ok=True)
        serialize.write_json(os.path.join(outdir, "error.json"), payload)
        return RunResult(2, outdir, None, payload)
    try:
        u0 = config.build_initial(spec, grid)
        schedule = config.build_schedule()
        trajectory = run_to_convergence(spec, grid, u0, schedule)
    except OTFlowError as exc:
        return RunResult(1, outdir, None, _error_report(outdir, type(exc).__name__, exc))
    serialize.save_trajectory(outdir, trajectory, config.to_dict())
    # the summary and the Harnack audit read the same gap series; when it
    # cannot be built, each rebuilds it and reports the failure its own way
    try:
        series = linearized.theta_special(trajectory, k=1)
    except (NonPositiveTheta, KeyError):
        series = None
    summary = build_summary(trajectory, config, series=series)
    serialize.write_json(os.path.join(outdir, "summary.json"), summary)
    run_audits(trajectory, config, outdir, series=series)
    return RunResult(0, outdir, summary)


def build_summary(trajectory, config, series=None):
    """Post-pass over a finished trajectory: decay fits plus the monitor
    extremes, in the fixed summary-JSON key set. ``series`` is the
    trajectory's k = 1 gap series, built here when not given."""
    fit_cfg = config.fit if config is not None else {}
    rate_fit = None
    harnack = None
    if not trajectory.converged or len(trajectory.snapshots) > 4:
        try:
            rate_fit = fit_u_decay(trajectory,
                                   tail_trim=float(fit_cfg.get("u_tail_trim", 2.0)),
                                   window=fit_cfg.get("window"),
                                   min_samples=int(fit_cfg.get("min_samples", 10)))
        except NoDecayWindow:
            rate_fit = None
    try:
        if series is None:
            series = linearized.theta_special(trajectory, k=1)
        harnack = diagnostics.harnack_ratio_series(series)
    except (NonPositiveTheta, DegenerateDenominator, KeyError):
        harnack = None
    return diagnostics.run_summary(trajectory, rate_fit=rate_fit, harnack=harnack)


def u_decay_series(trajectory):
    """(t, ||u(., t) - u_final||_inf) over the snapshots, final excluded."""
    final = trajectory.snapshots[-1].u
    ts, vals = [], []
    for snap in trajectory.snapshots[:-1]:
        ts.append(snap.t)
        vals.append(float(np.max(np.abs(snap.u - final))))
    return np.array(ts), np.array(vals)


def fit_u_decay(trajectory, tail_trim=2.0, window=None, min_samples=10):
    """Exponential fit of the distance to the final snapshot. The last
    ``tail_trim`` time units are dropped: near the end the final snapshot is
    no longer a proxy for the limit and the series artificially plunges."""
    ts, vals = u_decay_series(trajectory)
    if window is None:
        hi = trajectory.snapshots[-1].t - tail_trim
        window = (0.0, hi)
    return diagnostics.fit_rate(ts, vals, window=window, min_samples=min_samples)


def fit_theta_decay(trajectory, min_samples=10):
    """Exponential fit of the rate field's sup norm from the step records."""
    rec = trajectory.step_records
    return diagnostics.fit_rate(rec[:, 0], rec[:, 7], min_samples=min_samples)


# --- audits -------------------------------------------------------------------

def run_audits(trajectory, config, outdir, series=None):
    toggles = config.audits if config is not None else {}
    audit_dir = os.path.join(outdir, "audits")
    if any(toggles.get(k) for k in ("convexity", "harnack", "km")):
        os.makedirs(audit_dir, exist_ok=True)
    if toggles.get("convexity"):
        serialize.write_json(os.path.join(audit_dir, "convexity.json"),
                             convexity_audit(trajectory.spec, seed=config.seed))
    if toggles.get("harnack"):
        harnack_audit(trajectory, audit_dir, series=series)
    if toggles.get("km"):
        km_audit(trajectory, audit_dir)


def convexity_audit(spec, n_boundary=128, n_other=64, seed=0):
    rep_c = domains.check_c_convexity(spec, n_boundary, n_other, seed=seed)
    rep_s = domains.check_cstar_convexity(spec, n_boundary, n_other, seed=seed)
    bit = domains.check_bitwist(spec, seed=seed)
    return {
        "delta": rep_c.min_value,
        "delta_star": rep_s.min_value,
        "c_convex_witness": {"x": rep_c.argmin_x, "y": rep_c.argmin_y,
                             "tau": rep_c.argmin_tau, "s": rep_c.argmin_s},
        "cstar_convex_witness": {"x": rep_s.argmin_x, "y": rep_s.argmin_y,
                                 "tau": rep_s.argmin_tau, "s": rep_s.argmin_s},
        "bitwist_min_abs_det": bit.min_abs_det,
        "bitwist_ok": bit.ok,
        "y_variance_c": rep_c.y_variance,
    }


def harnack_audit(trajectory, audit_dir, n_nodes=16, k=1, series=None):
    """Boundary audit CSV (t, node, F, both boundary derivatives, the three
    closed-form terms) plus the scalar Harnack summary. ``series`` is the
    trajectory's gap series of index k, built here when not given."""
    try:
        if series is None:
            series = linearized.theta_special(trajectory, k=k)
    except NonPositiveTheta as exc:
        serialize.write_json(os.path.join(audit_dir, "harnack_summary.json"),
                             {"error": "NonPositiveTheta", "detail": str(exc)})
        return
    grid = trajectory.grid
    nodes = np.linspace(0, grid.n_s, n_nodes, endpoint=False).astype(int)
    lines = ["t,node,F,dbetaF_direct,dbetaF_closed,term1,term2,term3"]
    stride = max(1, (len(series.times) - 1) // 8)
    for m in range(1, len(series.times), stride):
        t = float(series.times[m])
        idx = int(series.snapshot_indices[m])
        state = trajectory.state_at(idx)
        for j in nodes:
            f_here = float(series.F[m][-1, j]) if series.mask[m][-1, j] else float("nan")
            try:
                dd = linearized.dbetaF_direct(series, state, j, t)
            except OTFlowError:
                dd = float("nan")
            dc, terms = linearized.dbetaF_closed(series, state, j, t, "general")
            vals = ",".join(repr(float(v)) for v in (f_here, dd, dc, *terms))
            lines.append(f"{t!r},{int(j)},{vals}")
    with open(os.path.join(audit_dir, "harnack.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    summary = {}
    fmax = series.F_max_series()
    good = np.isfinite(fmax) & (series.times > 0)
    try:
        stab, fit_half, fit_full = diagnostics.sublinearity_stability(
            series.times[good], fmax[good])
        summary["F_fit"] = {"c1": fit_full.c1, "c2": fit_full.c2,
                            "horizon_stability": stab}
    except NoDecayWindow as exc:
        summary["F_fit"] = {"error": str(exc)}
    try:
        ratios = diagnostics.harnack_ratio_series(series)
        summary["harnack"] = {"C_max": ratios.c_max, "C_median": ratios.c_median,
                              "eps": ratios.eps, "sigma": ratios.sigma}
        osc = diagnostics.oscillation_decay(trajectory, ratios.eps, ratios.sigma,
                                            tol=oscillation_tolerance(trajectory))
        summary["oscillation"] = {"violations": osc.violations,
                                  "n_integer_times": len(osc.k),
                                  "contractive": osc.contractive}
    except (DegenerateDenominator, NoDecayWindow) as exc:
        summary["harnack"] = {"error": str(exc)}
    serialize.write_json(os.path.join(audit_dir, "harnack_summary.json"), summary)


def oscillation_tolerance(trajectory):
    """Envelope slack for the integer-time decay checks: a fixed small part
    plus the discrete stationary floor scale of the scheme (measured on the
    reference configuration; see the acceptance suite)."""
    dr = trajectory.grid.dr
    return 1e-6 + 0.15 * dr ** 2


def km_audit(trajectory, audit_dir, n_nodes=16, snapshot=-1):
    state = trajectory.state_at(len(trajectory.snapshots) + snapshot
                                if snapshot < 0 else snapshot)
    grid = trajectory.grid
    nodes = np.linspace(0, grid.n_s, n_nodes, endpoint=False).astype(int)
    with open(os.path.join(audit_dir, "km.jsonl"), "w") as fh:
        for j in nodes:
            rep = km_geometry.verify_II_identity(state, int(j))
            fh.write(serialize.json.dumps(rep.as_dict(), sort_keys=True) + "\n")


def replay_diagnostics(outdir):
    """Recompute summary.json for a finished trajectory directory (pure
    post-processing; no re-simulation)."""
    trajectory, manifest = serialize.load_trajectory(outdir)
    from .config import ScenarioConfig
    config = ScenarioConfig.from_dict(manifest["config"])
    summary = build_summary(trajectory, config)
    serialize.write_json(os.path.join(outdir, "summary.json"), summary)
    return summary
