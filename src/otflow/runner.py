"""Scenario execution: validate, run, and write the artifact directory.

A run produces: manifest.json (config echo, snapshot index), the snapshot
field files, diagnostics.csv (one row per accepted super-step; its dt
column is the super-step tau), summary.json (decay rate, Harnack numbers,
worst-case monitors), and the requested audit reports under audits/.
Identical configs give byte-identical diagnostics output. Audits can also
be replayed on a finished directory without re-simulating. The boundary
audits evaluate all of their nodes in one call per audited time; a node
the direct boundary derivative refuses reads NaN in harnack.csv.

Of the k = 1 gap solution, the summary's Harnack constant reads only the
gap series (``linearized.gap_series``, from the stored rate fields), which
``build_summary`` builds. Only the Harnack audit reads the Li-Yau fields of
``linearized.theta_special`` (W^{-1} and grad log Theta at each snapshot),
so ``harnack_audit`` builds the full series, and only a run whose config
turns that audit on pays for it.
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


def config_failure(name, exc, output_root=None):
    """Exit-2 result for a config that failed to parse or validate; its
    error.json goes to the run directory ``name`` under the output root."""
    outdir = os.path.join(_output_root(output_root), name)
    return RunResult(2, outdir, None, serialize.write_error(outdir, exc))


def run_scenario(config, output_root=None):
    """Validate and run one scenario; returns a RunResult with exit status
    0 (completed), 2 (validation failure), or 1 (runtime failure)."""
    outdir = resolve_outdir(config, output_root)
    try:
        spec, grid = config.build_problem()
        u0 = config.build_initial(spec, grid)
    except OTFlowError as exc:
        return RunResult(2, outdir, None, serialize.write_error(outdir, exc))
    problems = domains.validate_spec(spec)
    if problems:
        detail = "; ".join(f"{type(p).__name__}: {p}" for p in problems)
        return RunResult(2, outdir, None,
                         serialize.write_error(outdir, problems[0], detail))
    try:
        schedule = config.build_schedule()
        trajectory = run_to_convergence(spec, grid, u0, schedule)
        serialize.save_trajectory(outdir, trajectory, config.to_dict())
        summary = build_summary(trajectory, config)
        serialize.write_json(os.path.join(outdir, "summary.json"), summary)
        run_audits(trajectory, config, outdir)
    except OTFlowError as exc:
        return RunResult(1, outdir, None, serialize.write_error(outdir, exc))
    return RunResult(0, outdir, summary)


def build_summary(trajectory, config):
    """Post-pass over a finished trajectory: decay fits plus the monitor
    extremes, in the fixed summary-JSON key set. The Harnack ratios read
    only the k = 1 gap series, so this builds the gap series alone."""
    fit_cfg = config.fit
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
        harnack = diagnostics.harnack_ratio_series(
            linearized.gap_series(trajectory, k=1))
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


def fit_theta_decay(trajectory):
    """Exponential fit of the rate field's sup norm from the step records."""
    return diagnostics.fit_rate(trajectory.step_column("t"),
                                trajectory.step_column("stationary_residual"))


# --- audits -------------------------------------------------------------------

def run_audits(trajectory, config, outdir):
    toggles = config.audits
    audit_dir = os.path.join(outdir, "audits")
    if any(toggles.get(k) for k in ("convexity", "harnack", "km")):
        os.makedirs(audit_dir, exist_ok=True)
    if toggles.get("convexity"):
        serialize.write_json(os.path.join(audit_dir, "convexity.json"),
                             convexity_audit(trajectory.spec, seed=config.seed))
    if toggles.get("harnack"):
        harnack_audit(trajectory, audit_dir)
    if toggles.get("km"):
        km_audit(trajectory, audit_dir)


def convexity_audit(spec, seed=0):
    """The two boundary convexity sweeps and the bi-twist sweep. Each is a
    fixed Sobol prefix, so no sample depends on ``seed``; it is accepted
    because callers pass the scenario seed, which manifest.json records.
    Each convexity witness is the first sample that ties with the minimum,
    with the number of tied samples."""
    rep_c = domains.check_c_convexity(spec)
    rep_s = domains.check_cstar_convexity(spec)
    bit = domains.check_bitwist(spec)

    def witness(rep):
        return {"x": rep.argmin_x, "y": rep.argmin_y, "tau": rep.argmin_tau,
                "s": rep.argmin_s, "ties": rep.ties}

    return {
        "delta": rep_c.min_value,
        "delta_star": rep_s.min_value,
        "c_convex_witness": witness(rep_c),
        "cstar_convex_witness": witness(rep_s),
        "bitwist_min_abs_det": bit.min_abs_det,
        "bitwist_ok": bit.ok,
        "y_variance_c": rep_c.y_variance,
    }


def harnack_audit(trajectory, audit_dir):
    """Boundary audit CSV (t, node, F, both boundary derivatives, the three
    closed-form terms) at 16 boundary nodes plus the scalar Harnack summary.
    Each audited time takes one node-array call of each boundary
    derivative; F and the direct derivative read NaN at the nodes they
    refuse. The k = 1 gap series with its Li-Yau fields is built here."""
    try:
        series = linearized.theta_special(trajectory, k=1)
    except NonPositiveTheta as exc:
        serialize.write_json(os.path.join(audit_dir, "harnack_summary.json"),
                             serialize.error_record(exc))
        return
    grid = trajectory.grid
    nodes = np.linspace(0, grid.n_s, 16, endpoint=False).astype(int)
    lines = ["t,node,F,dbetaF_direct,dbetaF_closed,term1,term2,term3"]
    stride = max(1, (len(series.times) - 1) // 8)
    for m in range(1, len(series.times), stride):
        t = float(series.times[m])
        state = trajectory.state_at(int(series.snapshot_indices[m]))
        f_here = np.where(series.mask[m][-1, nodes], series.F[m][-1, nodes], np.nan)
        dd = linearized.dbetaF_direct(series, state, nodes)
        dc, terms = linearized.dbetaF_closed(series, state, nodes, "general")
        for row in zip(nodes, f_here, dd, dc, *terms):
            vals = ",".join(repr(float(v)) for v in row[1:])
            lines.append(f"{t!r},{int(row[0])},{vals}")
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


def km_audit(trajectory, audit_dir):
    """The curvature identity at 16 boundary nodes of the final state, from
    one node-array call."""
    state = trajectory.final_state()
    nodes = np.linspace(0, trajectory.grid.n_s, 16, endpoint=False).astype(int)
    rep = km_geometry.verify_II_identity(state, nodes)
    with open(os.path.join(audit_dir, "km.jsonl"), "w") as fh:
        for i in range(len(nodes)):
            fh.write(serialize.dumps(rep.at(i).as_dict()) + "\n")


def replay_diagnostics(outdir):
    """Recompute summary.json for a finished trajectory directory (pure
    post-processing; no re-simulation)."""
    trajectory, manifest = serialize.load_trajectory(outdir)
    from .config import ScenarioConfig
    config = ScenarioConfig.from_dict(manifest["config"])
    summary = build_summary(trajectory, config)
    serialize.write_json(os.path.join(outdir, "summary.json"), summary)
    return summary
