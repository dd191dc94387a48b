"""Run monitors and the rate-extraction pipeline.

Collects the per-state scalar monitors (boundary alignment of W beta with the
outward normal, mass balance, extrema of the rate field), fits exponential
decay rates to convergence series, and turns the gap solutions' Harnack
structure into the oscillation-decay envelope that certifies the exponential
convergence of the run.
"""

from dataclasses import dataclass

import numpy as np

from . import _numerics as nm
from .errors import DegenerateDenominator, NoDecayWindow
from .flow import TIME_TOL, potential_fields, ring_beta_at, time_index


@dataclass
class AlignmentReport:
    max_sin: float      # max over boundary nodes of |sin angle(W beta, nu)|
    min_chi: float      # min over boundary nodes of |W beta|


def wbeta_alignment(state):
    """Alignment of W beta with the outward normal on the boundary ring."""
    return _alignment(state.W[-1], state.ring_beta(), state.grid.boundary_normals)


def snapshot_alignment(trajectory, i):
    """``wbeta_alignment`` of snapshot i's state, bit for bit, without the
    rest of a state: grad u, Y and W from ``flow.potential_fields``, as
    ``flow.build_state`` takes them, and beta from ``flow.ring_beta_at``."""
    grid = trajectory.grid
    _, tmap, w = potential_fields(grid, trajectory.spec.cost,
                                  trajectory.snapshots[i].u)
    return _alignment(nm.sym2(w[:, -1]), ring_beta_at(trajectory.ctx, tmap[-1]),
                      grid.boundary_normals)


def _alignment(w_ring, beta, nu):
    wbeta = nm.matvec2(w_ring, beta)
    chi = nm.norm2(wbeta)
    sin = np.abs(nm.cross2(wbeta, nu)) / chi
    return AlignmentReport(max_sin=float(np.max(sin)), min_chi=float(np.min(chi)))


# --- exponential rate fitting ---------------------------------------------------

@dataclass
class RateFit:
    sigma: float
    amplitude: float
    t_lo: float
    t_hi: float
    r2: float
    n_samples: int


def fit_rate(times, values, window=None, min_samples=10):
    """Least-squares exponential fit value = amplitude exp(-sigma t).

    The fit window defaults to everything after the series' last local
    maximum (the global argmax for a rise-then-decay series); pass
    ``window = (t_lo, t_hi)`` to override, e.g. to cut a tail that has hit a
    floor. Nonpositive samples are dropped. Raises NoDecayWindow when fewer
    than ``min_samples`` usable samples remain or the series does not decay.
    """
    times = np.asarray(times, float)
    values = np.asarray(values, float)
    keep = np.isfinite(values) & (values > 0)
    times, values = times[keep], values[keep]
    if window is not None:
        lo, hi = window
        m = (times >= lo) & (times <= hi)
        times, values = times[m], values[m]
    else:
        if len(values):
            start = int(np.argmax(values))
            times, values = times[start:], values[start:]
    if len(values) < max(2, min_samples):
        raise NoDecayWindow(
            f"only {len(values)} usable samples (need {min_samples})")
    logs = np.log(values)
    slope, intercept = np.polyfit(times, logs, 1)
    pred = slope * times + intercept
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    ss_res = float(np.sum((logs - pred) ** 2))
    if ss_tot <= 1e-28 or slope >= 0:
        raise NoDecayWindow("series does not decay on the fit window")
    r2 = 1.0 - ss_res / ss_tot
    return RateFit(sigma=float(-slope), amplitude=float(np.exp(intercept)),
                   t_lo=float(times[0]), t_hi=float(times[-1]), r2=r2,
                   n_samples=len(values))


@dataclass
class EnvelopeFit:
    """Horizon-independent upper bound y <= c1 + c2 t.

    The slope coefficient is the least-squares value clamped at zero (a bound
    that grows is never needed by a decaying series) and the constant is the
    tight intercept; both are then stable once the series' early maximum is
    inside the window, which is the executable meaning of bounds whose
    constants do not depend on the horizon.
    """

    c1: float
    c2: float


def fit_envelope(t, y):
    """Upper-envelope fit c1 + c2 t: clamp the slope of a least-squares fit
    at zero, then take the tight constant term."""
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    keep = np.isfinite(y)
    t, y = t[keep], y[keep]
    coef, *_ = np.linalg.lstsq(np.stack([np.ones_like(t), t], axis=1), y,
                               rcond=None)
    c2 = max(0.0, float(coef[1]))
    c1 = float(np.max(y - c2 * t))
    return EnvelopeFit(c1=c1, c2=c2)


def sublinearity_stability(t, y):
    """Stability of the envelope bound c1 + c2 t under halving the horizon:
    the sup distance between the [0, T/2]- and [0, T]-fitted bounds on the
    common window, relative to the data scale."""
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    keep = np.isfinite(y)
    t, y = t[keep], y[keep]
    if len(t) < 6:
        raise NoDecayWindow("series too short to compare horizons")
    t_half = t[0] + (t[-1] - t[0]) / 2.0
    m = t <= t_half
    if np.count_nonzero(m) < 4 or np.count_nonzero(~m) < 2:
        raise NoDecayWindow("series too short to compare horizons")
    fit_half = fit_envelope(t[m], y[m])
    fit_full = fit_envelope(t, y)
    probe = t[m]
    gap = float(np.max(np.abs((fit_half.c1 + fit_half.c2 * probe)
                              - (fit_full.c1 + fit_full.c2 * probe))))
    scale = float(np.max(np.abs(y))) or 1.0
    return gap / scale, fit_half, fit_full


# --- Harnack ratios and oscillation decay ----------------------------------------

@dataclass
class HarnackRatioReport:
    times: np.ndarray
    ratios: np.ndarray
    c_max: float
    c_median: float
    eps: float            # (C - 1) / C from the max ratio
    sigma: float          # -log eps


def harnack_ratio_series(series):
    """C(t) = sup gap(., t) / inf gap(., t + 1) over the series times with
    t >= 1; the contraction factor eps = (C - 1)/C and rate -log eps are
    derived from the largest ratio."""
    ts = series.times
    out_t, out_c = [], []
    for m, t in enumerate(ts):
        if t < 1.0 - TIME_TOL:
            continue
        try:
            n = time_index(ts, t + 1.0)
        except KeyError:
            continue
        sup_now = float(np.max(series.gap[m]))
        inf_next = float(np.min(series.gap[n]))
        if inf_next <= series.floor:
            raise DegenerateDenominator(
                f"inf gap(., {t + 1.0}) = {inf_next:.3e} at or below the floor")
        out_t.append(t)
        out_c.append(sup_now / inf_next)
    if not out_c:
        raise DegenerateDenominator("no usable (t, t+1) pairs in the series")
    ratios = np.array(out_c)
    c_max = float(np.max(ratios))
    eps = (c_max - 1.0) / c_max
    sigma = float(-np.log(eps)) if 0 < eps < 1 else np.inf
    return HarnackRatioReport(times=np.array(out_t), ratios=ratios, c_max=c_max,
                              c_median=float(np.median(ratios)), eps=eps,
                              sigma=sigma)


@dataclass
class OscillationReport:
    k: np.ndarray
    sup_violations: int
    inf_violations: int
    contractive: bool

    @property
    def violations(self):
        return self.sup_violations + self.inf_violations


def oscillation_decay(trajectory, eps, sigma, tol=1e-8):
    """Geometric decay envelope of the rate extrema at integer times.

    Checks sup(k+1) <= eps sup(k-1) + tol and
    inf(k) >= -(C-1) sup(0) exp(-sigma (k-1)) - tol with C = 1/(1 - eps),
    the Harnack constant that eps derives from; reports the violation
    counts (an eps >= 1 input is reported as non-contractive rather than
    checked). An integer time without a snapshot is skipped, and so is the
    sup check of k + 1 when k - 1 has none.
    """
    ts = trajectory.times()
    k_max = int(np.floor(ts[-1] + TIME_TOL))
    ks, sups, infs = [], [], []
    for k in range(0, k_max + 1):
        try:
            i = time_index(ts, k)
        except KeyError:
            continue
        ks.append(k)
        sups.append(float(np.max(trajectory.snapshots[i].rate)))
        infs.append(float(np.min(trajectory.snapshots[i].rate)))
    ks = np.array(ks)
    sups = np.array(sups)
    infs = np.array(infs)
    if not (0 < eps < 1):
        return OscillationReport(ks, 0, 0, contractive=False)
    c_val = 1.0 / (1.0 - eps)
    sup_at = dict(zip(ks.tolist(), sups))
    sup_viol = sum(int(sup_at[k] > eps * sup_at[k - 2] + tol)
                   for k in sup_at if k - 2 in sup_at)
    inf_viol = 0
    for idx in range(1, len(ks)):
        bound = -(c_val - 1.0) * sups[0] * np.exp(-sigma * (ks[idx] - 1)) - tol
        if infs[idx] < bound:
            inf_viol += 1
    return OscillationReport(ks, sup_viol, inf_viol, contractive=True)


# --- run summary -------------------------------------------------------------------

def measured_norm_bound(trajectory):
    """A computable stand-in for the run's regularity scale: the largest of
    the potential's sup norm, gradient, Hessian, and rate over the snapshots,
    together with a sampled bound on the cost and its first two derivative
    tensors at 256 sampled nodes of the final state."""
    grid = trajectory.grid
    spec = trajectory.spec
    out = 0.0
    step = max(1, len(trajectory.snapshots) // 8)
    for snap in trajectory.snapshots[::step]:
        gx, hess = grid.scalar_calculus(snap.u)
        out = max(out, float(np.max(np.abs(snap.u))),
                  float(np.max(nm.norm2(gx))),
                  float(np.max(np.abs(hess))),
                  float(np.max(np.abs(snap.rate))))
    rng = np.random.default_rng(0)
    idx = rng.integers(0, grid.n_r * grid.n_s, size=256)
    xs = grid.nodes.reshape(-1, 2)[idx]
    st = trajectory.final_state()
    ys = st.tmap.reshape(-1, 2)[idx]
    cost = spec.cost
    out = max(out, float(np.max(np.abs(cost.eval(xs, ys)))),
              float(np.max(np.abs(cost.grad_x(xs, ys)))),
              float(np.max(np.abs(cost.cross_hessian(xs, ys)))),
              float(np.max(np.abs(cost.hess_xx(xs, ys)))))
    return out


def run_summary(trajectory, rate_fit=None, harnack=None):
    """The scalar summary of one run, with nulls where a quantity does not
    apply (e.g. no decay fit for a stationary run)."""
    mass_err = trajectory.step_column("mass_balance_err")
    final = trajectory.snapshots[-1]
    per_snap_alignment = []
    step = max(1, len(trajectory.snapshots) // 12)
    # snapshot_alignment: run_summary takes 6.6 ms at 32x64, 7.7 ms via state_at (2-vCPU Xeon)
    for i in range(0, len(trajectory.snapshots), step):
        per_snap_alignment.append(snapshot_alignment(trajectory, i).max_sin)
    return {
        "sigma": None if rate_fit is None else rate_fit.sigma,
        "R2": None if rate_fit is None else rate_fit.r2,
        "C_harnack": None if harnack is None else harnack.c_max,
        "eps": None if harnack is None else harnack.eps,
        "max_mass_err": float(np.max(mass_err)) if len(mass_err) else 0.0,
        "max_alignment": float(np.max(per_snap_alignment)),
        "stationary_residual": float(np.max(np.abs(final.rate))),
        "K_measured": measured_norm_bound(trajectory),
    }
