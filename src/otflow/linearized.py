"""The linearization of the flow, its special nonnegative solutions, and the
boundary derivative of the Li-Yau quantity.

Differentiating the flow equation in time shows that the rate field
theta = du/dt solves

    L v := w^{ij} v_ij + drift . grad v - dv/dt = 0,      D_beta v = 0 on the
    boundary,

where w^{ij} is the inverse of W and the drift is the p-gradient of the
right-hand side log det W - log B frozen at the current state:
drift_k = -w^{ij} D_{p_k} A_{ij} - D_{p_k} log B. (Note the sign of the
D_p log B part: it is the one produced by differentiating the flow, and the
one that makes L annihilate the flow's own rate field.)

For a positive solution v, f = log v satisfies L f + w^{ij} f_i f_j = 0 and
the scaled quantity F = t (w^{ij} f_i f_j - alpha df/dt) is the object whose
boundary directional derivative along beta admits the closed forms
implemented here. The special solutions used throughout are the gaps
Theta_k(x, t) = sup_x theta(., k-1) - theta(x, (k-1) + t), which are
nonnegative by the maximum principle.

A gap solution comes in two layers. ``gap_series`` reads only the stored
rate fields; the Harnack constant C = sup Theta(., t) / inf Theta(., t+1)
(``diagnostics.harnack_ratio_series``, and so the run summary) needs nothing
more. ``theta_special`` adds the Li-Yau fields of f = log Theta, which need
W^{-1} at each snapshot; only the boundary audit of F (``dbetaF_direct``,
``dbetaF_closed``, ``boundary_tangency_defect``) reads them. W comes from
``flow.potential_fields``, the helper ``flow.build_state`` forms it with,
without the rest of a flow state.

The closed form's term1 is the source boundary's convexity form at
tau = W^{-1} grad f; its cost part is ``CostModel.convexity_correction``,
which the source audit (``domains.convexity_form``) reads too.

The boundary derivatives of F take an int array of boundary nodes and
return arrays, one entry per node, from one evaluation of the ring's fields
for all of them. They evaluate at the state's time: ``GapSeries.index_of``
finds the series time t = state.t - (k - 1), the series' own origin, so no
caller passes a time that could disagree with the state. Times within
``flow.TIME_TOL`` are the same time, here and in the series' cadence cut.
The direct derivative is the calculus kernel's boundary gradient of F
(``grid.directional_derivative_at_boundary``) contracted with beta; it
reads NaN at a node whose window touches the floor mask.
"""

from dataclasses import dataclass

import numpy as np

from . import _numerics as nm
from .errors import EllipticityLost, NonPositiveTheta, ObliquenessLost
from .flow import TIME_TOL, potential_fields, time_index
from .grid import directional_derivative_at_boundary

#: default Li-Yau scaling exponent; any value > 1 is admissible
DEFAULT_ALPHA = 2.0

#: positivity floor under which log Theta is not evaluated
THETA_FLOOR = 1e-14

#: the ellipticity constant (min eigenvalue of w^{ij}) and the obliqueness
#: constant (min beta . nu) of the operator count as lost at or below this
COEFF_FLOOR = 1e-10


@dataclass
class LinearizedCoeffs:
    """Coefficients of the linearized operator at one state."""

    winv: np.ndarray         # (n_r, n_s, 2, 2), inverse of W
    drift: np.ndarray        # (n_r, n_s, 2)
    c1: float                # sampled min eigenvalue of winv (ellipticity)
    c2: float                # sampled min of beta . nu (obliqueness)


def build_coeffs(state):
    """Assemble the linearized coefficients from a flow state.

    D_p A and D_p log B come from the cost's mixed third derivatives
    contracted with the inverse cross Hessian (the implicit derivative of the
    twist inverse), so no finite differencing in p is involved for costs with
    analytic thirds.
    """
    grid = state.grid
    spec = state.spec
    cost = spec.cost
    winv = nm.inv2(state.W)
    lo, _ = nm.sym_eig_range2(winv)
    c1 = float(np.min(lo))
    if c1 <= COEFF_FLOOR:
        raise EllipticityLost(f"min eigenvalue of w^(ij) = {c1:.3e}")
    x = grid.nodes
    y = state.tmap
    grad_log_rho_star = spec.rho_star.grad_log(y)
    pinv = nm.inv2(cost.cross_hessian(x, y))
    # D_{p_k} A_{ij} = c_{ij,r} P[r, k], contracted with w^{ij}
    dp_a = np.einsum('...ijr,...rk->...ijk', cost.third_xxy(x, y), pinv)
    dp_a_contracted = np.einsum('...ij,...ijk->...k', winv, dp_a)
    # d/dy_r log |det C| = tr(P dC/dy_r) with (dC/dy_r)_{ij} = c_{i,jr}
    tr_c = np.einsum('...ij,...jir->...r', pinv, cost.third_xyy(x, y))
    dp_log_b = (np.einsum('...r,...rk->...k', tr_c, pinv)
                - np.einsum('...r,...rk->...k', grad_log_rho_star, pinv))
    drift = -dp_log_b - dp_a_contracted
    beta = state.ring_beta()
    c2 = float(np.min(np.sum(beta * grid.boundary_normals, axis=-1)))
    if c2 <= COEFF_FLOOR:
        raise ObliquenessLost(f"min beta . nu = {c2:.3e}")
    return LinearizedCoeffs(winv=winv, drift=drift, c1=c1, c2=c2)


def apply_L(coeffs, grid, v_now, v_prev, dt):
    """The linearized operator on a pair of consecutive snapshots of v:
    w^{ij} v_ij + drift . grad v - (v_now - v_prev) / dt, an (n_r, n_s)
    node array from two node arrays of v.

    Spatial derivatives act on v_now; the time derivative is the backward
    difference, so the residual of a true solution is O(h + dt).
    """
    gx, hess = grid.scalar_calculus(v_now)
    out = (coeffs.winv[..., 0, 0] * hess[..., 0, 0]
           + coeffs.winv[..., 0, 1] * hess[..., 0, 1]
           + coeffs.winv[..., 1, 0] * hess[..., 1, 0]
           + coeffs.winv[..., 1, 1] * hess[..., 1, 1])
    out = out + coeffs.drift[..., 0] * gx[..., 0] + coeffs.drift[..., 1] * gx[..., 1]
    return out - (v_now - v_prev) / dt


def log_gradient_residual(coeffs, grid, f_now, f_prev, dt):
    """Residual of the log-substituted equation: L f + w^{ij} f_i f_j, a
    node array like ``apply_L``'s.

    Vanishes (to discretization error) when f = log v for a positive solution
    v of the linearized equation.
    """
    lf = apply_L(coeffs, grid, f_now, f_prev, dt)
    gx = grid.grad_values(f_now)
    return lf + nm.quadform2(coeffs.winv, gx)


# --- special solutions and the Li-Yau quantity -------------------------------

@dataclass
class GapSeries:
    """One gap solution Theta_k along the snapshot grid: all that the
    Harnack ratios C = sup Theta(., t) / inf Theta(., t + 1) read.

    ``gap`` is stacked over the series times; ``mask`` marks the nodes where
    the gap is above the positivity floor.
    """

    k: int
    floor: float
    base_sup: float                  # sup theta(., k-1)
    times: np.ndarray                # offsets from k-1, starting at 0
    snapshot_indices: np.ndarray     # indices into the trajectory snapshots
    gap: np.ndarray                  # (m, n_r, n_s)
    mask: np.ndarray                 # gap > floor

    def index_of(self, state):
        """The index of the state's time t - (k - 1); KeyError if none."""
        return time_index(self.times, state.t - (self.k - 1))


@dataclass
class HarnackSeries(GapSeries):
    """A gap series with the Li-Yau fields of f = log Theta that the boundary
    audit of F reads.

    All arrays are stacked over the series times. ``mask`` narrows the gap
    series' mask to the nodes where F and the time derivative of f are
    finite; masked nodes are excluded from maxima. F(., 0) is identically
    zero by the time factor.
    """

    alpha: float
    f: np.ndarray                    # log gap (nan where masked)
    dt_f: np.ndarray                 # time derivative of f on the snapshot grid
    grad_f: np.ndarray               # (m, n_r, n_s, 2)
    winv_quad: np.ndarray            # w^{ij} f_i f_j per time
    F: np.ndarray                    # t (winv_quad - alpha dt_f)

    def F_max_series(self):
        """max_x F(., t) over unmasked nodes for every series time."""
        out = np.full(len(self.times), np.nan)
        for m in range(len(self.times)):
            valid = self.mask[m]
            if np.any(valid):
                out[m] = np.max(self.F[m][valid])
        return out


def gap_series(trajectory, k=1):
    """The gap solution Theta_k(x, t) = sup theta(., k-1) - theta(x, (k-1)+t)
    sampled on the trajectory's snapshot grid, from the stored rate fields
    alone.

    The series keeps the uniformly spaced cadence prefix (to TIME_TOL) and
    drops the trailing times where the gap has no positive part. Raises
    ValueError for k < 1, KeyError when no snapshot sits at t = k - 1, and
    NonPositiveTheta when fewer than three usable times remain.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    i0 = trajectory.snapshot_index_at_time(float(k - 1))
    snaps = trajectory.snapshots[i0:]
    if len(snaps) < 3:
        raise NonPositiveTheta(f"trajectory too short for gap solution k={k}")
    times = np.array([s.t - snaps[0].t for s in snaps])
    # keep the uniformly spaced cadence prefix (the run's final snapshot may
    # sit off the cadence grid at the stopping time)
    h = times[1] - times[0]
    spacing_ok = np.isclose(np.diff(times), h, rtol=1e-6, atol=TIME_TOL)
    cut = len(times) if spacing_ok.all() else int(np.argmin(spacing_ok)) + 1
    snaps = snaps[:cut]
    times = times[:cut]
    if len(snaps) < 3:
        raise NonPositiveTheta(f"trajectory too short for gap solution k={k}")
    base_sup = float(np.max(snaps[0].rate))
    gap = base_sup - np.stack([s.rate for s in snaps])
    mask = gap > THETA_FLOOR
    alive = mask.reshape(len(snaps), -1).any(axis=1)
    if not alive.any():
        raise NonPositiveTheta(
            f"gap solution k={k} is below the floor {THETA_FLOOR:g} everywhere")
    # truncate trailing times where the gap has no positive part at all
    m = int(np.max(np.nonzero(alive)[0])) + 1
    if m < 3:
        raise NonPositiveTheta(
            f"gap solution k={k} has fewer than three usable snapshots")
    return GapSeries(k=k, floor=THETA_FLOOR, base_sup=base_sup, times=times[:m],
                     snapshot_indices=np.arange(i0, i0 + m), gap=gap[:m],
                     mask=mask[:m])


def theta_special(trajectory, k=1):
    """The gap series of Theta_k (``gap_series``) with the Li-Yau fields of
    f = log Theta: grad f, w^{ij} f_i f_j, df/dt and F."""
    gaps = gap_series(trajectory, k)
    times, mask = gaps.times, gaps.mask
    m = len(times)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(mask, np.log(np.maximum(gaps.gap, 1e-300)), np.nan)
    # time derivative of f on the (uniform) snapshot grid: centered inside,
    # one-sided at the ends
    dt_f = np.empty_like(f)
    h = float(times[1] - times[0])
    dt_f[1:-1] = (f[2:] - f[:-2]) / (2 * h)
    dt_f[0] = (f[1] - f[0]) / h
    dt_f[-1] = (f[-1] - f[-2]) / h
    grid = trajectory.grid
    cost = trajectory.spec.cost
    grad_f = np.empty(f.shape + (2,))
    winv_quad = np.empty_like(f)
    F = np.zeros_like(f)
    for i in range(m):
        u = trajectory.snapshots[int(gaps.snapshot_indices[i])].u
        # W alone: theta_special takes 16 ms at 32x64, 19 ms via state_at (2-vCPU Xeon)
        winv = nm.inv2(nm.sym2(potential_fields(grid, cost, u)[2]))
        fi = np.nan_to_num(f[i], nan=0.0, neginf=0.0)
        grad_f[i] = grid.grad_values(fi)
        winv_quad[i] = nm.quadform2(winv, grad_f[i])
        if times[i] > 0:
            F[i] = times[i] * (winv_quad[i] - DEFAULT_ALPHA * dt_f[i])
    # nodes where the floor mask touched any time-stencil value carry
    # non-finite time derivatives; exclude them from the evaluable set
    mask = mask & np.isfinite(F) & np.isfinite(dt_f)
    return HarnackSeries(**{**vars(gaps), "mask": mask}, alpha=DEFAULT_ALPHA,
                         f=f, dt_f=dt_f, grad_f=grad_f, winv_quad=winv_quad,
                         F=F)


# --- boundary derivative of F -------------------------------------------------

def dbetaF_direct(series, state, j):
    """Derivative of F along beta at the boundary nodes j (an int array) at
    the state's time, from the calculus kernel's gradient of F on the
    boundary ring; an array, one entry per node.

    Refuses nodes whose neighborhood (a five-node window on the three outer
    rings, the rings the one-sided d/dr reads) touches the positivity-floor
    mask: F is undefined there and differencing across the hole is
    meaningless. A refused node reads NaN.
    """
    m = series.index_of(state)
    grid = state.grid
    window = (j[:, None] + np.arange(-2, 3)) % grid.n_s
    clear = series.mask[m][-3:, window].all(axis=(0, 2))
    beta = state.ring_beta()[j]
    vals = directional_derivative_at_boundary(
        grid, np.where(series.mask[m], series.F[m], 0.0), j, beta)
    return np.where(clear, vals, np.nan)


def _boundary_convexity_contraction(state, j, tau):
    """(Dnu - c^(r,l) c_(ij,r) nu^l)-form at the boundary nodes j (an int
    array) contracted with the (not necessarily unit) tangent vectors tau,
    shape (k, 2): kappa (tau . t)^2 minus the cost's source-side
    ``convexity_correction``."""
    grid = state.grid
    spec = state.spec
    s_j = grid.s[j]
    tau_t = np.vecdot(tau, spec.source.boundary_tangent(s_j))
    first = spec.source.curvature(s_j) * tau_t ** 2
    # fast path: dbetaF_closed saves 0.7-1.5 ms per 32x64 replay op (2-vCPU Xeon)
    if spec.cost.thirds_vanish:
        return first
    return first - spec.cost.convexity_correction(
        "source", grid.nodes[-1, j], state.tmap[-1, j], tau,
        grid.boundary_normals[j])


def dbetaF_closed(series, state, j, mode="general"):
    """Closed-form boundary derivative of F along beta at the boundary nodes
    j (an int array) at the state's time.

    Returns (value, (term1, term2, term3)): the curvature-form term, the
    -G_pp(grad f, grad f) term, and the +alpha G_pp(grad f, grad theta) term,
    each already multiplied by t. Both modes read term1 from
    ``_boundary_convexity_contraction`` at tau = W^{-1} grad f and differ
    only in G_pp: ``mode='quadratic'`` uses the specialization valid for the
    inner-product cost (G_pp = D^2 h*(grad u)); ``mode='general'`` assembles
    the full G_pp from the cost calculus. Each is an array, one entry per
    node, from one evaluation of the ring's fields, with the package's 2x2
    helpers.
    """
    if mode not in ("general", "quadratic"):
        raise ValueError("mode must be 'general' or 'quadratic'")
    m = series.index_of(state)
    grid = state.grid
    spec = state.spec
    t_val = float(series.times[m])
    grad_f = series.grad_f[m][-1, j]
    grad_rate = grid.grad_values(state.rate)[-1, j]
    W = state.W[-1, j]
    beta = state.ring_beta()[j]
    chi = nm.norm2(nm.matvec2(W, beta))
    tau = nm.solve2(W, grad_f)
    form = _boundary_convexity_contraction(state, j, tau)
    if mode == "quadratic":
        g_pp = spec.target.h_hess(state.grad_u[-1, j])
    else:
        g_pp = spec.cost.G_hessian_p(spec.target, grid.nodes[-1, j],
                                     state.grad_u[-1, j], y=state.tmap[-1, j])
    term1 = -t_val * chi * form
    term2 = -t_val * nm.quadform2(g_pp, grad_f)
    term3 = t_val * series.alpha * np.vecdot(grad_rate, nm.matvec2(g_pp, grad_f))
    return term1 + term2 + term3, (term1, term2, term3)


def boundary_tangency_defect(series, state):
    """max over boundary nodes of |<W beta, tau>| / (|W beta| max |tau|) for
    tau = W^{-1} grad f at the state's time; zero in the continuum.

    The normalization uses the ring maximum of |tau| so nodes where grad f
    happens to vanish do not turn roundoff into an O(1) ratio.
    """
    m = series.index_of(state)
    grad_f = series.grad_f[m][-1]
    W = state.W[-1]
    wbeta = nm.matvec2(W, state.ring_beta())
    tau = nm.solve2(W, grad_f)
    num = np.abs(np.sum(wbeta * tau, axis=-1))
    den = nm.norm2(wbeta) * float(np.max(nm.norm2(tau)))
    if np.max(den) <= 1e-300:
        return 0.0
    return float(np.max(num / den))


# --- max principle monitor -----------------------------------------------------

@dataclass
class MonotonicityReport:
    max_violation: float        # largest upward move of the running max
    min_violation: float        # largest downward move of the running min

    def worst(self):
        return max(self.max_violation, self.min_violation)


def max_principle_monitor(trajectory):
    """Monotonicity of the running extrema of the rate field, from the
    trajectory's per-step records. The violations are the largest forward
    increase of the max series and the largest forward decrease of the min
    series.
    """
    sup_series = trajectory.step_column("sup_theta")
    inf_series = trajectory.step_column("inf_theta")
    if len(sup_series) == 0:
        return MonotonicityReport(0.0, 0.0)
    # compare against the running envelope so persistent drift accumulates
    up = float(np.max(sup_series - np.minimum.accumulate(sup_series)))
    down = float(np.max(np.maximum.accumulate(inf_series) - inf_series))
    return MonotonicityReport(max(up, 0.0), max(down, 0.0))
