"""Super-time-stepping of the transport flow under the second boundary
condition.

The potential u evolves by du/dt = log det W - log B(x, grad u) with
W = D^2 u - A(x, grad u), while the boundary values of u are projected after
every interior update so that G(x, grad u) = h*(Y(x, grad u)) vanishes on the
boundary ring. The projection is a Newton iteration on the ring values whose
Jacobian couples each node to itself through the one-sided radial stencil and
to the whole ring through the spectral tangential derivative; obliqueness of
the direction field beta = D_p G keeps the diagonal away from zero. Both
operators are the grid's tables (``ring_dr``, ``ring_ds``), and W is formed
only in ``potential_fields``. beta comes only from ``CostModel.oblique_beta``
on the boundary ring: at the projection's ring image, and through
``FlowState.ring_beta`` for a state.

A stage runs plane-major: the calculus kernel returns the gradient and the
Hessian as contiguous (n_r, n_s) planes (``CurvilinearGrid.calculus_planes``),
W is kept as its three planes (xx, xy, yy), and det W, the
positive-definiteness test, the rate and ``policy_dt`` read those planes.
The (n_r, n_s, 2, 2) W is assembled only when read (``FlowState.W``). Every
floating-point operation keeps the operands and the order of the node-major
formulas, so the results are theirs bit for bit.

Stability: a step is one Runge-Kutta-Legendre super-step of second order
(RKL2; Meyer, Balsara & Aslam, J. Comput. Phys. 257, 2014). Its s stages
are each a forward-Euler-like update of the non-boundary rows, and the
super-step tau is stable for tau <= (s^2 + s - 2)/4 dt_FE, where dt_FE is
the explicit Euler limit. ``policy_dt`` bounds it a priori by
C_STAB h_min^2 / max trace(W^{-1}) with C_STAB = 0.4; h_min is the smallest
effective node spacing divided by sqrt(2) (the two space dimensions share
the explicit stability budget; the angular spacing near the center is the
post-projection effective one, see :mod:`otflow.grid`). Every stage is
followed by the pole projection and the boundary projection, and its state
is checked for positive definiteness of W and finiteness. A super-step with
a failing stage is rejected and retried with half of tau, at most
MAX_HALVINGS times.
``run_to_convergence`` grades tau by the measured decay: the flow converges
exponentially, so the RKL2 time error per unit time, about
tau^2 sigma^2 sup |rate|, shrinks as the run goes on. tau starts at a
quarter of the snapshot cadence and doubles each time sup |rate| has fallen
4x since the start, up to the cadence itself (``graded_tau``). The stage
count is the fewest stable for a measured dt_FE, SPECTRAL_SAFETY * 2/|lam|
with lam the stiffest eigenvalue of the stepper's own Jacobian, estimated by
``stiffest_eigenvalue``; ``policy_dt`` is its floor. ``stage_jvp`` is the one
linearization of the stage map: every product of that Jacobian, the power
iteration's and a dense build's, is a call of it. Both tau and lam are
chosen once per snapshot interval, at its top (``run_to_convergence``).

A run's settings are its :class:`Schedule`: the stopping rule (stop_tol,
t_max) and the snapshot cadence (snapshot_dt). Only ``run_to_convergence``
reads one. The numerical tolerances are module constants that no run
varies: C_STAB and MAX_HALVINGS for the stepper, BOUNDARY_TOL, BOUNDARY_CAP
and OBLIQUENESS_FLOOR for the boundary Newton.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _numerics as nm
from .errors import (BoundaryIncompatible, ImageMismatch, NewtonStall,
                     NonPositiveDet, NotCConvex, ObliquenessLost, StepRejected)

#: columns of the per-step diagnostics table, in file order
STEP_COLUMNS = ("t", "dt", "sup_theta", "inf_theta", "mass_balance_err",
                "max_boundary_G", "min_eig_W", "stationary_residual")

#: snapshot times this close are one time (a run lands them to roundoff)
TIME_TOL = 1e-9


@dataclass
class Schedule:
    """Run policy: the stopping rule and the snapshot cadence."""

    stop_tol: float = 1e-8
    t_max: float = 10.0
    snapshot_dt: float = 0.25


#: the forward-Euler limit policy_dt is C_STAB h_min^2 / max trace(W^{-1})
C_STAB = 0.4
#: a super-step is retried with half of tau at most this many times
MAX_HALVINGS = 12
#: the boundary Newton stops once max |G| on the ring is at most
#: BOUNDARY_TOL, and stalls after BOUNDARY_CAP iterations
BOUNDARY_TOL = 1e-10
BOUNDARY_CAP = 30
#: beta . nu below this on the boundary ring raises ObliquenessLost
OBLIQUENESS_FLOOR = 1e-8


class FlowContext:
    """Immutable per-run data shared by every state of one flow.

    It holds no copy of grid data and no solver state: the boundary
    Newton's chord LU lives in the :class:`Chord` that
    ``run_to_convergence`` owns and hands to ``step``.
    """

    def __init__(self, spec, grid):
        self.spec = spec
        self.grid = grid
        self.rho_nodes = spec.rho(grid.nodes)
        self.log_rho = np.log(self.rho_nodes)
        self.target_mass = spec.target_mass()


@dataclass
class FlowState:
    """Potential at one time with the derived fields the stepper reuses.
    ``rate`` is None exactly when W is not positive definite everywhere.
    W is kept as its three planes ``w_planes`` (xx, xy, yy), shape
    (3, n_r, n_s); the property ``W`` assembles the C-contiguous
    (n_r, n_s, 2, 2) matrices on each read. ``grad_u`` is a node-major
    (n_r, n_s, 2) view of the kernel's gradient planes. The monitors
    ``min_eig_W``, ``max_boundary_G`` and ``mass_err`` are computed when
    read: a stage only needs ``rate``."""

    ctx: FlowContext
    u: np.ndarray
    t: float
    grad_u: np.ndarray
    tmap: np.ndarray
    w_planes: np.ndarray
    det_W: np.ndarray
    rate: np.ndarray | None

    @property
    def grid(self):
        return self.ctx.grid

    @property
    def spec(self):
        return self.ctx.spec

    @property
    def W(self):
        """W as (n_r, n_s, 2, 2) matrices, assembled from ``w_planes`` on
        every read."""
        return nm.sym2(self.w_planes)

    @property
    def min_eig_W(self):
        """Smallest eigenvalue of W over the grid."""
        return float(nm.sym_eig_range2(self.W)[0].min())

    @property
    def max_boundary_G(self):
        """max |h*(T)| on the boundary ring, the only place G is imposed."""
        return float(np.max(np.abs(self.spec.target.h(self.tmap[-1]))))

    @property
    def mass_err(self):
        """|mass of exp(rate) rho - target mass|; inf for an invalid state."""
        if self.rate is None:
            return np.inf
        mass = float(np.sum(self.grid.weights * np.exp(self.rate)
                            * self.ctx.rho_nodes))
        return abs(mass - self.ctx.target_mass)

    @property
    def valid(self):
        return self.rate is not None and np.all(np.isfinite(self.u))

    def ring_beta(self):
        """Oblique direction beta = (D_p Y)^T grad h*(T) on the boundary
        ring, shape (n_s, 2)."""
        spec = self.spec
        return spec.cost.oblique_beta(spec.target, self.grid.nodes[-1],
                                      self.grad_u[-1], y=self.tmap[-1])


@dataclass
class StepReport:
    """One accepted super-step: its length tau (``dt``), the boundary Newton
    iterations summed over its stages, the halvings before it was accepted,
    and its stage count."""

    dt: float
    boundary_newton_iters: int
    halvings: int
    stages: int


class Chord:
    """LU factors of the boundary ring's Newton Jacobian, reused chord-style
    across the steps of one run while they keep converging (the ring
    geometry drifts only O(dt) per step). ``lu`` is None until the first
    factorization and after a forced rebuild."""

    def __init__(self):
        self.lu = None


@dataclass
class Snapshot:
    t: float
    u: np.ndarray
    rate: np.ndarray


@dataclass
class Trajectory:
    """A completed (or truncated) run: snapshots plus per-step records.

    ``step_reports`` and ``step_dt_fe`` hold, per accepted super-step, its
    :class:`StepReport` and the forward-Euler step its stage count was
    chosen for; they are kept in memory only (a loaded trajectory has
    none)."""

    ctx: FlowContext
    snapshots: list
    step_records: np.ndarray    # (n_steps, len(STEP_COLUMNS))
    converged: bool
    reason: str
    step_reports: list = field(default_factory=list)
    step_dt_fe: list = field(default_factory=list)

    @property
    def grid(self):
        return self.ctx.grid

    @property
    def spec(self):
        return self.ctx.spec

    def times(self):
        return np.array([s.t for s in self.snapshots])

    def state_at(self, idx):
        snap = self.snapshots[idx]
        return build_state(self.ctx, snap.u, snap.t)

    def final_state(self):
        return self.state_at(len(self.snapshots) - 1)

    def snapshot_index_at_time(self, t):
        return time_index(self.times(), t)

    def step_column(self, name):
        """The column ``name`` of the step table (one of STEP_COLUMNS)."""
        return self.step_records[:, STEP_COLUMNS.index(name)]


def time_index(times, t):
    """Index of the time in ``times`` within TIME_TOL of t, else KeyError."""
    times = np.asarray(times)
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > TIME_TOL:
        raise KeyError(f"no snapshot at t = {t}")
    return i


def potential_fields(grid, cost, u):
    """(grad u, Y(x, Du), W = D^2 u - D_xx c(x, Y)) of a potential's node
    values, W as its three planes (xx, xy, yy), shape (3, n_r, n_s): the one
    place W is formed. ``nm.sym2`` assembles the (n_r, n_s, 2, 2) matrices."""
    gx, w = grid.calculus_planes(u)
    grad = gx.transpose(1, 2, 0)
    tmap = cost.invert_Y(grid.nodes, grad)
    if not cost.hess_xx_vanishes:
        a = cost.hess_xx(grid.nodes, tmap)
        w = np.stack((w[0] - a[..., 0, 0], w[1] - a[..., 0, 1],
                      w[2] - a[..., 1, 1]))
    return grad, tmap, w


def build_state(ctx, u_values, t):
    """Assemble the cached fields of a state from raw potential values.
    Raises DegenerateCross where the cross Hessian at the twist inverse has
    |det| below costs.CROSS_DET_FLOOR (a cost without ``cross_identity``)."""
    grid = ctx.grid
    spec = ctx.spec
    cost = spec.cost
    u = np.asarray(u_values, float)
    grad, tmap, w = potential_fields(grid, cost, u)
    det_w = w[0] * w[2]
    det_w -= w[1] * w[1]
    rate = None
    # a symmetric 2x2 W is positive definite iff W_00 > 0 and det W > 0
    # (a NaN minimum fails the test, as a NaN entry does)
    if w[0].min() > 0.0 and det_w.min() > 0.0:
        log_b = np.log(spec.rho_star(tmap))
        np.subtract(ctx.log_rho, log_b, out=log_b)
        if not cost.cross_identity:
            log_b += np.log(cost.cross_det(grid.nodes, tmap))
        rate = np.log(det_w)
        rate -= log_b
    return FlowState(ctx=ctx, u=u, t=float(t), grad_u=grad, tmap=tmap,
                     w_planes=w, det_W=det_w, rate=rate)


# --- initialization ---------------------------------------------------------

def _require_c_convex(state, what):
    """Raise NotCConvex, with W's worst node as its witness, when the state
    has no rate because W is not positive definite somewhere."""
    if state.rate is not None:
        return
    nodes = state.grid.nodes
    lo, _ = nm.sym_eig_range2(state.W)
    i, j = (int(k) for k in np.unravel_index(np.argmin(lo), lo.shape))
    raise NotCConvex(
        f"{what} not locally uniformly cost-convex: min eigenvalue "
        f"{lo[i, j]:.3e} at node {(i, j)}, x = {nodes[i, j]}",
        witness=(i, j, nodes[i, j].copy(), float(lo[i, j])))


def initialize(spec, grid, u0, schedule=None):
    """Validate initial data and return the state at t = 0.

    Checks, in order: positive definiteness of W(u0) everywhere (with a
    witness node on failure), the boundary compatibility h*(Y(x, grad u0)) = 0
    on the boundary ring to 1e-7 + 5 dr^2, that the transport image stays
    inside the closed target to the same tolerance, obliqueness beta . nu
    at the ring image of the boundary projection (which every initial state
    takes, as every stage does), positive definiteness again when that
    projection moved the ring, and that the image of the boundary covers
    the target boundary to 4 times the mapped spacing. ``u0`` is the
    potential's (n_r, n_s) node array; it is copied, never written. No
    check depends on ``schedule``; it is accepted because callers pass the
    run's Schedule.
    """
    ctx = FlowContext(spec, grid)
    u = grid.apply_pole_projection(np.array(u0, float))
    state = build_state(ctx, u, 0.0)
    _require_c_convex(state, "initial potential")
    # the discrete gradient of exact continuum-compatible data carries an
    # O(h^2) boundary defect, so the compatibility tolerance scales with it
    init_tol = 1e-7 + 5.0 * grid.dr ** 2
    max_g = state.max_boundary_G
    if max_g > init_tol:
        raise BoundaryIncompatible(
            f"max |h*(Y(x, grad u0))| = {max_g:.3e} on the "
            f"boundary (tolerance {init_tol:g})")
    inside = float(np.max(spec.target.h(state.tmap)))
    if inside > init_tol:
        raise ImageMismatch(
            f"transport image leaves the closed target: max h* = {inside:.3e}")
    # start the flow exactly on the boundary constraint; a ring already on
    # it takes no Newton iteration, but its obliqueness is still checked
    if _project_boundary(ctx, u):
        state = build_state(ctx, u, 0.0)
        _require_c_convex(state, "initial potential after the boundary "
                          "projection")
    # boundary coverage: every target boundary sample must be near a mapped node
    n_probe = 4 * grid.n_s
    probes = spec.target.boundary_param(np.arange(n_probe) / n_probe)
    mapped = state.tmap[-1]
    d2 = ((probes[:, None, :] - mapped[None, :, :]) ** 2).sum(-1)
    gap = float(np.sqrt(d2.min(axis=1).max()))
    mapped_spacing = float(np.max(nm.norm2(np.diff(
        np.concatenate([mapped, mapped[:1]], axis=0), axis=0))))
    tol = 4.0 * mapped_spacing
    if gap > tol:
        raise ImageMismatch(
            f"boundary image leaves a gap of {gap:.3e} on the target boundary "
            f"(tolerance {tol:.3e})")
    return state


def initial_linear_scaling(spec, grid):
    """Potential of the affine map source -> target for the inner-product
    cost between a centered disk source and a disk or ellipse target, as a
    node array."""
    src, tgt = spec.source, spec.target
    if src.kind != "disk":
        raise ValueError("linear scaling initial data needs a disk source")
    if tgt.kind not in ("disk", "ellipse"):
        raise ValueError("linear scaling initial data needs a disk or ellipse target")
    hx, hy = tgt.half_widths()
    ax, ay = hx / src.radius, hy / src.radius
    c2 = tgt.center
    d = grid.nodes - src.center
    return (grid.nodes[..., 0] * c2[0] + grid.nodes[..., 1] * c2[1]
            + 0.5 * (ax * d[..., 0] ** 2 + ay * d[..., 1] ** 2))


def initial_antipodal_reflection(spec, grid):
    """Stationary potential of the point reflection T(x) = c2 - (x - c1)
    between equal-radius disks under the sqrt(1 + |x - y|^2) cost, as a
    node array."""
    src, tgt = spec.source, spec.target
    if src.kind != "disk" or tgt.kind != "disk" or not np.isclose(
            src.radius, tgt.radius):
        raise ValueError("antipodal reflection initial data needs equal-radius disks")
    z = 2.0 * (grid.nodes - src.center) - (tgt.center - src.center)
    return 0.5 * np.sqrt(1.0 + z[..., 0] ** 2 + z[..., 1] ** 2)


INITIAL_POTENTIALS = {
    "linear_scaling": initial_linear_scaling,
    "antipodal_reflection": initial_antipodal_reflection,
}


# --- boundary projection -----------------------------------------------------

def _oblique_beta(ctx, y):
    """beta at the ring image y; raises ObliquenessLost where beta . nu
    falls below OBLIQUENESS_FLOOR."""
    spec, grid = ctx.spec, ctx.grid
    beta = spec.cost.oblique_beta(spec.target, grid.nodes[-1], None, y=y)
    nu = grid.ring_nu
    obl = float((beta[:, 0] * nu[0] + beta[:, 1] * nu[1]).min())
    if obl < OBLIQUENESS_FLOOR:
        raise ObliquenessLost(f"beta . nu = {obl:.3e} on the boundary ring")
    return beta


def _project_boundary(ctx, u_values, chord=None):
    """Newton-update the boundary ring of u_values so that G = 0 there, to
    BOUNDARY_TOL within BOUNDARY_CAP iterations.

    The ring gradient is the calculus kernel's: d/dr is the grid's
    ``ring_dr`` row, whose last entry is the Jacobian's diagonal weight, and
    d/ds its ``ring_ds`` block; the chain rule reads the contiguous rows
    ``ring_jinv``. Mutates u_values in place; returns the
    Newton iteration count. The LU factorization of the ring Jacobian is
    kept in ``chord`` and reused across calls while it keeps converging; it
    is rebuilt when progress slows. Without a chord the call factors
    afresh. Obliqueness beta . nu >= OBLIQUENESS_FLOOR is checked at the
    accepted ring image on every call, and at every refactorization. A
    non-finite ring residual raises NewtonStall.
    """
    from scipy.linalg.lapack import dgetrs

    grid, spec = ctx.grid, ctx.spec
    x, (j_r, j_s), d_s, w_dr = (grid.nodes[-1], grid.ring_jinv, grid.ring_ds,
                                grid.ring_dr)
    invert_y, h = spec.cost.invert_Y, spec.target.h
    w_b = w_dr[-1]
    u_r_inner = w_dr[:-1] @ u_values[:-1]
    if chord is None:
        chord = Chord()
    b = u_values[-1].copy()

    def residual(bv):
        # the ring gradient component by component, (2, n_s), read
        # node-major through its transpose
        grad = (u_r_inner + w_b * bv) * j_r
        grad += (d_s @ bv) * j_s
        y = invert_y(x, grad.T)
        return h(y), y

    def refresh_jacobian(y):
        from scipy.linalg import lu_factor
        beta = _oblique_beta(ctx, y)
        a_r = (beta[:, 0] * j_r[0] + beta[:, 1] * j_r[1]) * w_b
        a_s = beta[:, 0] * j_s[0] + beta[:, 1] * j_s[1]
        jac = a_s[:, None] * d_s
        jac[np.arange(grid.n_s), np.arange(grid.n_s)] += a_r
        chord.lu = lu_factor(jac)

    g, y = residual(b)
    err = float(np.abs(g).max())
    if not err < np.inf:
        # NaN or inf: dgetrs does not check its right-hand side
        raise NewtonStall(f"non-finite boundary residual (max |G| = {err})")
    iters = 0
    fresh = False
    while err > BOUNDARY_TOL:
        if iters >= BOUNDARY_CAP:
            raise NewtonStall(
                f"boundary projection stalled at max |G| = {err:.3e}")
        if chord.lu is None:
            refresh_jacobian(y)
            fresh = True
        delta, _ = dgetrs(*chord.lu, -g)
        lam = 1.0
        while True:
            trial = b + lam * delta
            g_new, y_new = residual(trial)
            err_new = float(np.abs(g_new).max())
            if err_new < err or err_new <= BOUNDARY_TOL:
                break
            lam *= 0.5
            if lam < 1.0 / 64.0:
                if not fresh:
                    break           # stale factorization: rebuild and retry
                raise NewtonStall(
                    f"boundary projection cannot reduce |G| below {err:.3e}")
        if lam < 1.0 / 64.0 or (not fresh and err_new > 0.25 * err
                                and err_new > BOUNDARY_TOL):
            chord.lu = None         # slow chord progress: force a rebuild
            if lam < 1.0 / 64.0:
                continue
        b, g, y = trial, g_new, y_new
        err = err_new
        iters += 1
    _oblique_beta(ctx, y)
    u_values[-1] = b
    return iters


# --- stepping ----------------------------------------------------------------

#: a run's first super-step tau is this power-of-two fraction of
#: snapshot_dt (shortened to land on the next snapshot), and graded_tau
#: never goes below it; on the reference scenario the time error, max |du|
#: of about 6.5e-6 against a fine-step run at 32x64 and at 64x128, is set in
#: the first snapshot interval and stays far below the O(dr^2) spatial error
SUPER_STEP_FRACTION = 0.25
#: the smallest snapshot_dt a run accepts: above it the shortest super-step,
#: SUPER_STEP_FRACTION snapshot_dt / 2^MAX_HALVINGS, exceeds TIME_TOL
MIN_SNAPSHOT_DT = TIME_TOL * 2 ** MAX_HALVINGS / SUPER_STEP_FRACTION
#: a run's forward-Euler step is this fraction of 2/|lambda_max|, the
#: limit set by the measured stiffest eigenvalue (see stiffest_eigenvalue)
SPECTRAL_SAFETY = 0.8
#: forward-difference step of the stepper's Jacobian-vector product, stage_jvp
_JVP_EPS = 1e-6
#: the power iteration stops once its Rayleigh quotient moves by less than
#: this relative amount, or after _POWER_CAP products
_POWER_RTOL = 0.002
_POWER_CAP = 12


def policy_dt(state):
    """Forward-Euler stability limit: C_STAB h_min^2 / max trace(W^{-1})."""
    w = state.w_planes
    tr_winv = (w[0] + w[2]) / state.det_W
    return C_STAB * state.grid.h_min ** 2 / float(tr_winv.max())


def stiffest_eigenvalue(state, chord, start=None):
    """Power iteration for the stiffest eigenvalue of the stepper's own map
    v -> rate[:-1] on the non-boundary rows, pole and boundary projections
    included; returns lambda and the eigenvector estimate.

    Each product is one ``stage_jvp`` at ``state`` (the boundary Newton
    reuses the run's ``chord``). The iteration starts from ``start`` or,
    without one, from the checkerboard of each ring's highest free angular
    mode, and stops once the Rayleigh quotient moves by less than
    _POWER_RTOL, or after _POWER_CAP products.
    lambda is None when a perturbed evaluation fails.

    Measured shortfall: on ``disk_cosine_perturbed`` at 16x32 the estimate
    stops 2.8% short of the dense Jacobian's lambda (-597.6 against -614.8;
    2.6% at an earlier angular budget of 2.5). The top of the spectrum is
    a cluster of near-degenerate pairs (-614.8 twice, -606.7 twice, then
    -600.3), so the Rayleigh quotient creeps (-602.5 after 48 products)
    and the _POWER_RTOL stop fires on that stall, after 9 products.
    SPECTRAL_SAFETY = 0.8 covers the gap."""
    if start is None:
        grid = state.grid
        i, j = np.indices(state.u[:-1].shape)
        k = grid.pole_kmax[:-1, None]
        start = (-1.0) ** i * np.cos(2.0 * np.pi * k * j / grid.n_s)
    y = start / np.max(np.abs(start))
    lam = None
    for _ in range(_POWER_CAP):
        jy = stage_jvp(state, chord, y)
        scale = np.nan if jy is None else float(np.max(np.abs(jy)))
        if not (np.isfinite(scale) and scale > 0.0):
            return None, y
        rq = float(np.vdot(y, jy) / np.vdot(y, y))
        y = jy / scale
        if lam is not None and abs(rq - lam) <= _POWER_RTOL * abs(rq):
            return rq, y
        lam = rq
    return lam, y


def graded_tau(snapshot_dt, sup_rate, sup_rate0):
    """The super-step for a run whose sup |rate| fell from sup_rate0 at the
    start to sup_rate: the largest snapshot_dt / 2^m, m = 0, 1, ..., that is
    at least SUPER_STEP_FRACTION * snapshot_dt and keeps the RKL2 time error
    per unit time, about tau^2 sigma^2 sup |rate|, within its value at the
    start, tau^2 sup_rate <= (SUPER_STEP_FRACTION snapshot_dt)^2 sup_rate0.
    tau doubles each time sup |rate| falls 4x, up to snapshot_dt."""
    floor = SUPER_STEP_FRACTION * snapshot_dt
    budget = floor * floor * sup_rate0
    tau = snapshot_dt
    while tau > floor and tau * tau * sup_rate > budget:
        tau *= 0.5
    return tau


def rkl2_stages(tau, dt_fe):
    """The fewest stages s >= 2 whose RKL2 stability limit
    (s^2 + s - 2)/4 * dt_fe covers the super-step tau."""
    s = 2
    while (s * s + s - 2) / 4.0 * dt_fe < tau:
        s += 1
    return s


def _rkl2_coefficients(s):
    """(mu, nu, mu~, gamma~) of the s-stage RKL2 recursion, each indexed by
    the stage j = 1..s (entry 0 unused; mu_1 = nu_1 = gamma~_1 = 0)."""
    w1 = 4.0 / (s * s + s - 2)
    j = np.arange(s + 1, dtype=float)
    b = np.full(s + 1, 1.0 / 3.0)
    b[2:] = (j[2:] ** 2 + j[2:] - 2.0) / (2.0 * j[2:] * (j[2:] + 1.0))
    mu = np.zeros(s + 1)
    nu = np.zeros(s + 1)
    mu[2:] = (2.0 * j[2:] - 1.0) / j[2:] * b[2:] / b[1:-1]
    nu[2:] = -(j[2:] - 1.0) / j[2:] * b[2:] / b[:-2]
    mu_t = mu * w1
    mu_t[1] = b[1] * w1
    gamma_t = np.zeros(s + 1)
    gamma_t[2:] = -(1.0 - b[1:-1]) * mu_t[2:]
    return mu, nu, mu_t, gamma_t


class _StageFailed(Exception):
    """A stage of a super-step left the admissible set."""


def _project_stage(ctx, u, t, chord):
    """The state at time t of a stage's raw potential u: its pole
    projection, the Newton projection of its boundary ring, and the state
    assembly. Returns the state and the Newton iteration count."""
    u = ctx.grid.apply_pole_projection(u)
    iters = _project_boundary(ctx, u, chord=chord)
    return build_state(ctx, u, t), iters


def stage_jvp(state, chord, v):
    """The stepper's Jacobian at ``state`` applied to v, the forward
    difference (rate[:-1](u + eps v) - rate[:-1](u)) / eps with eps =
    _JVP_EPS: v perturbs the rows below the ring, and the ring comes from
    the stage's own projections (the boundary Newton reuses ``chord``).
    None when the perturbed stage fails: NewtonStall, ObliquenessLost, or
    W not positive definite."""
    u = state.u.copy()
    u[:-1] += _JVP_EPS * v
    try:
        rate = _project_stage(state.ctx, u, state.t, chord)[0].rate
    except (NewtonStall, ObliquenessLost):
        return None
    return None if rate is None else (rate[:-1] - state.rate[:-1]) / _JVP_EPS


def _rkl2_super_step(state, tau, stages, chord):
    """One RKL2 super-step of length tau; returns the new state and the
    boundary Newton iterations of all stages.

    The recursion runs on the non-boundary rows in increments
    D_j = Y_j - Y_0, so a stationary state stays fixed to roundoff:
    D_j = mu_j D_{j-1} + nu_j D_{j-2} + mu~_j tau L(Y_{j-1}) + gamma~_j tau L(Y_0),
    which for j = 1 is D_1 = mu~_1 tau L(Y_0).
    Each stage is projected (pole, then boundary ring) and rebuilt before
    it feeds the next, so D_j is taken after the projections. The ring's
    Newton starts from the previous stage's ring moved so that the ring's
    d/dr, the grid's ``ring_dr`` row, keeps its previous value.
    """
    mu, nu, mu_t, gamma_t = _rkl2_coefficients(stages)
    ctx = state.ctx
    w_dr = ctx.grid.ring_dr
    y0 = state.u[:-1]
    tau_l0 = tau * state.rate[:-1]
    d_prev = np.zeros_like(y0)
    d_prev2 = d_prev
    prev = state
    iters = 0
    for j in range(1, stages + 1):
        # the increment's four terms, summed in place left to right
        d = mu[j] * d_prev
        d += nu[j] * d_prev2
        d += (mu_t[j] * tau) * prev.rate[:-1]
        d += gamma_t[j] * tau_l0
        u = np.empty(prev.u.shape)
        np.add(y0, d, out=u[:-1])
        # the ring seeds the projection: the previous stage's ring, moved
        # so that its d/dr keeps its last value
        u[-1] = prev.u[-1] - (w_dr[:-1] @ (u[:-1] - prev.u[:-1])) / w_dr[-1]
        if not np.isfinite(u).all():
            raise _StageFailed(f"non-finite potential at stage {j}")
        stage, n_newton = _project_stage(ctx, u, state.t + tau, chord)
        iters += n_newton
        if stage.rate is None:
            raise _StageFailed(f"W lost positivity at stage {j} "
                               f"(min eig {stage.min_eig_W:.3e})")
        if not np.isfinite(stage.rate).all():
            raise _StageFailed(f"non-finite rate at stage {j}")
        d_prev2, d_prev = d_prev, stage.u[:-1] - y0
        prev = stage
    return prev, iters


def step(state, tau, chord=None, stages=2):
    """One RKL2 super-step of length tau with ``stages`` stages, each
    followed by the pole and boundary projections; a failing stage rejects
    the super-step, which is retried with half of tau, up to MAX_HALVINGS
    times. With the default two stages, tau = policy_dt(state)
    is stable. ``chord`` carries the projection's LU across the steps of a
    run; without one the projection factors afresh."""
    if state.rate is None:
        raise NonPositiveDet("cannot step an invalid state")
    if stages < 2:
        raise ValueError("an RKL2 super-step needs at least 2 stages")
    attempt_tau = float(tau)
    last_fail = "unstable"
    for halving in range(MAX_HALVINGS + 1):
        try:
            new_state, iters = _rkl2_super_step(state, attempt_tau, stages,
                                                chord)
        except (_StageFailed, NewtonStall, ObliquenessLost) as exc:
            last_fail = str(exc)
            attempt_tau *= 0.5
            continue
        report = StepReport(dt=attempt_tau, boundary_newton_iters=iters,
                            halvings=halving, stages=stages)
        return new_state, report
    raise StepRejected(
        f"step rejected after {MAX_HALVINGS} halvings (tau = {attempt_tau:.3e}, "
        f"{stages} stages): {last_fail}")


def _record_row(state, dt):
    return (state.t, dt, float(np.max(state.rate)), float(np.min(state.rate)),
            state.mass_err, state.max_boundary_G, state.min_eig_W,
            float(np.max(np.abs(state.rate))))


def run_to_convergence(spec, grid, u0, schedule=None):
    """March the flow, one snapshot interval at a time, until sup |rate|
    falls to stop_tol or t reaches t_max. An interval ends at the next
    multiple of snapshot_dt or at t_max; lambda (``stiffest_eigenvalue``,
    warm-started) and tau (``graded_tau``) are chosen once at its top. A
    step is an RKL2 super-step of min(tau, end - t), with the fewest stages
    stable at max(policy_dt, SPECTRAL_SAFETY * 2/|lambda|), and lands on
    the end when it stops within TIME_TOL of it. Its monitor row, recorded
    before the landing, holds the sup |rate| that the stop rule, the next
    grading and the reason read. Each interval's end, or the stop time,
    takes one snapshot. ValueError for snapshot_dt <= MIN_SNAPSHOT_DT."""
    sched = schedule or Schedule()
    if not sched.snapshot_dt > MIN_SNAPSHOT_DT:
        raise ValueError(f"snapshot_dt {sched.snapshot_dt:g} <= MIN_SNAPSHOT_DT")
    state = initialize(spec, grid, u0)
    chord = Chord()
    snapshots = [Snapshot(0.0, state.u.copy(), state.rate.copy())]
    records, reports, dt_fes = [], [], []
    residual = sup_rate0 = float(np.max(np.abs(state.rate)))
    eigvec = None
    k = 0
    while residual > sched.stop_tol and sched.t_max - state.t > TIME_TOL:
        k += 1
        end = min(k * sched.snapshot_dt, sched.t_max)
        lam, eigvec = stiffest_eigenvalue(state, chord, eigvec)
        dt_spectral = (SPECTRAL_SAFETY * 2.0 / -lam
                       if lam is not None and lam < 0.0 else 0.0)
        tau_graded = graded_tau(sched.snapshot_dt, residual, sup_rate0)
        while residual > sched.stop_tol and end - state.t >= TIME_TOL:
            dt_fe = max(policy_dt(state), dt_spectral)
            tau = min(tau_graded, end - state.t)
            stages = rkl2_stages(tau, dt_fe)
            state, rep = step(state, tau, chord=chord, stages=stages)
            row = _record_row(state, rep.dt)
            records.append(row)
            reports.append(rep)
            dt_fes.append(dt_fe)
            residual = row[-1]              # its stationary_residual
        if end - state.t < TIME_TOL:
            state.t = end
        snapshots.append(Snapshot(state.t, state.u.copy(), state.rate.copy()))
    converged = residual <= sched.stop_tol
    if not converged:
        reason = (f"t_max = {sched.t_max} reached with sup |rate| = "
                  f"{residual:.3e}")
    elif records:
        reason = f"rate below stop_tol at t = {state.t:.4f}"
    else:
        reason = "stationary at start"
    table = np.array(records, float).reshape(-1, len(STEP_COLUMNS))
    return Trajectory(ctx=state.ctx, snapshots=snapshots, step_records=table,
                      converged=converged, reason=reason, step_reports=reports,
                      step_dt_fe=dt_fes)
