"""Super-time-stepping of the transport flow under the second boundary
condition.

The potential u evolves by du/dt = log det W - log B(x, grad u) with
W = D^2 u - A(x, grad u), while the boundary values of u are projected after
every interior update so that G(x, grad u) = h*(Y(x, grad u)) vanishes on the
boundary ring. The projection is a Newton iteration on the ring values whose
Jacobian couples each node to itself through the one-sided radial stencil and
to the whole ring through the spectral tangential derivative; obliqueness of
the direction field beta = D_p G keeps the diagonal away from zero. beta
comes only from ``CostModel.oblique_beta`` on the boundary ring: at the
projection's ring image, and through ``FlowState.ring_beta`` for a state.

Stability: a step is one Runge-Kutta-Legendre super-step of second order
(RKL2; Meyer, Balsara & Aslam, J. Comput. Phys. 257, 2014). Its s stages
are each a forward-Euler-like update of the non-boundary rows, and the
super-step tau is stable for tau <= (s^2 + s - 2)/4 dt_FE, where
dt_FE = c_stab h_min^2 / max trace(W^{-1}) with c_stab = 0.4 is the explicit
Euler limit; h_min is the smallest effective node spacing divided by sqrt(2)
(the two space dimensions share the explicit stability budget; the angular
spacing near the center is the post-projection effective one, see
:mod:`otflow.grid`). Every stage is followed by the pole projection and the
boundary projection, and its state is checked for positive definiteness of
W and finiteness. A super-step with a failing stage is rejected and retried
with half of tau. ``run_to_convergence`` takes tau as a fixed fraction of
the snapshot cadence and the fewest stages that keep it stable.
"""

from dataclasses import dataclass

import numpy as np

from . import _numerics as nm
from .errors import (BoundaryIncompatible, ImageMismatch, NewtonStall,
                     NonPositiveDet, NotCConvex, ObliquenessLost, StepRejected)
from .grid import Field

#: columns of the per-step diagnostics table, in file order
STEP_COLUMNS = ("t", "dt", "sup_theta", "inf_theta", "mass_balance_err",
                "max_boundary_G", "min_eig_W", "stationary_residual")


@dataclass
class Schedule:
    """Run policy: stopping, stepping, and output cadence."""

    stop_tol: float = 1e-8
    t_max: float = 10.0
    snapshot_dt: float = 0.25
    c_stab: float = 0.4
    max_halvings: int = 12
    boundary_tol: float = 1e-10
    boundary_cap: int = 30
    obliqueness_floor: float = 1e-8
    init_boundary_tol: float | None = None   # default: 1e-7 + 5 dr^2
    image_tol: float | None = None


class FlowContext:
    """Immutable per-run data shared by every state of one flow.

    It holds no solver state: the boundary Newton's chord LU lives in the
    :class:`Chord` that ``run_to_convergence`` owns and hands to ``step``.
    """

    def __init__(self, spec, grid):
        self.spec = spec
        self.grid = grid
        self.rho_nodes = spec.rho(grid.nodes)
        self.log_rho = np.log(self.rho_nodes)
        self.target_mass = spec.masses()[1]
        self.dmat = grid.spectral_matrix()
        self.ring_x = grid.nodes[-1]
        self.ring_jinv = grid.jinv[-1]
        self.ring_nu = grid.boundary_normals


@dataclass
class FlowState:
    """Potential at one time with the derived fields the stepper reuses."""

    ctx: FlowContext
    u: np.ndarray
    t: float
    grad_u: np.ndarray
    tmap: np.ndarray
    W: np.ndarray
    det_W: np.ndarray
    rate: np.ndarray | None
    min_eig_W: float
    max_boundary_G: float
    mass_err: float
    spd_ok: bool

    @property
    def grid(self):
        return self.ctx.grid

    @property
    def spec(self):
        return self.ctx.spec

    @property
    def valid(self):
        return self.spd_ok and self.rate is not None and np.all(np.isfinite(self.u))

    def rate_field(self):
        if self.rate is None:
            raise NonPositiveDet("det W <= 0 somewhere; no rate field")
        return Field(self.rate.copy(), "scalar", self.grid._id)

    def ring_beta(self):
        """Oblique direction beta = (D_p Y)^T grad h*(T) on the boundary
        ring, shape (n_s, 2)."""
        spec = self.spec
        return spec.cost.oblique_beta(spec.target, self.ctx.ring_x,
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
    """A completed (or truncated) run: snapshots plus per-step records."""

    ctx: FlowContext
    snapshots: list
    step_records: np.ndarray    # (n_steps, len(STEP_COLUMNS))
    converged: bool
    reason: str

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


def time_index(times, t):
    """The index of the snapshot time in ``times`` within 1e-9 of t;
    KeyError when there is none."""
    times = np.asarray(times)
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9:
        raise KeyError(f"no snapshot at t = {t}")
    return i


def build_state(ctx, u_values, t, tmap_seed=None):
    """Assemble the cached fields of a state from raw potential values."""
    grid = ctx.grid
    spec = ctx.spec
    cost = spec.cost
    u = np.asarray(u_values, float)
    grad, hess = grid.scalar_calculus(u)
    tmap = cost.invert_Y(grid.nodes, grad, seed=tmap_seed)
    if cost.hess_xx_vanishes:
        W = hess
    else:
        W = hess - cost.hess_xx(grid.nodes, tmap)
    det_w = nm.det2(W)
    lo, _ = nm.sym_eig_range2(W)
    min_eig = float(np.min(lo))
    spd_ok = bool(min_eig > 0.0)
    # the stepper needs h* only on the boundary ring
    max_g = float(np.max(np.abs(spec.target.h(tmap[-1]))))
    if spd_ok:
        log_b = ctx.log_rho - np.log(spec.rho_star(tmap))
        if not cost.cross_identity:
            C = cost.cross_hessian(grid.nodes, tmap)
            log_b = log_b + np.log(np.abs(nm.det2(C)))
        rate = np.log(det_w) - log_b
        mass = float(np.sum(grid.weights * np.exp(rate) * ctx.rho_nodes))
        mass_err = abs(mass - ctx.target_mass)
    else:
        rate = None
        mass_err = np.inf
    return FlowState(ctx=ctx, u=u, t=float(t), grad_u=grad, tmap=tmap, W=W,
                     det_W=det_w, rate=rate, min_eig_W=min_eig,
                     max_boundary_G=max_g, mass_err=mass_err, spd_ok=spd_ok)


def interior_rhs(state):
    """The flow right-hand side log det W - log B at every node (boundary
    included through the one-sided stencils); this field is the potential's
    time derivative."""
    if not state.spd_ok or state.rate is None:
        raise NonPositiveDet(
            f"det W <= 0 (min eigenvalue {state.min_eig_W:.3e}); "
            "the flow left the cost-convex cone")
    return state.rate_field()


# --- initialization ---------------------------------------------------------

def initialize(spec, grid, u0, schedule=None):
    """Validate initial data and return the state at t = 0.

    Checks, in order: positive definiteness of W(u0) everywhere (with a
    witness node on failure), the boundary compatibility h*(Y(x, grad u0)) = 0
    on the boundary ring, that the transport image stays inside the closed
    target, and that the image of the boundary covers the target boundary to
    a Hausdorff tolerance.
    """
    sched = schedule or Schedule()
    ctx = FlowContext(spec, grid)
    u = grid.apply_pole_projection(np.asarray(u0.data if isinstance(u0, Field)
                                              else u0, float).copy())
    state = build_state(ctx, u, 0.0)
    if not state.spd_ok:
        lo, _ = nm.sym_eig_range2(state.W)
        i, j = np.unravel_index(np.argmin(lo), lo.shape)
        raise NotCConvex(
            f"initial potential not locally uniformly cost-convex: min "
            f"eigenvalue {lo[i, j]:.3e} at node {(i, j)}, x = {grid.nodes[i, j]}",
            witness=(int(i), int(j), grid.nodes[i, j].copy(), float(lo[i, j])))
    # the discrete gradient of exact continuum-compatible data carries an
    # O(h^2) boundary defect, so the compatibility tolerance scales with it
    init_tol = (sched.init_boundary_tol if sched.init_boundary_tol is not None
                else 1e-7 + 5.0 * grid.dr ** 2)
    if state.max_boundary_G > init_tol:
        raise BoundaryIncompatible(
            f"max |h*(Y(x, grad u0))| = {state.max_boundary_G:.3e} on the "
            f"boundary (tolerance {init_tol:g})")
    inside = float(np.max(spec.target.h(state.tmap)))
    if inside > init_tol:
        raise ImageMismatch(
            f"transport image leaves the closed target: max h* = {inside:.3e}")
    if state.max_boundary_G > sched.boundary_tol:
        # start the flow exactly on the boundary constraint
        _project_boundary(ctx, u, tmap_seed=state.tmap, schedule=sched)
        state = build_state(ctx, u, 0.0, tmap_seed=state.tmap)
    # boundary coverage: every target boundary sample must be near a mapped node
    n_probe = 4 * grid.n_s
    probes = spec.target.boundary_param(np.arange(n_probe) / n_probe)
    mapped = state.tmap[-1]
    d2 = ((probes[:, None, :] - mapped[None, :, :]) ** 2).sum(-1)
    gap = float(np.sqrt(d2.min(axis=1).max()))
    mapped_spacing = float(np.max(nm.norm2(np.diff(
        np.concatenate([mapped, mapped[:1]], axis=0), axis=0))))
    tol = sched.image_tol if sched.image_tol is not None else 4.0 * mapped_spacing
    if gap > tol:
        raise ImageMismatch(
            f"boundary image leaves a gap of {gap:.3e} on the target boundary "
            f"(tolerance {tol:.3e})")
    return state


def initial_linear_scaling(spec, grid):
    """Potential of the affine map source -> target for the inner-product
    cost between a centered disk source and a disk or ellipse target."""
    src, tgt = spec.source, spec.target
    if src.kind != "disk":
        raise ValueError("linear scaling initial data needs a disk source")
    if tgt.kind == "disk":
        ax = ay = tgt.radius / src.radius
        c2 = tgt.center
    elif tgt.kind == "ellipse":
        ax, ay = tgt.a / src.radius, tgt.b / src.radius
        c2 = tgt.center
    else:
        raise ValueError("linear scaling initial data needs a disk or ellipse target")
    d = grid.nodes - src.center
    u0 = (grid.nodes[..., 0] * c2[0] + grid.nodes[..., 1] * c2[1]
          + 0.5 * (ax * d[..., 0] ** 2 + ay * d[..., 1] ** 2))
    return grid.scalar(u0)


def initial_antipodal_reflection(spec, grid):
    """Stationary potential of the point reflection T(x) = c2 - (x - c1)
    between equal-radius disks under the sqrt(1 + |x - y|^2) cost."""
    src, tgt = spec.source, spec.target
    if src.kind != "disk" or tgt.kind != "disk" or not np.isclose(
            src.radius, tgt.radius):
        raise ValueError("antipodal reflection initial data needs equal-radius disks")
    z = 2.0 * (grid.nodes - src.center) - (tgt.center - src.center)
    return grid.scalar(0.5 * np.sqrt(1.0 + z[..., 0] ** 2 + z[..., 1] ** 2))


INITIAL_POTENTIALS = {
    "linear_scaling": initial_linear_scaling,
    "antipodal_reflection": initial_antipodal_reflection,
}


# --- boundary projection -----------------------------------------------------

def _ring_gradient(ctx, b, u_m1, u_m2):
    grid = ctx.grid
    u_r = (3.0 * b - 4.0 * u_m1 + u_m2) / (2.0 * grid.dr)
    u_s = ctx.dmat @ b
    ji = ctx.ring_jinv
    grad = np.empty((grid.n_s, 2))
    grad[:, 0] = ji[:, 0, 0] * u_r + ji[:, 1, 0] * u_s
    grad[:, 1] = ji[:, 0, 1] * u_r + ji[:, 1, 1] * u_s
    return grad


def _oblique_beta(ctx, y, obliqueness_floor):
    """beta at the ring image y; raises ObliquenessLost where beta . nu
    falls below the floor."""
    beta = ctx.spec.cost.oblique_beta(ctx.spec.target, ctx.ring_x, None, y=y)
    obl = float(np.min(np.sum(beta * ctx.ring_nu, axis=-1)))
    if obl < obliqueness_floor:
        raise ObliquenessLost(f"beta . nu = {obl:.3e} on the boundary ring")
    return beta


def _project_boundary(ctx, u_values, tmap_seed=None, schedule=None, chord=None):
    """Newton-update the boundary ring of u_values so that G = 0 there, to
    the schedule's boundary_tol within boundary_cap iterations.

    Mutates u_values in place; returns the Newton iteration count. The LU
    factorization of the ring Jacobian is kept in ``chord`` and reused
    across calls while it keeps converging; it is rebuilt when progress
    slows. Without a chord the call factors afresh. Obliqueness
    beta . nu >= obliqueness_floor is checked at the accepted ring image
    on every call, and at every refactorization. A non-finite ring residual
    raises NewtonStall.
    """
    from scipy.linalg import lu_factor
    from scipy.linalg.lapack import dgetrs

    sched = schedule or Schedule()
    tol = sched.boundary_tol
    grid = ctx.grid
    spec = ctx.spec
    if chord is None:
        chord = Chord()
    b = u_values[-1].copy()
    u_m1, u_m2 = u_values[-2], u_values[-3]
    y_seed = tmap_seed[-1] if tmap_seed is not None else None

    def residual(bv):
        grad = _ring_gradient(ctx, bv, u_m1, u_m2)
        y = spec.cost.invert_Y(ctx.ring_x, grad, seed=y_seed)
        return spec.target.h(y), y

    def refresh_jacobian(y):
        beta = _oblique_beta(ctx, y, sched.obliqueness_floor)
        ji = ctx.ring_jinv
        a_r = (beta[:, 0] * ji[:, 0, 0] + beta[:, 1] * ji[:, 0, 1]) \
            * 3.0 / (2.0 * grid.dr)
        a_s = beta[:, 0] * ji[:, 1, 0] + beta[:, 1] * ji[:, 1, 1]
        jac = a_s[:, None] * ctx.dmat
        jac[np.arange(grid.n_s), np.arange(grid.n_s)] += a_r
        chord.lu = lu_factor(jac)

    g, y = residual(b)
    y_seed = y
    err = float(np.max(np.abs(g)))
    if not np.isfinite(err):
        # dgetrs does not check its right-hand side
        raise NewtonStall(f"non-finite boundary residual (max |G| = {err})")
    iters = 0
    fresh = False
    while err > tol:
        if iters >= sched.boundary_cap:
            raise NewtonStall(
                f"boundary projection stalled at max |G| = {err:.3e}")
        if chord.lu is None:
            refresh_jacobian(y)
            fresh = True
        delta, _ = dgetrs(*chord.lu, -g)
        lam = 1.0
        while True:
            g_new, y_new = residual(b + lam * delta)
            err_new = float(np.max(np.abs(g_new)))
            if err_new < err or err_new <= tol:
                break
            lam *= 0.5
            if lam < 1.0 / 64.0:
                if not fresh:
                    break           # stale factorization: rebuild and retry
                raise NewtonStall(
                    f"boundary projection cannot reduce |G| below {err:.3e}")
        if lam < 1.0 / 64.0 or (not fresh and err_new > 0.25 * err
                                and err_new > tol):
            chord.lu = None         # slow chord progress: force a rebuild
            if lam < 1.0 / 64.0:
                continue
        b = b + lam * delta
        g, y, y_seed = g_new, y_new, y_new
        err = err_new
        iters += 1
    _oblique_beta(ctx, y, sched.obliqueness_floor)
    u_values[-1] = b
    return iters


def enforce_boundary(state, schedule=None):
    """Project the boundary values of u onto G = 0 and refresh the caches."""
    sched = schedule or Schedule()
    u = state.u.copy()
    _project_boundary(state.ctx, u, tmap_seed=state.tmap, schedule=sched)
    return build_state(state.ctx, u, state.t, tmap_seed=state.tmap)


# --- stepping ----------------------------------------------------------------

#: a run's super-step tau is this fraction of snapshot_dt (shortened to land
#: on the next snapshot); on the reference scenario its time error, max |du|
#: of about 7e-6 against a fine-step Euler run at 32x64 and at 64x128, stays
#: far below the O(dr^2) spatial error
SUPER_STEP_FRACTION = 0.25


def policy_dt(state, c_stab=Schedule.c_stab):
    """Forward-Euler stability limit: c_stab h_min^2 / max trace(W^{-1})."""
    tr_winv = (state.W[..., 0, 0] + state.W[..., 1, 1]) / state.det_W
    return c_stab * state.grid.h_min ** 2 / float(np.max(tr_winv))


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


def _rkl2_super_step(state, tau, stages, sched, chord):
    """One RKL2 super-step of length tau; returns the new state and the
    boundary Newton iterations of all stages.

    The recursion runs on the non-boundary rows in increments
    D_j = Y_j - Y_0, so a stationary state stays fixed to roundoff:
    D_j = mu_j D_{j-1} + nu_j D_{j-2} + mu~_j tau L(Y_{j-1}) + gamma~_j tau L(Y_0),
    which for j = 1 is D_1 = mu~_1 tau L(Y_0).
    Each stage is projected (pole, then boundary ring) and rebuilt before
    it feeds the next, so D_j is taken after the projections.
    """
    mu, nu, mu_t, gamma_t = _rkl2_coefficients(stages)
    ctx = state.ctx
    y0 = state.u[:-1]
    tau_l0 = tau * state.rate[:-1]
    d_prev = np.zeros_like(y0)
    d_prev2 = d_prev
    prev = state
    iters = 0
    for j in range(1, stages + 1):
        d = (mu[j] * d_prev + nu[j] * d_prev2
             + (mu_t[j] * tau) * prev.rate[:-1] + gamma_t[j] * tau_l0)
        u = prev.u.copy()               # the ring seeds the projection
        u[:-1] = y0 + d
        u = ctx.grid.apply_pole_projection(u)
        if not np.all(np.isfinite(u)):
            raise _StageFailed(f"non-finite potential at stage {j}")
        iters += _project_boundary(ctx, u, tmap_seed=prev.tmap, schedule=sched,
                                   chord=chord)
        stage = build_state(ctx, u, state.t + tau, tmap_seed=prev.tmap)
        if not stage.spd_ok:
            raise _StageFailed(f"W lost positivity at stage {j} "
                               f"(min eig {stage.min_eig_W:.3e})")
        if not np.all(np.isfinite(stage.rate)):
            raise _StageFailed(f"non-finite rate at stage {j}")
        d_prev2, d_prev = d_prev, u[:-1] - y0
        prev = stage
    return prev, iters


def step(state, tau, schedule=None, chord=None, stages=2):
    """One RKL2 super-step of length tau with ``stages`` stages, each
    followed by the pole and boundary projections; a failing stage rejects
    the super-step, which is retried with half of tau, up to the schedule's
    max_halvings times. With the default two stages, tau = policy_dt(state)
    is stable. ``chord`` carries the projection's LU across the steps of a
    run; without one the projection factors afresh."""
    sched = schedule or Schedule()
    if not state.spd_ok or state.rate is None:
        raise NonPositiveDet("cannot step an invalid state")
    if stages < 2:
        raise ValueError("an RKL2 super-step needs at least 2 stages")
    attempt_tau = float(tau)
    last_fail = "unstable"
    for halving in range(sched.max_halvings + 1):
        try:
            new_state, iters = _rkl2_super_step(state, attempt_tau, stages,
                                                sched, chord)
        except (_StageFailed, NewtonStall, ObliquenessLost) as exc:
            last_fail = str(exc)
            attempt_tau *= 0.5
            continue
        report = StepReport(dt=attempt_tau, boundary_newton_iters=iters,
                            halvings=halving, stages=stages)
        return new_state, report
    raise StepRejected(
        f"step rejected after {sched.max_halvings} halvings (tau = {attempt_tau:.3e}, "
        f"{stages} stages): {last_fail}")


def _record_row(state, dt):
    return (state.t, dt, float(np.max(state.rate)), float(np.min(state.rate)),
            state.mass_err, state.max_boundary_G, state.min_eig_W,
            float(np.max(np.abs(state.rate))))


def run_to_convergence(spec, grid, u0, schedule=None):
    """March the flow until the rate's sup norm falls below stop_tol or the
    horizon is reached. Each step is an RKL2 super-step of
    tau = SUPER_STEP_FRACTION * snapshot_dt (less to land on a snapshot) with
    the fewest stages stable at c_stab; snapshots are taken exactly at
    multiples of snapshot_dt, the stop rule is checked after every
    super-step, and the monitor table has one row per accepted super-step."""
    sched = schedule or Schedule()
    state = initialize(spec, grid, u0, sched)
    chord = Chord()
    snapshots = [Snapshot(0.0, state.u.copy(), state.rate.copy())]
    records = []
    k_snap = 1
    converged = bool(np.max(np.abs(state.rate)) <= sched.stop_tol)
    reason = "stationary at start" if converged else ""
    while not converged and state.t < sched.t_max - 1e-12:
        target_t = min(k_snap * sched.snapshot_dt, sched.t_max)
        tau = min(SUPER_STEP_FRACTION * sched.snapshot_dt, target_t - state.t)
        stages = rkl2_stages(tau, policy_dt(state, sched.c_stab))
        state, rep = step(state, tau, sched, chord=chord, stages=stages)
        records.append(_record_row(state, rep.dt))
        if abs(state.t - target_t) < 1e-9:
            state.t = target_t
            if abs(target_t - k_snap * sched.snapshot_dt) < 1e-9:
                snapshots.append(Snapshot(state.t, state.u.copy(),
                                          state.rate.copy()))
                k_snap += 1
        if records[-1][-1] <= sched.stop_tol:      # stationary_residual
            converged = True
            reason = f"rate below stop_tol at t = {state.t:.4f}"
    if not converged and not reason:
        reason = (f"t_max = {sched.t_max} reached with sup |rate| = "
                  f"{np.max(np.abs(state.rate)):.3e}")
    if abs(snapshots[-1].t - state.t) > 1e-12:
        snapshots.append(Snapshot(state.t, state.u.copy(), state.rate.copy()))
    table = np.array(records, float).reshape(-1, len(STEP_COLUMNS))
    return Trajectory(ctx=state.ctx, snapshots=snapshots, step_records=table,
                      converged=converged, reason=reason)
