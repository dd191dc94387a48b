"""Flow stepping: initialization checks, the boundary projection, RKL2
super-stepping with rejection, and the per-step structural invariants."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from otflow import costs, diagnostics, domains, flow, grid, linearized
from otflow.config import load_scenario
from otflow.errors import (BoundaryIncompatible, NewtonStall, NonPositiveDet,
                           NotCConvex, ObliquenessLost, StepRejected)
from otflow.km_geometry import transport_jacobian
from otflow._numerics import det2, matvec2, norm2, sym_eig_range2


class TestInitialize:
    def test_valid_linear_scaling(self, disk_pair_spec, grid32, stationary_state):
        st = stationary_state
        assert st.valid
        assert st.max_boundary_G <= 1e-10
        np.testing.assert_allclose(st.tmap, 2 * grid32.nodes, atol=1e-10)
        np.testing.assert_allclose(st.W, np.broadcast_to(2 * np.eye(2),
                                                         st.W.shape), atol=1e-9)

    def test_wrong_scaling_is_boundary_incompatible(self, disk_pair_spec, grid32):
        u0 = 0.25 * (grid32.nodes ** 2).sum(-1)
        with pytest.raises(BoundaryIncompatible):
            flow.initialize(disk_pair_spec, grid32, u0)

    def test_concave_bump_is_not_cost_convex(self, disk_pair_spec, grid32):
        r2 = (grid32.nodes ** 2).sum(-1)
        u0 = r2 - 0.5 * r2 ** 2
        with pytest.raises(NotCConvex) as err:
            flow.initialize(disk_pair_spec, grid32, u0)
        i, j, x, eig = err.value.witness
        assert eig < 0
        assert np.linalg.norm(x) > 0.5      # witness sits in the concave zone

    def test_boundary_image_covers_target(self, stationary_state):
        st = stationary_state
        tgt = st.spec.target
        probes = tgt.boundary_param(np.arange(512) / 512)
        mapped = st.tmap[-1]
        gap = np.sqrt(((probes[:, None] - mapped[None]) ** 2).sum(-1).min(1).max())
        assert gap <= 4 * 2 * np.pi * 2.0 / st.grid.n_s

    def test_obliqueness_checked_when_the_ring_needs_no_iteration(
            self, quarter_turned_beta):
        # the stationary ring meets the boundary condition to roundoff, so
        # its projection takes no Newton iteration and checks beta . nu only
        cfg = load_scenario("disk_uniform_stationary").with_overrides(
            grid=(16, 32))
        spec, g = cfg.build_problem()
        with pytest.raises(ObliquenessLost):
            flow.initialize(spec, g, cfg.build_initial(spec, g))


class TestInteriorRHS:
    def test_stationary_disk_rate_vanishes(self, stationary_state):
        assert np.abs(stationary_state.rate).max() <= 1e-10

    def test_stationary_ellipse_rate_vanishes(self):
        src = domains.Disk(1.0)
        tgt = domains.Ellipse(1.2, 0.8)
        spec = domains.ProblemSpec(src, tgt, costs.make_cost("inner_product"),
                                   domains.uniform_density(src),
                                   domains.uniform_density(tgt))
        g = grid.CurvilinearGrid(src, 24, 48)
        st = flow.initialize(spec, g, flow.initial_linear_scaling(spec, g))
        # quadratic potential, exact discrete calculus: residual at roundoff
        assert np.abs(st.rate).max() <= 1e-9
        # the continuum identity behind it: det W equals the density ratio
        np.testing.assert_allclose(det2(st.W), 1.2 * 0.8, atol=1e-9)

    def test_perturbed_density_keeps_unit_mass(self, perturbed_spec):
        g = grid.CurvilinearGrid(perturbed_spec.source, 32, 64)
        st = flow.initialize(perturbed_spec, g,
                             flow.initial_linear_scaling(perturbed_spec, g))
        mass = float(np.sum(g.weights * np.exp(st.rate) * st.ctx.rho_nodes))
        assert abs(mass - 1.0) <= 5 * g.dr ** 2

    def test_invalid_state_raises(self, disk_pair_spec, grid32, stationary_state):
        bad = flow.build_state(stationary_state.ctx,
                               -stationary_state.u, 0.0)
        assert bad.rate is None
        with pytest.raises(NonPositiveDet):
            flow.step(bad, flow.policy_dt(stationary_state))


def _enforce(state):
    """The state with its boundary ring projected onto G = 0."""
    u = state.u.copy()
    flow._project_boundary(state.ctx, u)
    return flow.build_state(state.ctx, u, state.t)


class TestEnforceBoundary:
    def test_stationary_state_is_fixed_point(self, stationary_state):
        out = _enforce(stationary_state)
        assert np.abs(out.u - stationary_state.u).max() <= 1e-12

    def test_interior_bump_leaves_boundary_alone(self, stationary_state):
        st = stationary_state
        r2 = (st.grid.nodes ** 2).sum(-1)
        bump = 1e-3 * np.exp(-r2 / 0.02)     # numerically zero near the boundary
        u = st.u + bump
        out = flow.build_state(st.ctx, u, 0.0)
        projected = _enforce(out)
        assert np.abs(projected.u[-1] - u[-1]).max() <= 1e-13

    def test_small_perturbation_projects_quickly(self, stationary_state, rng):
        st = stationary_state
        u = st.u + 1e-3 * rng.normal(size=st.u.shape) * (st.grid.r < 0.9)[:, None]
        u = st.grid.apply_pole_projection(u)
        iters = flow._project_boundary(st.ctx, u)
        state = flow.build_state(st.ctx, u, 0.0)
        assert state.max_boundary_G <= 1e-10
        assert iters <= 5


def _tilted(state, eps):
    """state.u with an angular wave on the two rings beneath the boundary,
    which tilts the projected ring image, and a smaller one on the boundary
    ring, which also tilts the image a projection starts from (and so the
    Jacobian it factors)."""
    u = state.u.copy()
    s = state.grid.s
    u[-1] += 0.1 * eps * np.cos(2 * np.pi * 3 * s)
    u[-2] += eps * np.sin(2 * np.pi * 3 * s)
    u[-3] += eps * np.sin(2 * np.pi * 3 * s)
    return u


class TestBoundaryProjection:
    def test_obliqueness_checked_when_the_chord_is_reused(self, stationary_state,
                                                          monkeypatch):
        st = stationary_state
        chord = flow.Chord()
        u = _tilted(st, 1e-2)
        flow._project_boundary(st.ctx, u, chord=chord)
        assert chord.lu is not None
        v = u.copy()
        v[-2] += 1e-3 * np.sin(2 * np.pi * 3 * st.grid.s)
        # min beta . nu at the image this ring projects to
        probe = v.copy()
        flow._project_boundary(st.ctx, probe)
        beta = flow.build_state(st.ctx, probe, 0.0).ring_beta()
        obl = float(np.min(np.sum(beta * st.grid.boundary_normals, axis=-1)))
        assert obl < 1.0 - 1e-4          # the tilt is far above roundoff
        # the warm chord converges without a refactorization, so only the
        # check at the accepted image can see the floor
        monkeypatch.setattr(flow, "OBLIQUENESS_FLOOR", obl + 1e-6)
        with pytest.raises(ObliquenessLost):
            flow._project_boundary(st.ctx, v, chord=chord)

    def test_newton_stalls_at_the_iteration_cap(self, stationary_state,
                                                monkeypatch):
        st = stationary_state
        u = _tilted(st, 1e-2)
        assert flow._project_boundary(st.ctx, u.copy()) >= 2
        monkeypatch.setattr(flow, "BOUNDARY_CAP", 1)
        with pytest.raises(NewtonStall, match="stalled"):
            flow._project_boundary(st.ctx, u)

    def test_jacobian_is_formed_from_the_beta_rows(self, stationary_state):
        # the chord's factors are those of diag(c_r ring_dr[-1]) + c_s ring_ds
        # at the ring image the projection starts from
        st = stationary_state
        g = st.grid
        u = _tilted(st, 1e-2)
        state = flow.build_state(st.ctx, u, 0.0)
        chord = flow.Chord()
        flow._project_boundary(st.ctx, u, chord=chord)
        c_r, c_s = flow.ring_beta_rows(g, state.ring_beta())
        jac = np.diag(c_r * g.ring_dr[-1]) + c_s[:, None] * g.ring_ds
        v = np.cos(2 * np.pi * 5 * g.s) + g.s
        np.testing.assert_allclose(scipy.linalg.lu_solve(chord.lu, jac @ v),
                                   v, rtol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_ring_residual_stalls(self, stationary_state, bad):
        st = stationary_state
        u = st.u.copy()
        u[-1, 5] = bad
        with pytest.raises(NewtonStall, match="non-finite"):
            flow._project_boundary(st.ctx, u)

    def test_projection_without_chord_is_order_independent(
            self, disk_pair_spec, grid32, stationary_state):
        fresh = flow.initialize(disk_pair_spec, grid32,
                                flow.initial_linear_scaling(disk_pair_spec, grid32))
        u_fresh = _tilted(fresh, 1e-2)
        iters_fresh = flow._project_boundary(fresh.ctx, u_fresh)
        # other projections on the shared context first, with and without a
        # chord, and a step
        st = stationary_state
        chord = flow.Chord()
        for eps in (3e-2, 1e-2):
            flow._project_boundary(st.ctx, _tilted(st, eps), chord=chord)
        _enforce(flow.build_state(st.ctx, _tilted(st, 2e-2), 0.0))
        flow.step(st, flow.policy_dt(st))
        u = _tilted(st, 1e-2)
        iters = flow._project_boundary(st.ctx, u)
        assert iters == iters_fresh >= 1
        assert u.tobytes() == u_fresh.tobytes()

    @pytest.fixture
    def lu_factors(self, monkeypatch):
        """One entry per ring LU factorization from here on (the boundary
        Newton looks ``scipy.linalg.lu_factor`` up at call time)."""
        import scipy.linalg
        lu_factor = scipy.linalg.lu_factor
        calls = []
        monkeypatch.setattr(scipy.linalg, "lu_factor",
                            lambda *a: calls.append(1) or lu_factor(*a))
        return calls

    def test_slow_chord_is_rebuilt(self, stationary_state, lu_factors):
        # factors from a ring image tilted by 1e-3 cut |G| of waves of 0.05
        # by less than 4x, so they are rebuilt once, at an image the stale
        # step already brought back to obliqueness; factoring at the start,
        # as a projection without a chord does, meets beta . nu < 0
        st = stationary_state
        chord = flow.Chord()
        flow._project_boundary(st.ctx, _tilted(st, 1e-3), chord=chord)
        stale = chord.lu
        lu_factors.clear()
        u = _tilted(st, 0.05)
        assert flow._project_boundary(st.ctx, u, chord=chord) == 6
        assert len(lu_factors) == 1 and chord.lu is not stale
        assert (flow.build_state(st.ctx, u, 0.0).max_boundary_G
                <= flow.BOUNDARY_TOL)
        with pytest.raises(ObliquenessLost):
            flow._project_boundary(st.ctx, _tilted(st, 0.05))

    def test_uphill_chord_backtracks_then_is_rebuilt(self, stationary_state,
                                                     lu_factors):
        # factors of -I send the Newton step uphill: the line search halves
        # it below 1/64, drops it, and the rebuilt factors then take the
        # steps of a projection that factored afresh
        from scipy.linalg import lu_factor
        st = stationary_state
        chord = flow.Chord()
        chord.lu = lu_factor(-np.eye(st.grid.n_s))
        lu_factors.clear()
        u = _tilted(st, 1e-3)
        iters = flow._project_boundary(st.ctx, u, chord=chord)
        assert len(lu_factors) == 1
        fresh = _tilted(st, 1e-3)
        assert iters == flow._project_boundary(st.ctx, fresh) >= 1
        assert u.tobytes() == fresh.tobytes()


def _four_point_ring_grid(scenario, shape):
    """A bundled problem whose grid's boundary-ring d/dr row of the radial
    table is the 4-point one-sided (-2, 9, -18, 11)/(6 dr) instead of the
    built (1, -4, 3)/(2 dr): another consistent stencil."""
    cfg = load_scenario(scenario).with_overrides(grid=shape)
    spec, g = cfg.build_problem()
    n = g.n_r
    row = g._rad[n - 1]                 # column j + 2 is ring j
    row[:] = 0.0
    row[n - 2:n + 2] = np.array([-2.0, 9.0, -18.0, 11.0]) / (6.0 * g.dr)
    return cfg, spec, g


class TestRingStencilFollowsTheTable:
    """The boundary Newton and the stage predictor read the ring's d/dr
    from the grid's radial table, so a different table row changes both."""

    @pytest.mark.parametrize("scenario,shape", [
        ("disk_cosine_perturbed", (32, 64)), ("offset_disks_sqrt", (16, 32))])
    def test_newton_zeroes_G_of_the_table_gradient(self, scenario, shape):
        cfg, spec, g = _four_point_ring_grid(scenario, shape)
        ctx = flow.FlowContext(spec, g)
        u = g.apply_pole_projection(cfg.build_initial(spec, g))
        u[-1] += 1e-6 * np.cos(2 * np.pi * 3 * g.s)
        u[-2] += 1e-5 * np.sin(2 * np.pi * 3 * g.s)
        flow._project_boundary(ctx, u)
        # G on the ring gradient of scalar_calculus, which reads the table
        assert flow.build_state(ctx, u, 0.0).max_boundary_G <= flow.BOUNDARY_TOL

    def test_predictor_keeps_the_table_d_dr(self, monkeypatch):
        cfg, spec, g = _four_point_ring_grid("disk_cosine_perturbed", (32, 64))
        st = flow.initialize(spec, g, cfg.build_initial(spec, g))
        row = g._rad[g.n_r - 1, 2:]
        project = flow._project_stage
        seen = []

        def record(ctx, u, t, chord):
            seen.append(u.copy())
            out = project(ctx, u, t, chord)
            seen.append(out[0].u)
            return out

        monkeypatch.setattr(flow, "_project_stage", record)
        tau = 10.0 * flow.policy_dt(st)
        stages = flow.rkl2_stages(tau, flow.policy_dt(st))
        flow._rkl2_super_step(st, tau, stages, flow.Chord())
        prevs = [st.u] + seen[1::2]
        for raw, prev in zip(seen[::2], prevs):
            # the interior rows' share of d/dr moved far above roundoff, and
            # the predicted ring cancels it to roundoff
            moved = np.max(np.abs(row[:-1] @ (raw[:-1] - prev[:-1])))
            roundoff = 1e-14 * np.sum(np.abs(row)) * np.max(np.abs(raw))
            assert moved > 1e6 * roundoff
            assert np.max(np.abs(row @ raw - row @ prev)) <= roundoff


class TestStep:
    def test_stationary_step_is_identity(self, stationary_state):
        for dt in (flow.policy_dt(stationary_state),
                   0.5 * flow.policy_dt(stationary_state)):
            out, rep = flow.step(stationary_state, dt)
            assert np.abs(out.u - stationary_state.u).max() <= 1e-12
            assert rep.halvings == 0

    def test_one_stage_is_refused(self, stationary_state):
        with pytest.raises(ValueError, match="at least 2 stages"):
            flow.step(stationary_state, flow.policy_dt(stationary_state),
                      stages=1)

    def test_oversized_step_gets_rejected(self, perturbed_spec, monkeypatch):
        g = grid.CurvilinearGrid(perturbed_spec.source, 24, 48)
        st = flow.initialize(perturbed_spec, g,
                             flow.initial_linear_scaling(perturbed_spec, g))
        big = 100.0 * flow.policy_dt(st)
        monkeypatch.setattr(flow, "MAX_HALVINGS", 0)
        with pytest.raises(StepRejected):
            for _ in range(60):
                st, _ = flow.step(st, big)

    def test_rejection_then_halving_recovers(self, perturbed_spec):
        g = grid.CurvilinearGrid(perturbed_spec.source, 24, 48)
        st = flow.initialize(perturbed_spec, g,
                             flow.initial_linear_scaling(perturbed_spec, g))
        big = 100.0 * flow.policy_dt(st)
        seen_halving = False
        for _ in range(40):
            st, rep = flow.step(st, big)
            seen_halving = seen_halving or rep.halvings > 0
        assert seen_halving and st.valid


class TestSuperStep:
    """The RKL2 integrator: its stage rule, its order, and its rejection."""

    @pytest.mark.parametrize("ratio", [0.3, 1.0, 1.0 + 1e-9, 2.5, 3.5, 27.0,
                                       156.25, 1e4])
    def test_stage_rule_is_minimal(self, ratio):
        dt_fe = 2e-4
        tau = ratio * dt_fe
        s = flow.rkl2_stages(tau, dt_fe)

        def limit(n):
            return (n * n + n - 2) / 4.0 * dt_fe

        assert s >= 2 and limit(s) >= tau
        assert s == 2 or limit(s - 1) < tau

    def test_multi_stage_step_keeps_stationary_state(self, stationary_state):
        tau = 20.0 * flow.policy_dt(stationary_state)
        stages = flow.rkl2_stages(tau, flow.policy_dt(stationary_state))
        assert stages >= 9
        out, rep = flow.step(stationary_state, tau, stages=stages)
        assert np.abs(out.u - stationary_state.u).max() <= 1e-12
        assert (rep.halvings, rep.stages, rep.dt) == (0, stages, tau)

    def test_second_order_in_tau(self, perturbed_spec):
        g = grid.CurvilinearGrid(perturbed_spec.source, 16, 32)
        start = flow.initialize(perturbed_spec, g,
                                flow.initial_linear_scaling(perturbed_spec, g))
        t_end = 0.25

        def integrate(n):
            st, tau, chord = start, t_end / n, flow.Chord()
            for _ in range(n):
                stages = flow.rkl2_stages(tau, flow.policy_dt(st))
                st, rep = flow.step(st, tau, chord=chord, stages=stages)
                assert rep.halvings == 0
            return st.u

        reference = integrate(64)           # tau / 8 of the finest below
        errs = [np.abs(integrate(n) - reference).max() for n in (2, 4, 8)]
        assert errs[-1] > 1e-8                  # above the reference's error
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 3.5

    def test_failing_stage_halves_tau_and_recovers(self, perturbed_spec,
                                                    monkeypatch):
        g = grid.CurvilinearGrid(perturbed_spec.source, 16, 32)
        st = flow.initialize(perturbed_spec, g,
                             flow.initial_linear_scaling(perturbed_spec, g))
        tau = 10.0 * flow.policy_dt(st)
        stages = flow.rkl2_stages(tau, flow.policy_dt(st))
        expected, _ = flow.step(st, 0.5 * tau, stages=stages)
        project = flow._project_boundary
        calls = []

        def stall_at_stage_3(*args, **kwargs):
            calls.append(len(calls) + 1)
            if len(calls) == 3:
                raise NewtonStall("stage 3 stalls")
            return project(*args, **kwargs)

        monkeypatch.setattr(flow, "_project_boundary", stall_at_stage_3)
        out, rep = flow.step(st, tau, stages=stages)
        assert (rep.halvings, rep.dt, rep.stages) == (1, 0.5 * tau, stages)
        assert len(calls) == 3 + stages       # the rejected attempt, then all
        assert out.valid and out.t == st.t + 0.5 * tau
        assert out.u.tobytes() == expected.u.tobytes()


def _perturbed_16x32():
    cfg = load_scenario("disk_cosine_perturbed").with_overrides(grid=(16, 32))
    spec, g = cfg.build_problem()
    return spec, g, cfg.build_initial(spec, g), cfg.build_schedule()


def _stage_jacobians(st):
    """The forward- and central-difference Jacobians of the stage map
    v -> rate[:-1] at st, one column per node below the ring, from
    ``flow.stage_jvp`` along the unit vectors: the forward columns first and
    in order, through one chord, then the backward ones through another."""
    shape = st.u[:-1].shape
    units = np.eye(st.u[:-1].size).reshape((-1,) + shape)
    chord = flow.Chord()
    forward = np.array([flow.stage_jvp(st, chord, e).ravel() for e in units]).T
    chord = flow.Chord()
    backward = np.array([flow.stage_jvp(st, chord, -e).ravel()
                         for e in units]).T
    return forward, 0.5 * (forward - backward)


@pytest.fixture(scope="module")
def perturbed_jacobians_16x32():
    """The 16x32 perturbed problem, its initial state and the forward and
    central-difference Jacobians of its stage map, pole and boundary
    projections included."""
    problem = _perturbed_16x32()
    spec, g, u0, _ = problem
    st = flow.initialize(spec, g, u0)
    return (problem, st) + _stage_jacobians(st)


@pytest.fixture(scope="module")
def dense_stiffest_16x32(perturbed_jacobians_16x32):
    """The 16x32 perturbed problem, its initial state and the stiffest
    eigenvalue of the dense forward-difference Jacobian of its stage map."""
    problem, st, forward, _ = perturbed_jacobians_16x32
    return problem, st, float(np.min(np.linalg.eigvals(forward).real))


@pytest.fixture(scope="module")
def sqrt_jacobian_16x32():
    """``offset_disks_sqrt`` at 16x32, run to t = 0.3 on its own cadence:
    the state there and the central-difference Jacobian of its stage map."""
    cfg = load_scenario("offset_disks_sqrt").with_overrides(grid=(16, 32))
    spec, g = cfg.build_problem()
    sched = dataclasses.replace(cfg.build_schedule(), t_max=0.3)
    st = flow.run_to_convergence(spec, g, cfg.build_initial(spec, g),
                                 sched).final_state()
    return st, _stage_jacobians(st)[1]


@pytest.fixture(params=["disk_cosine_perturbed", "offset_disks_sqrt"])
def central_jacobian_16x32(request):
    """(scenario, state, central-difference stage Jacobian) of the reference
    cost at t = 0 and of the general cost at t = 0.3."""
    if request.param == "disk_cosine_perturbed":
        _, st, _, jac = request.getfixturevalue("perturbed_jacobians_16x32")
    else:
        st, jac = request.getfixturevalue("sqrt_jacobian_16x32")
    return request.param, st, jac


def _slaved_modes(g):
    """The real angular modes the pole projection slaves below the ring:
    on ring i every mode k above pole_kmax[i], two real modes each but the
    Nyquist one."""
    half = g.n_s // 2
    return sum(2 * (half - k) - 1 for k in g.pole_kmax[:-1] if k < half)


def _pole_plan_basis(g):
    """(B, C) with P = B C and C B = I for the pole projection P on the rows
    below the ring. C reads each ring's free real angular modes, k up to
    pole_kmax, in an orthonormal Fourier basis; B is P of that basis, each
    free mode with the modes it slaves."""
    j = np.arange(g.n_s)
    modes = [(k, np.cos(2 * np.pi * k * j / g.n_s))
             for k in range(g.n_s // 2 + 1)]
    modes += [(k, np.sin(2 * np.pi * k * j / g.n_s))
              for k in range(1, g.n_s // 2)]
    free = []
    for i in range(g.n_r - 1):
        for k, wave in modes:
            if k <= g.pole_kmax[i]:
                f = np.zeros((g.n_r, g.n_s))
                f[i] = wave / np.linalg.norm(wave)
                free.append(f)
    b = np.array([g.apply_pole_projection(f)[:-1].ravel() for f in free]).T
    c = np.array([f[:-1].ravel() for f in free])
    return b, c


#: per scenario of ``central_jacobian_16x32``:
#: - the central differences' error relative to max |J|: |J.1| and the gap
#:   to L measured 1.2e-8 and 1.6e-8 of it on the reference cost, 1.3e-4
#:   and 1.7e-4 on the general cost, where both fall as eps^2 (the gap to L
#:   4.4e2, 4.2 and 4.2e-2 at eps = 1e-5, 1e-6 and 1e-7, max |L| 2.4e4);
#: - |lambda| of the constant mode through the pole plan, measured 1.7e-6
#:   and 0.23;
#: - lambda_max and the four slowest eigenvalues after the constant mode
#:   (an orthonormal compression Q^T J Q onto the range of P keeps the slow
#:   modes but reads lambda_max = -604.8 on the reference cost).
_SPECTRA = {
    "disk_cosine_perturbed": (1e-7, 1e-5, -614.81395,
                              (1.694385, 1.698489, 4.679327, 4.679340)),
    "offset_disks_sqrt": (1e-3, 0.5, -40825.181,
                          (22.427618, 40.497317, 77.025026, 86.582517)),
}


class TestStageJacobian:
    """The stepper's own Jacobian at 16x32, its columns central differences
    of ``flow.stage_jvp``: J = J P, so its spectrum is read through the pole
    plan."""

    def test_constants_are_in_the_kernel(self, central_jacobian_16x32):
        name, st, jac = central_jacobian_16x32
        fd_tol = _SPECTRA[name][0]
        assert np.abs(jac.sum(axis=1)).max() <= fd_tol * np.abs(jac).max()

    def test_null_space_is_the_slaved_modes_and_the_constant(
            self, perturbed_jacobians_16x32):
        # on the reference cost only: on the general cost the difference
        # error spreads the null eigenvalues up to |lambda| ~ 0.23; here
        # they stay below 3.6e-6, and the slowest mode is 1.694
        _, st, _, jac = perturbed_jacobians_16x32
        lam = np.abs(np.linalg.eigvals(jac))
        assert np.count_nonzero(lam < 1e-3) == _slaved_modes(st.grid) + 1 == 182

    def test_spectrum_through_the_pole_plan(self, central_jacobian_16x32):
        name, st, jac = central_jacobian_16x32
        _, const_bound, lam_max, slowest = _SPECTRA[name]
        b, c = _pole_plan_basis(st.grid)
        assert c.shape == (299, 480)
        np.testing.assert_allclose(c @ b, np.eye(len(c)), atol=1e-13)
        # J = J B C: its eigenvalues that are not zero are those of C J B
        lam = np.linalg.eigvals(c @ jac @ b)
        lam = lam[np.argsort(np.abs(lam))]
        assert abs(lam[0]) <= const_bound
        assert lam.real.min() == pytest.approx(lam_max, rel=1e-6)
        np.testing.assert_allclose(-lam[1:5].real, slowest, rtol=1e-5)

    def test_J_is_the_linearized_operator(self, central_jacobian_16x32):
        # on the rows that do not read the ring and the columns the pole
        # projection leaves alone, J is criterion 11's L entry by entry, so
        # that criterion speaks about the stepper's own operator
        name, st, jac = central_jacobian_16x32
        g = st.grid
        coeffs = linearized.build_coeffs(st)
        units = np.eye(g.n_r * g.n_s).reshape(-1, g.n_r, g.n_s)
        cols = slice(g._pole_cut * g.n_s, (g.n_r - 1) * g.n_s)
        op_l = np.array([linearized.apply_L(coeffs, g, e, e, 1.0)[:-2].ravel()
                         for e in units[cols]]).T
        gap = np.abs(jac[:(g.n_r - 2) * g.n_s, cols] - op_l).max()
        assert gap <= _SPECTRA[name][0] * np.abs(op_l).max()


class TestSpectralStageCount:
    """The run's stage count from the measured stiffest eigenvalue."""

    def test_power_iteration_matches_dense_jacobian(self, dense_stiffest_16x32):
        (spec, g, u0, sched), st, lam_dense = dense_stiffest_16x32
        lam, _ = flow.stiffest_eigenvalue(st, flow.Chord())
        assert abs(lam - lam_dense) <= 0.03 * abs(lam_dense)
        # the first super-step of the run from this state
        traj = flow.run_to_convergence(spec, g, u0,
                                       dataclasses.replace(sched, t_max=0.125))
        assert (flow.policy_dt(st) < traj.step_dt_fe[0]
                <= 2.0 / abs(lam_dense))

    def test_failed_estimate_falls_back_to_policy_dt(self, monkeypatch):
        spec, g, u0, sched = _perturbed_16x32()
        project, estimate = flow._project_boundary, flow.stiffest_eigenvalue
        calls, lams = [], []

        def stall_the_first_product(*args, **kwargs):
            # call 1 is initialize's projection, call 2 the estimate's
            # first perturbed stage
            calls.append(1)
            if len(calls) == 2:
                raise NewtonStall("the perturbed stage stalls")
            return project(*args, **kwargs)

        def recorded(*args):
            out = estimate(*args)
            lams.append(out[0])
            return out

        monkeypatch.setattr(flow, "_project_boundary", stall_the_first_product)
        monkeypatch.setattr(flow, "stiffest_eigenvalue", recorded)
        traj = flow.run_to_convergence(
            spec, g, u0, dataclasses.replace(sched, t_max=sched.snapshot_dt))
        assert lams == [None]
        assert traj.step_dt_fe[0] == flow.policy_dt(flow.initialize(spec, g, u0))

    def test_stage_jvp_fails_where_W_does(self, dense_stiffest_16x32):
        _, st, _ = dense_stiffest_16x32
        v = np.zeros(st.u[:-1].shape)
        v[8, 5] = -1e6          # u dips by 1 at one node, far from the ring
        assert flow.stage_jvp(st, flow.Chord(), v) is None

    def test_pole_does_not_set_the_stiffness(self, dense_stiffest_16x32):
        # the inner rings' angular caps add about 183 per unit of
        # grid._ANGULAR_BUDGET to |lambda| (890.5 at a budget of 2.5,
        # 614.8 at 1.0); this bound keeps them from silently taking over
        lam_dense = dense_stiffest_16x32[-1]
        assert abs(lam_dense) <= 700.0

    def test_perturbed_run_takes_fewer_evaluations(self, monkeypatch):
        spec, g, u0, sched = _perturbed_16x32()
        builds = []
        stage_rule = []
        build_state, step = flow.build_state, flow.step

        def counting_build_state(*args, **kwargs):
            builds.append(1)
            return build_state(*args, **kwargs)

        def checked_step(state, tau, chord, stages):
            stage_rule.append((stages, flow.rkl2_stages(
                tau, flow.policy_dt(state))))
            return step(state, tau, chord=chord, stages=stages)

        monkeypatch.setattr(flow, "build_state", counting_build_state)
        monkeypatch.setattr(flow, "step", checked_step)
        traj = flow.run_to_convergence(spec, g, u0, sched)
        assert traj.converged
        reports = traj.step_reports
        assert len(reports) == len(traj.step_dt_fe) == len(traj.step_records)
        assert sum(rep.halvings for rep in reports) == 0
        assert [rep.stages for rep in reports] == [s for s, _ in stage_rule]
        assert all(s <= rule for s, rule in stage_rule)
        # every build but initialize's is a stage or a product of the estimate
        evaluations = len(builds) - 1
        assert evaluations <= 0.8 * sum(rule for _, rule in stage_rule)
        assert evaluations < 1977       # stages of this run with policy_dt alone


class TestGradedSuperStep:
    """The run's super-step grows as sup |rate| decays."""

    def test_thresholds_cap_and_floor(self):
        dt, r0 = 0.125, 3.7
        assert flow.graded_tau(dt, 10.0 * r0, r0) == dt / 4     # floor
        assert flow.graded_tau(dt, r0, r0) == dt / 4
        assert flow.graded_tau(dt, r0 / 4 * (1 + 1e-12), r0) == dt / 4
        assert flow.graded_tau(dt, r0 / 4, r0) == dt / 2
        assert flow.graded_tau(dt, r0 / 16 * (1 + 1e-12), r0) == dt / 2
        assert flow.graded_tau(dt, r0 / 16, r0) == dt
        assert flow.graded_tau(dt, 1e-9 * r0, r0) == dt          # cap
        assert flow.graded_tau(dt, 0.0, r0) == dt

    def test_graded_run_keeps_the_worst_time_error(self, monkeypatch):
        spec, g, u0, sched = _perturbed_16x32()
        sched = dataclasses.replace(sched, t_max=2.3)     # not on the cadence
        graded = flow.graded_tau

        def run(tau_rule):
            monkeypatch.setattr(flow, "graded_tau", tau_rule)
            return flow.run_to_convergence(spec, g, u0, sched)

        reference = run(lambda dt, rate, rate0: dt / 64)
        pinned = run(lambda dt, rate, rate0: dt / 4)
        traj = run(graded)
        assert not traj.converged and traj.snapshots[-1].t == 2.3
        dt = sched.snapshot_dt
        reports = traj.step_reports
        assert sum(rep.halvings for rep in reports) == 0
        assert all(rep.dt in (dt / 4, dt / 2, dt) for rep in reports[:-1])
        assert reports[-1].dt == pytest.approx(2.3 - 2.25)    # to t_max
        assert {rep.dt for rep in reports} >= {dt / 4, dt / 2, dt}
        assert len(reports) < 0.7 * len(pinned.step_reports)
        times = traj.times()
        np.testing.assert_allclose(times[:-1], dt * np.arange(len(times) - 1),
                                   rtol=0, atol=1e-12)

        def worst(tr):
            return max(np.abs(s.u - reference.snapshots[
                reference.snapshot_index_at_time(s.t)].u).max()
                for s in tr.snapshots)

        # both 6.47e-6, set at t = 0.125 before the step grows
        assert worst(traj) <= 1.01 * worst(pinned)
        assert worst(traj) <= 0.01 * g.dr ** 2


class TestRunToConvergence:
    def test_stationary_start_exits_immediately(self, disk_pair_spec, grid32):
        u0 = flow.initial_linear_scaling(disk_pair_spec, grid32)
        traj = flow.run_to_convergence(disk_pair_spec, grid32, u0,
                                       flow.Schedule(stop_tol=1e-8, t_max=2.0))
        assert traj.converged
        assert traj.step_records.shape[0] == 0
        assert len(traj.snapshots) == 1

    def test_perturbed_run_converges(self, perturbed_spec):
        g = grid.CurvilinearGrid(perturbed_spec.source, 24, 48)
        sched = flow.Schedule(stop_tol=2e-3, t_max=8.0, snapshot_dt=0.25)
        traj = flow.run_to_convergence(
            perturbed_spec, g, flow.initial_linear_scaling(perturbed_spec, g),
            sched)
        assert traj.converged
        final = np.abs(traj.snapshots[-1].rate).max()
        assert final <= 10 * sched.stop_tol

    def test_short_horizon_reports_no_convergence(self, perturbed_spec):
        g = grid.CurvilinearGrid(perturbed_spec.source, 24, 48)
        sched = flow.Schedule(stop_tol=1e-10, t_max=0.1, snapshot_dt=0.05)
        traj = flow.run_to_convergence(
            perturbed_spec, g, flow.initial_linear_scaling(perturbed_spec, g),
            sched)
        assert not traj.converged
        assert "t_max" in traj.reason
        assert len(traj.snapshots) >= 2       # partial trajectory returned

    def test_one_eigenvalue_estimate_per_interval(self, monkeypatch):
        spec, g, u0, sched = _perturbed_16x32()
        sched = dataclasses.replace(sched, stop_tol=1e-15, t_max=0.6)
        estimate = flow.stiffest_eigenvalue
        calls = []

        def counting_estimate(*args):
            calls.append(args[0].t)
            return estimate(*args)

        monkeypatch.setattr(flow, "stiffest_eigenvalue", counting_estimate)
        traj = flow.run_to_convergence(spec, g, u0, sched)
        # intervals end at 0.125, 0.25, 0.375, 0.5 and t_max = 0.6
        assert not traj.converged
        assert len(calls) == 5 == len(traj.snapshots) - 1
        assert calls == [s.t for s in traj.snapshots[:-1]]
        ts = traj.times()
        assert np.diff(ts).min() > flow.TIME_TOL
        assert list(ts[:-1]) == [k * sched.snapshot_dt for k in range(5)]
        assert ts[-1] == sched.t_max

    def test_convergence_inside_an_interval_takes_one_snapshot(self):
        spec, g, u0, _ = _perturbed_16x32()
        sched = flow.Schedule(stop_tol=5e-3, t_max=8.0, snapshot_dt=0.5)
        traj = flow.run_to_convergence(spec, g, u0, sched)
        assert traj.converged
        t_stop = traj.step_column("t")[-1]
        assert t_stop % sched.snapshot_dt > flow.TIME_TOL    # off the cadence
        ts = traj.times()
        n = int(t_stop // sched.snapshot_dt)
        assert list(ts) == [k * sched.snapshot_dt for k in range(n + 1)] + [t_stop]
        assert traj.step_column("stationary_residual")[-1] <= sched.stop_tol
        assert f"t = {t_stop:.4f}" in traj.reason

    def test_snapshot_dt_at_the_time_tolerance_is_refused(self):
        spec, g, u0, _ = _perturbed_16x32()
        for dt in (1e-9, flow.MIN_SNAPSHOT_DT):
            with pytest.raises(ValueError, match="snapshot_dt"):
                flow.run_to_convergence(spec, g, u0, flow.Schedule(
                    t_max=50 * dt, snapshot_dt=dt))

    def test_snapshots_on_exact_cadence(self, ref_run_small):
        ts = ref_run_small.times()
        assert np.allclose(ts[:-1] / 0.05, np.round(ts[:-1] / 0.05), atol=1e-9)

    def test_run_leaves_the_context_unchanged(self, perturbed_spec):
        g = grid.CurvilinearGrid(perturbed_spec.source, 16, 32)
        keys = set(vars(flow.FlowContext(perturbed_spec, g)))
        sched = flow.Schedule(stop_tol=1e-15, t_max=0.05, snapshot_dt=0.05)
        traj = flow.run_to_convergence(
            perturbed_spec, g, flow.initial_linear_scaling(perturbed_spec, g),
            sched)
        assert len(traj.step_records) > 0
        assert set(vars(traj.ctx)) == keys

    def test_determinism(self, perturbed_spec):
        g = grid.CurvilinearGrid(perturbed_spec.source, 16, 32)
        sched = flow.Schedule(stop_tol=1e-15, t_max=0.3, snapshot_dt=0.1)
        runs = [flow.run_to_convergence(
            perturbed_spec, g, flow.initial_linear_scaling(perturbed_spec, g),
            sched) for _ in range(2)]
        assert np.array_equal(runs[0].step_records, runs[1].step_records)
        assert np.array_equal(runs[0].snapshots[-1].u, runs[1].snapshots[-1].u)

    def test_monitor_rows_match_an_eager_recomputation(self, perturbed_spec,
                                                       monkeypatch):
        g = grid.CurvilinearGrid(perturbed_spec.source, 16, 32)
        sched = flow.Schedule(stop_tol=1e-15, t_max=0.3, snapshot_dt=0.1)
        record_row = flow._record_row
        rows = []

        def eager_row(state, dt):
            row = record_row(state, dt)
            lo, _ = sym_eig_range2(state.W)
            h_ring = perturbed_spec.target.h(state.tmap[-1])
            mass = float(np.sum(g.weights * np.exp(state.rate)
                                * state.ctx.rho_nodes))
            rows.append((row, (abs(mass - state.ctx.target_mass),
                               float(np.max(np.abs(h_ring))),
                               float(np.min(lo)))))
            return row

        monkeypatch.setattr(flow, "_record_row", eager_row)
        traj = flow.run_to_convergence(
            perturbed_spec, g, flow.initial_linear_scaling(perturbed_spec, g),
            sched)
        assert len(rows) == len(traj.step_records) > 0
        for row, eager in rows:
            assert np.array(row[4:7]).tobytes() == np.array(eager).tobytes()


class TestStructuralInvariants:
    """Per-step identities of the discrete flow on the small reference run."""

    def test_mass_balance_every_step(self, ref_run_32):
        mass_err = ref_run_32.step_column("mass_balance_err")
        h2 = ref_run_32.grid.dr ** 2
        assert mass_err.max() <= 0.05 * h2

    def test_extrema_bracket_zero(self, ref_run_32):
        sup_theta = ref_run_32.step_column("sup_theta")
        inf_theta = ref_run_32.step_column("inf_theta")
        h2 = ref_run_32.grid.dr ** 2
        assert sup_theta.min() >= -1e-8 - 0.5 * h2    # sup theta >= -tol
        assert inf_theta.max() <= 1e-8 + 0.5 * h2     # inf theta <= +tol

    def test_running_extrema_monotone(self, ref_run_32):
        tol = 1e-6 + 0.5 * ref_run_32.grid.dr ** 2
        assert np.diff(ref_run_32.step_column("sup_theta")).max() <= tol
        assert np.diff(ref_run_32.step_column("inf_theta")).min() >= -tol

    def test_transport_jacobian_chain_identity(self, ref_run_32):
        # |det D_x T| |det C| = det W, with D_x T by differencing the cached
        # transport-map field (independent of the identity's derivation)
        state = ref_run_32.state_at(4)
        dt_field = transport_jacobian(state)
        C = state.spec.cost.cross_hessian(state.grid.nodes, state.tmap)
        lhs = np.abs(det2(dt_field)) * np.abs(det2(C))
        interior = (state.grid.r > 0.1)[:, None] & (state.grid.r < 0.95)[:, None]
        interior = np.broadcast_to(interior, lhs.shape)
        err = np.abs(lhs - state.det_W)[interior].max()
        assert err <= 5 * state.grid.dr

    def test_pushforward_identity(self, ref_run_32):
        # e^rate rho = |det D_x T| rho*(T) pointwise to O(h)
        state = ref_run_32.state_at(4)
        dt_field = transport_jacobian(state)
        lhs = np.exp(state.rate) * state.ctx.rho_nodes
        rhs = np.abs(det2(dt_field)) * state.spec.rho_star(state.tmap)
        interior = np.broadcast_to(
            (state.grid.r > 0.1)[:, None] & (state.grid.r < 0.95)[:, None],
            lhs.shape)
        scale = np.abs(lhs).max()
        assert np.abs(lhs - rhs)[interior].max() <= 5 * state.grid.dr * scale

    def test_boundary_chi_positive(self, ref_run_32):
        state = ref_run_32.state_at(len(ref_run_32.snapshots) // 2)
        assert diagnostics.wbeta_alignment(state).min_chi > 0.5

    def test_wbeta_parallel_to_normal(self, ref_run_32):
        state = ref_run_32.state_at(len(ref_run_32.snapshots) // 2)
        wbeta = matvec2(state.W[-1], state.ring_beta())
        nu = state.grid.boundary_normals
        sin = np.abs(wbeta[:, 0] * nu[:, 1] - wbeta[:, 1] * nu[:, 0]) / norm2(wbeta)
        assert sin.max() <= 1e-8


def _reference_state_fields(ctx, u):
    """(grad u, Y, W, det W, rate) of a potential written out node-major:
    the AoS calculus, the twist inverse, W = D^2 u - D_xx c as a (.., 2, 2)
    difference, its 2x2 determinant, and the log formula of the rate."""
    g, spec = ctx.grid, ctx.spec
    cost = spec.cost
    grad, hess = g.scalar_calculus(u)
    tmap = cost.invert_Y(g.nodes, grad)
    W = hess - cost.hess_xx(g.nodes, tmap)
    det_w = det2(W)
    log_b = ctx.log_rho - np.log(spec.rho_star(tmap))
    if not cost.cross_identity:
        log_b = log_b + np.log(cost.cross_det(g.nodes, tmap))
    return grad, tmap, W, det_w, np.log(det_w) - log_b


@pytest.mark.parametrize("scenario", ["disk_cosine_perturbed",
                                      "disk_uniform_stationary",
                                      "ellipse_target", "offset_disks_sqrt"])
def test_stage_state_matches_the_written_out_formulas_bitwise(scenario):
    """The plane-major state assembly reproduces the node-major formulas bit
    for bit, at the initial state and at a perturbed stage."""
    cfg = load_scenario(scenario).with_overrides(grid=(16, 32))
    spec, g = cfg.build_problem()
    st = flow.initialize(spec, g, cfg.build_initial(spec, g))
    u = st.u.copy()
    i, j = np.indices(u[:-1].shape)
    u[:-1] += 1e-4 * np.cos(2 * np.pi * 3 * j / g.n_s) * (i + 1) / g.n_r
    stage, _ = flow._project_stage(st.ctx, u, 0.0, flow.Chord())
    for state in (st, stage):
        assert state.rate is not None
        ref = _reference_state_fields(state.ctx, state.u)
        got = (state.grad_u, state.tmap, state.W, state.det_W, state.rate)
        for name, new, old in zip(("grad_u", "tmap", "W", "det_W", "rate"),
                                  got, ref):
            assert new.shape == old.shape, name
            assert np.array_equal(new, old), name


def test_state_W_is_the_contiguous_assembly_of_its_planes(stationary_state):
    x = stationary_state.grid.nodes
    st = flow.build_state(stationary_state.ctx,
                          stationary_state.u + 1e-3 * x[..., 0] ** 3, 0.0)
    w, W = st.w_planes, st.W
    assert w.shape == (3,) + st.u.shape and w.flags.c_contiguous
    assert W.shape == st.u.shape + (2, 2) and W.flags.c_contiguous
    for (a, b), k in (((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 2)):
        assert W[..., a, b].tobytes() == w[k].tobytes()
