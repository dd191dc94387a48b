"""Flow stepping: initialization checks, the boundary projection, RKL2
super-stepping with rejection, and the per-step structural invariants."""

import numpy as np
import pytest

from otflow import costs, diagnostics, domains, flow, grid
from otflow.errors import (BoundaryIncompatible, NewtonStall, NonPositiveDet,
                           NotCConvex, ObliquenessLost, StepRejected)
from otflow.km_geometry import transport_jacobian
from otflow._numerics import det2, matvec2, norm2


class TestInitialize:
    def test_valid_linear_scaling(self, disk_pair_spec, grid32, stationary_state):
        st = stationary_state
        assert st.valid
        assert st.max_boundary_G <= 1e-10
        np.testing.assert_allclose(st.tmap, 2 * grid32.nodes, atol=1e-10)
        np.testing.assert_allclose(st.W, np.broadcast_to(2 * np.eye(2),
                                                         st.W.shape), atol=1e-9)

    def test_wrong_scaling_is_boundary_incompatible(self, disk_pair_spec, grid32):
        u0 = grid32.scalar(0.25 * (grid32.nodes ** 2).sum(-1))
        with pytest.raises(BoundaryIncompatible):
            flow.initialize(disk_pair_spec, grid32, u0)

    def test_concave_bump_is_not_cost_convex(self, disk_pair_spec, grid32):
        r2 = (grid32.nodes ** 2).sum(-1)
        u0 = grid32.scalar(r2 - 0.5 * r2 ** 2)
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


class TestInteriorRHS:
    def test_stationary_disk_rate_vanishes(self, stationary_state):
        rate = flow.interior_rhs(stationary_state)
        assert np.abs(rate.data).max() <= 1e-10

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
        with pytest.raises(NonPositiveDet):
            flow.interior_rhs(bad)


class TestEnforceBoundary:
    def test_stationary_state_is_fixed_point(self, stationary_state):
        out = flow.enforce_boundary(stationary_state)
        assert np.abs(out.u - stationary_state.u).max() <= 1e-12

    def test_interior_bump_leaves_boundary_alone(self, stationary_state):
        st = stationary_state
        r2 = (st.grid.nodes ** 2).sum(-1)
        bump = 1e-3 * np.exp(-r2 / 0.02)     # numerically zero near the boundary
        u = st.u + bump
        out = flow.build_state(st.ctx, u, 0.0)
        projected = flow.enforce_boundary(out)
        assert np.abs(projected.u[-1] - u[-1]).max() <= 1e-13

    def test_small_perturbation_projects_quickly(self, stationary_state, rng):
        st = stationary_state
        u = st.u + 1e-3 * rng.normal(size=st.u.shape) * (st.grid.r < 0.9)[:, None]
        u = st.grid.apply_pole_projection(u)
        iters = flow._project_boundary(st.ctx, u, tmap_seed=st.tmap)
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
    def test_obliqueness_checked_when_the_chord_is_reused(self, stationary_state):
        st = stationary_state
        chord = flow.Chord()
        u = _tilted(st, 1e-2)
        flow._project_boundary(st.ctx, u, tmap_seed=st.tmap, chord=chord)
        assert chord.lu is not None
        v = u.copy()
        v[-2] += 1e-3 * np.sin(2 * np.pi * 3 * st.grid.s)
        # min beta . nu at the image this ring projects to
        probe = v.copy()
        flow._project_boundary(st.ctx, probe, tmap_seed=st.tmap)
        beta = flow.build_state(st.ctx, probe, 0.0).ring_beta()
        obl = float(np.min(np.sum(beta * st.grid.boundary_normals, axis=-1)))
        assert obl < 1.0 - 1e-4          # the tilt is far above roundoff
        # the warm chord converges without a refactorization, so only the
        # check at the accepted image can see the floor
        with pytest.raises(ObliquenessLost):
            flow._project_boundary(
                st.ctx, v, tmap_seed=st.tmap,
                schedule=flow.Schedule(obliqueness_floor=obl + 1e-6),
                chord=chord)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_ring_residual_stalls(self, stationary_state, bad):
        st = stationary_state
        u = st.u.copy()
        u[-1, 5] = bad
        with pytest.raises(NewtonStall, match="non-finite"):
            flow._project_boundary(st.ctx, u, tmap_seed=st.tmap)

    def test_projection_without_chord_is_order_independent(
            self, disk_pair_spec, grid32, stationary_state):
        fresh = flow.initialize(disk_pair_spec, grid32,
                                flow.initial_linear_scaling(disk_pair_spec, grid32))
        u_fresh = _tilted(fresh, 1e-2)
        iters_fresh = flow._project_boundary(fresh.ctx, u_fresh, tmap_seed=fresh.tmap)
        # other projections on the shared context first, with and without a
        # chord, and a step
        st = stationary_state
        chord = flow.Chord()
        for eps in (3e-2, 1e-2):
            flow._project_boundary(st.ctx, _tilted(st, eps), tmap_seed=st.tmap,
                                   chord=chord)
        flow.enforce_boundary(flow.build_state(st.ctx, _tilted(st, 2e-2), 0.0))
        flow.step(st, flow.policy_dt(st))
        u = _tilted(st, 1e-2)
        iters = flow._project_boundary(st.ctx, u, tmap_seed=st.tmap)
        assert iters == iters_fresh >= 1
        assert u.tobytes() == u_fresh.tobytes()


class TestStep:
    def test_stationary_step_is_identity(self, stationary_state):
        for dt in (flow.policy_dt(stationary_state),
                   0.5 * flow.policy_dt(stationary_state)):
            out, rep = flow.step(stationary_state, dt)
            assert np.abs(out.u - stationary_state.u).max() <= 1e-12
            assert rep.halvings == 0

    def test_oversized_step_gets_rejected(self, perturbed_spec):
        g = grid.CurvilinearGrid(perturbed_spec.source, 24, 48)
        st = flow.initialize(perturbed_spec, g,
                             flow.initial_linear_scaling(perturbed_spec, g))
        big = 100.0 * flow.policy_dt(st)
        with pytest.raises(StepRejected):
            for _ in range(60):
                st, _ = flow.step(st, big, flow.Schedule(max_halvings=0))

    def test_rejection_then_halving_recovers(self, perturbed_spec):
        g = grid.CurvilinearGrid(perturbed_spec.source, 24, 48)
        st = flow.initialize(perturbed_spec, g,
                             flow.initial_linear_scaling(perturbed_spec, g))
        big = 100.0 * flow.policy_dt(st)
        seen_halving = False
        for _ in range(40):
            st, rep = flow.step(st, big, flow.Schedule(max_halvings=12))
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


class TestStructuralInvariants:
    """Per-step identities of the discrete flow on the small reference run."""

    def test_mass_balance_every_step(self, ref_run_32):
        rec = ref_run_32.step_records
        h2 = ref_run_32.grid.dr ** 2
        assert rec[:, 4].max() <= 0.05 * h2

    def test_extrema_bracket_zero(self, ref_run_32):
        rec = ref_run_32.step_records
        h2 = ref_run_32.grid.dr ** 2
        assert rec[:, 2].min() >= -1e-8 - 0.5 * h2    # sup theta >= -tol
        assert rec[:, 3].max() <= 1e-8 + 0.5 * h2     # inf theta <= +tol

    def test_running_extrema_monotone(self, ref_run_32):
        rec = ref_run_32.step_records
        tol = 1e-6 + 0.5 * ref_run_32.grid.dr ** 2
        assert np.diff(rec[:, 2]).max() <= tol
        assert np.diff(rec[:, 3]).min() >= -tol

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
