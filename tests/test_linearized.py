"""Linearized operator, gap solutions, and the boundary derivative of the
Li-Yau quantity."""

import dataclasses
import json

import numpy as np
import pytest

from otflow import _numerics as nm
from otflow import (costs, diagnostics, domains, flow, grid, linearized,
                    runner, serialize)
from otflow.config import load_scenario
from otflow.errors import DegenerateDenominator, NonPositiveTheta


@pytest.fixture(scope="module")
def coeffs_stationary(stationary_state):
    return linearized.build_coeffs(stationary_state)


class TestCoefficients:
    def test_stationary_disk_inverse_metric(self, coeffs_stationary):
        co = coeffs_stationary
        assert np.abs(co.winv - 0.5 * np.eye(2)).max() <= 1e-9
        np.testing.assert_allclose(co.c1, 0.5, atol=1e-9)

    def test_uniform_densities_have_no_drift(self, coeffs_stationary):
        assert np.abs(coeffs_stationary.drift).max() <= 1e-9

    def test_perturbed_drift_is_density_log_gradient(self, ref_run_32):
        # identity cross Hessian and vanishing A: the first-order coefficient
        # reduces to +grad log rho*(grad u)
        state = ref_run_32.state_at(2)
        co = linearized.build_coeffs(state)
        expect = state.spec.rho_star.grad_log(state.tmap)
        assert np.abs(co.drift - expect).max() <= 1e-10

    def test_obliqueness_bound_matches_direct_evaluation(self, ref_run_32):
        state = ref_run_32.state_at(2)
        co = linearized.build_coeffs(state)
        direct = np.min(np.sum(state.spec.target.h_grad(state.grad_u[-1])
                               * state.grid.boundary_normals, axis=-1))
        np.testing.assert_allclose(co.c2, direct, rtol=1e-12)


class TestApplyL:
    def test_annihilates_constants(self, stationary_state, coeffs_stationary):
        g = stationary_state.grid
        c = np.full((g.n_r, g.n_s), 3.3)
        out = linearized.apply_L(coeffs_stationary, g, c, c, 0.1)
        # exact up to the non-associativity of the stencil coefficients
        assert np.abs(out).max() <= 1e-11

    def test_pure_time_dependence(self, stationary_state, coeffs_stationary):
        g = stationary_state.grid
        va = np.full((g.n_r, g.n_s), 2.0)
        vb = np.full((g.n_r, g.n_s), 1.9)
        out = linearized.apply_L(coeffs_stationary, g, va, vb, 0.1)
        np.testing.assert_allclose(out, -1.0, atol=1e-12)

    def test_rate_field_solves_the_linearization(self, perturbed_spec):
        # the interior residual of L acting on the flow's own rate field
        # shrinks under joint grid and snapshot refinement
        res = []
        for (n_r, n_s, snap_dt) in [(16, 32, 0.08), (32, 64, 0.04)]:
            g = grid.CurvilinearGrid(perturbed_spec.source, n_r, n_s)
            u0 = flow.initial_linear_scaling(perturbed_spec, g)
            sched = flow.Schedule(stop_tol=1e-15, t_max=0.8, snapshot_dt=snap_dt)
            traj = flow.run_to_convergence(perturbed_spec, g, u0, sched)
            i = traj.snapshot_index_at_time(0.4)
            state = traj.state_at(i)
            co = linearized.build_coeffs(state)
            out = linearized.apply_L(
                co, g, traj.snapshots[i].rate,
                traj.snapshots[i - 1].rate,
                traj.snapshots[i].t - traj.snapshots[i - 1].t)
            # fixed interior subdomain: the rings whose stencils touch the
            # projected boundary ring carry the scheme's consistency layer
            mask = np.broadcast_to(((g.r > 0.1) & (g.r < 0.9))[:, None],
                                   out.shape)
            scale = np.abs(traj.snapshots[i].rate).max()
            res.append(np.abs(out[mask]).max() / scale)
        assert res[1] <= 0.6 * res[0]
        assert res[1] <= 0.1

    def test_log_substitution_residual(self, ref_run_small):
        traj = ref_run_small
        ser = linearized.theta_special(traj, k=1)
        m = 30
        idx = int(ser.snapshot_indices[m])
        state = traj.state_at(idx)
        co = linearized.build_coeffs(state)
        g = traj.grid
        f_now = np.nan_to_num(ser.f[m], nan=0.0, neginf=0.0)
        f_prev = np.nan_to_num(ser.f[m - 1], nan=0.0, neginf=0.0)
        dt = float(ser.times[m] - ser.times[m - 1])
        out = linearized.log_gradient_residual(co, g, f_now, f_prev, dt)
        mask = np.broadcast_to(((g.r > 0.1) & (g.r < 0.9))[:, None],
                               out.shape) & ser.mask[m] & ser.mask[m - 1]
        assert np.abs(out[mask]).max() <= 0.15


class TestGapSolutions:
    def test_stationary_run_rejected(self, disk_pair_spec, grid32):
        u0 = flow.initial_linear_scaling(disk_pair_spec, grid32)
        traj = flow.run_to_convergence(disk_pair_spec, grid32, u0,
                                       flow.Schedule(stop_tol=1e-8, t_max=2.0))
        with pytest.raises(NonPositiveTheta):
            linearized.theta_special(traj, k=1)

    def test_stationary_run_audit_writes_the_error_record(
            self, disk_pair_spec, grid32, tmp_path):
        u0 = flow.initial_linear_scaling(disk_pair_spec, grid32)
        traj = flow.run_to_convergence(disk_pair_spec, grid32, u0,
                                       flow.Schedule(stop_tol=1e-8, t_max=2.0))
        runner.harnack_audit(traj, str(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["harnack_summary.json"]
        report = json.loads((tmp_path / "harnack_summary.json").read_text())
        assert report == {"error": "NonPositiveTheta", "detail":
                          "trajectory too short for gap solution k=1"}

    def test_gap_nonnegative_and_F_starts_at_zero(self, ref_run_32):
        ser = linearized.theta_special(ref_run_32, k=1)
        assert ser.gap.min() >= 0.0
        assert np.abs(ser.F[0]).max() == 0.0
        assert ser.alpha == 2.0
        fin = ser.F[1:][ser.mask[1:]]
        assert np.all(np.isfinite(fin))

    def test_shifted_gap_solution(self, ref_run_32):
        ser = linearized.theta_special(ref_run_32, k=2)
        i0 = ref_run_32.snapshot_index_at_time(1.0)
        assert ser.base_sup == pytest.approx(
            float(np.max(ref_run_32.snapshots[i0].rate)))
        assert ser.gap.min() >= 0.0

    def test_index_of_reads_the_series_time_of_the_state(self, ref_run_32):
        # the series of Theta_k starts at t = k - 1: a state at k - 1 + 0.5
        # is the snapshot at offset 0.5, and a state between snapshots is
        # on no series time
        for k in (1, 2):
            ser = linearized.gap_series(ref_run_32, k=k)
            i = ref_run_32.snapshot_index_at_time(k - 1 + 0.5)
            st = ref_run_32.state_at(i)
            assert ser.snapshot_indices[ser.index_of(st)] == i
            assert ser.times[ser.index_of(st)] == pytest.approx(0.5)
            with pytest.raises(KeyError):
                ser.index_of(dataclasses.replace(st, t=st.t + 0.01))

    def test_tangency_of_metric_gradient(self, perturbed_spec):
        # tau = W^{-1} grad f loses its normal component at O(h)
        defects = []
        for n in (24, 48):
            g = grid.CurvilinearGrid(perturbed_spec.source, n, 2 * n)
            u0 = flow.initial_linear_scaling(perturbed_spec, g)
            sched = flow.Schedule(stop_tol=1e-15, t_max=0.75, snapshot_dt=0.125)
            traj = flow.run_to_convergence(perturbed_spec, g, u0, sched)
            ser = linearized.theta_special(traj, k=1)
            st = traj.state_at(traj.snapshot_index_at_time(0.5))
            defects.append(linearized.boundary_tangency_defect(ser, st))
        assert defects[0] <= 10 * (2.0 / 47)     # O(h) with measured constant
        assert defects[1] <= 0.65 * defects[0]


def _reference_theta_special(trajectory, k=1):
    """The Li-Yau series as it was built from one full flow state per
    snapshot (``Trajectory.state_at``); ``theta_special`` must reproduce it
    bit for bit."""
    i0 = trajectory.snapshot_index_at_time(float(k - 1))
    snaps = trajectory.snapshots[i0:]
    times = np.array([s.t - snaps[0].t for s in snaps])
    h = times[1] - times[0]
    spacing_ok = np.isclose(np.diff(times), h, rtol=1e-6, atol=1e-9)
    cut = len(times) if spacing_ok.all() else int(np.argmin(spacing_ok)) + 1
    snaps, times = snaps[:cut], times[:cut]
    base_sup = float(np.max(snaps[0].rate))
    gap = base_sup - np.stack([s.rate for s in snaps])
    mask = gap > linearized.THETA_FLOOR
    alive = mask.reshape(len(snaps), -1).any(axis=1)
    m = int(np.max(np.nonzero(alive)[0])) + 1
    times, gap, mask = times[:m], gap[:m], mask[:m]
    indices = np.arange(i0, i0 + m)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(mask, np.log(np.maximum(gap, 1e-300)), np.nan)
    dt_f = np.empty_like(f)
    h = float(np.diff(times)[0])
    dt_f[1:-1] = (f[2:] - f[:-2]) / (2 * h)
    dt_f[0] = (f[1] - f[0]) / h
    dt_f[-1] = (f[-1] - f[-2]) / h
    g = trajectory.grid
    grad_f = np.empty(f.shape + (2,))
    winv_quad = np.empty_like(f)
    F = np.zeros_like(f)
    for i in range(m):
        state = trajectory.state_at(int(indices[i]))
        winv = nm.inv2(state.W)
        fi = np.nan_to_num(f[i], nan=0.0, neginf=0.0)
        grad_f[i] = g.grad_values(fi)
        winv_quad[i] = nm.quadform2(winv, grad_f[i])
        if times[i] > 0:
            F[i] = times[i] * (winv_quad[i] - linearized.DEFAULT_ALPHA * dt_f[i])
    mask &= np.isfinite(F) & np.isfinite(dt_f)
    return {"times": times, "snapshot_indices": indices, "gap": gap, "f": f,
            "dt_f": dt_f, "grad_f": grad_f, "winv_quad": winv_quad, "F": F,
            "mask": mask}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _retimed(traj, times, rates=None):
    """``traj`` with its first snapshots re-stamped at ``times`` (and their
    rate fields replaced by ``rates`` when given)."""
    snaps = traj.snapshots[:len(times)]
    rates = rates if rates is not None else [s.rate for s in snaps]
    return dataclasses.replace(traj, snapshots=[
        flow.Snapshot(float(t), s.u, r) for t, s, r in zip(times, snaps, rates)])


class TestGapSeriesSplit:
    """The summary reads the gap series alone; the full series adds the
    Li-Yau fields without building a flow state per snapshot."""

    RUNS = ("ref_run_32", "sqrt_run_16")
    SCENARIOS = {"ref_run_32": "disk_cosine_perturbed",
                 "sqrt_run_16": "offset_disks_sqrt"}

    @pytest.mark.parametrize("run", RUNS)
    def test_theta_special_equals_the_build_state_reference(self, run, request):
        traj = request.getfixturevalue(run)
        # the inner-product cost skips D_xx c; the sqrt cost subtracts it
        assert traj.spec.cost.hess_xx_vanishes == (run == "ref_run_32")
        ser = linearized.theta_special(traj, k=1)
        ref = _reference_theta_special(traj, k=1)
        for name, want in ref.items():
            assert _same_bits(getattr(ser, name), want), name

    @pytest.mark.parametrize("run", RUNS)
    def test_gap_series_arrays_equal_the_full_series(self, run, request):
        traj = request.getfixturevalue(run)
        full = linearized.theta_special(traj, k=1)
        gaps = linearized.gap_series(traj, k=1)
        assert not isinstance(gaps, linearized.HarnackSeries)
        for name in ("times", "snapshot_indices", "gap"):
            assert _same_bits(getattr(gaps, name), getattr(full, name)), name
        assert (gaps.k, gaps.floor) == (full.k, full.floor)
        assert _same_bits(gaps.base_sup, full.base_sup)
        # the full series narrows the positivity mask to finite F and df/dt
        assert _same_bits(gaps.mask, full.gap > full.floor)
        assert _same_bits(full.mask, gaps.mask & np.isfinite(full.F)
                          & np.isfinite(full.dt_f))

    @pytest.mark.parametrize("run", RUNS)
    def test_summary_reads_the_same_with_either_series(self, run, request,
                                                       tmp_path, monkeypatch):
        traj = request.getfixturevalue(run)
        cfg = load_scenario(self.SCENARIOS[run])
        # build_summary's own decay fit, read off its call of run_summary
        seen = []
        run_summary = diagnostics.run_summary
        monkeypatch.setattr(diagnostics, "run_summary",
                            lambda t, **kw: seen.append(kw) or run_summary(t, **kw))
        alone = runner.build_summary(traj, cfg)
        monkeypatch.undo()
        try:
            harnack = diagnostics.harnack_ratio_series(
                linearized.theta_special(traj, k=1))
        except DegenerateDenominator:
            harnack = None
        with_full = diagnostics.run_summary(traj, rate_fit=seen[0]["rate_fit"],
                                            harnack=harnack)
        # the sqrt run's ratios hit the floor, so its C_harnack is null
        assert (with_full["C_harnack"] is None) == (run == "sqrt_run_16")
        assert with_full == alone
        serialize.write_json(tmp_path / "full.json", with_full)
        serialize.write_json(tmp_path / "alone.json", alone)
        assert (tmp_path / "full.json").read_bytes() == \
            (tmp_path / "alone.json").read_bytes()

    @pytest.mark.parametrize("scenario, builds", [
        ("disk_cosine_perturbed", 1),       # the Harnack audit is on
        ("offset_disks_sqrt", 0),           # the Harnack audit is off
    ])
    def test_run_builds_the_full_series_only_for_the_harnack_audit(
            self, scenario, builds, tmp_path, monkeypatch):
        calls = []
        theta_special = linearized.theta_special
        monkeypatch.setattr(linearized, "theta_special",
                            lambda *a, **kw: calls.append(1) or theta_special(*a, **kw))
        cfg = load_scenario(scenario).with_overrides(grid=(16, 32))
        assert runner.run_scenario(cfg, output_root=str(tmp_path)).status == 0
        assert len(calls) == builds

    def test_same_exception_as_the_full_series(self, ref_run_32):
        traj = ref_run_32
        flat = [np.full_like(s.rate, 0.5) for s in traj.snapshots[:6]]
        cases = [
            (dataclasses.replace(traj, snapshots=traj.snapshots[:2]), 1,
             NonPositiveTheta, "too short"),
            (_retimed(traj, [0.125 * i for i in range(6)], flat), 1,
             NonPositiveTheta, "below the floor"),
            (traj, 100, KeyError, "no snapshot at t = 99.0"),
            (traj, 0, ValueError, "positive integer"),
        ]
        for case, k, kind, words in cases:
            with pytest.raises(kind, match=words) as full:
                linearized.theta_special(case, k=k)
            with pytest.raises(kind) as gaps:
                linearized.gap_series(case, k=k)
            assert type(gaps.value) is type(full.value)
            assert str(gaps.value) == str(full.value)
        # a spacing within the cadence cut's tolerance (TIME_TOL) is on the
        # cadence: both layers keep all four times
        uneven = _retimed(traj, [0.0, 1e-5, 2e-5 + 5e-10, 3e-5])
        gaps = linearized.gap_series(uneven, k=1)
        full = linearized.theta_special(uneven, k=1)
        assert gaps.times.tolist() == full.times.tolist() == [
            0.0, 1e-5, 2e-5 + 5e-10, 3e-5]
        assert gaps.gap.tobytes() == full.gap.tobytes()
        assert gaps.snapshot_indices.tolist() == full.snapshot_indices.tolist()


class TestBoundaryDerivativeOfF:
    @pytest.fixture(scope="class")
    @staticmethod
    def series_state(ref_run_32):
        ser = linearized.theta_special(ref_run_32, k=1)
        st = ref_run_32.state_at(ref_run_32.snapshot_index_at_time(1.0))
        return ref_run_32, ser, st

    def test_modes_agree_for_inner_product_cost(self, series_state):
        _, ser, st = series_state
        nodes = np.arange(0, st.grid.n_s, 7)
        vg, _ = linearized.dbetaF_closed(ser, st, nodes, "general")
        vq, _ = linearized.dbetaF_closed(ser, st, nodes, "quadratic")
        assert np.abs(vg - vq).max() <= 1e-10

    def test_direct_matches_closed_at_O_h(self, series_state):
        traj, ser, st = series_state
        h = st.grid.dr
        scale = max(np.abs(ser.F[ser.times == 1.0]).max(), 1e-10)
        nodes = np.arange(0, st.grid.n_s, 4)
        dd = linearized.dbetaF_direct(ser, st, nodes)
        dc, _ = linearized.dbetaF_closed(ser, st, nodes, "general")
        gaps = np.abs(dd - dc)[~np.isnan(dd)]
        assert len(gaps) >= 12
        assert max(gaps) <= 8.0 * h * max(scale, 1.0)

    def test_closed_form_nonpositive_for_gap_solution(self, series_state):
        traj, ser, _ = series_state
        nodes = np.arange(0, traj.grid.n_s, 4)
        for t in (0.5, 1.0, 2.0):
            m = int(np.argmin(np.abs(ser.times - t)))
            st_t = traj.state_at(int(ser.snapshot_indices[m]))
            val, terms = linearized.dbetaF_closed(ser, st_t, nodes, "general")
            assert val.max() <= 1e-12
            assert all(term.max() <= 1e-12 for term in terms)

    def test_vanishing_gradient_gives_zero(self, series_state):
        _, ser, st = series_state
        m = int(np.argmin(np.abs(ser.times - 1.0)))
        ser.grad_f[m][-1, 5] = 0.0          # synthetic: grad f = 0 at node 5
        val, terms = linearized.dbetaF_closed(ser, st, np.array([5]), "general")
        assert abs(val[0]) <= 1e-14 and abs(terms[0][0]) <= 1e-14


def floor_touched(ser, st, nodes):
    """The nodes whose five-node window on the three outer rings touches
    the gap series' floor mask at the state's time."""
    m = ser.index_of(st)
    window = (nodes[:, None] + np.arange(-2, 3)) % st.grid.n_s
    return ~ser.mask[m][-3:, window].all(axis=(0, 2))


def _skewed_sqrt_cost(skew):
    """The sqrt cost's oracles with a constant antisymmetric part added to
    its cross Hessian: once C is not symmetric, the index order of C^{-1}
    decides the contraction."""
    base = costs.make_cost("sqrt_one_plus_sq_dist")
    part = np.array([[0.0, skew], [-skew, 0.0]])
    return costs.CostModel(
        "skewed", base.eval, base.grad_x, base.grad_y,
        lambda x, y: base.cross_hessian(x, y) + part, base.hess_xx,
        base.invert_Y, base.invert_X, base.third_xxy, base.third_xyy)


def _mirrored_cost(cost):
    """c*(a, b) = c(b, a) from the same oracles: the source and target roles
    swap, C is transposed and the thirds are permuted. D^2_aa c* is the
    sqrt cost's D^2_yy c, which equals its D^2_xx c."""
    return costs.CostModel(
        "mirrored", lambda a, b: cost.eval(b, a),
        lambda a, b: cost.grad_y(b, a), lambda a, b: cost.grad_x(b, a),
        lambda a, b: np.swapaxes(cost.cross_hessian(b, a), -1, -2),
        lambda a, b: cost.hess_xx(b, a),
        lambda a, p: cost.invert_X(p, a), lambda q, b: cost.invert_Y(b, q),
        lambda a, b: np.moveaxis(cost.third_xyy(b, a), -3, -1),
        lambda a, b: np.moveaxis(cost.third_xxy(b, a), -1, -3))


class TestBoundaryConvexityContraction:
    """The convexity form of ``dbetaF_closed``'s general mode is the source
    side of ``domains.convexity_form``: both contract C^{-1}, whose index
    order is (target, source), with the normal on its source index; the
    target side puts the normal on the target index."""

    @pytest.mark.parametrize("skew", [0.0, 0.7])
    def test_matches_the_audit_form(self, skew):
        cost = _skewed_sqrt_cost(skew)
        src, tgt = domains.Disk(0.5), domains.Disk(0.5, (1.2, 0.0))
        spec = domains.ProblemSpec(src, tgt, cost, domains.uniform_density(src),
                                   domains.uniform_density(tgt))
        g = grid.CurvilinearGrid(src, 16, 32)
        state = flow.build_state(flow.FlowContext(spec, g),
                                 flow.initial_antipodal_reflection(spec, g), 0.0)
        j = np.arange(g.n_s)
        tau = src.boundary_tangent(g.s[j])
        got = linearized._boundary_convexity_contraction(state, j, tau)
        ref = np.diagonal(domains.convexity_form(spec, "source", g.s[j],
                                                 state.tmap[-1, j]))
        assert np.abs(got - ref).max() <= 1e-12

    @pytest.mark.parametrize("skew", [0.0, 0.7])
    def test_target_side_is_the_mirrored_source_side(self, skew):
        # the target form of (source, target, c) is the source form of the
        # mirrored problem (target, source, c*) with c*(y, x) = c(x, y)
        cost = _skewed_sqrt_cost(skew)
        src, tgt = domains.Disk(0.5), domains.Ellipse(0.6, 0.4, (1.2, 0.3))
        spec = domains.ProblemSpec(src, tgt, cost, domains.uniform_density(src),
                                   domains.uniform_density(tgt))
        mirrored = domains.ProblemSpec(tgt, src, _mirrored_cost(cost),
                                       domains.uniform_density(tgt),
                                       domains.uniform_density(src))
        s = np.arange(48) / 48
        xs = domains._audit_points(src, 16, 16)
        got = domains.convexity_form(spec, "target", s, xs)
        ref = domains.convexity_form(mirrored, "source", s, xs)
        assert np.abs(got - ref).max() <= 1e-12
        # the cost's correction is far from zero on this pair
        assert np.abs(got - tgt.curvature(s)[:, None]).max() > 0.1


class TestNodeArrays:
    """Each node's entry of a node-array call equals, bit for bit, the call
    on that node alone, and the direct derivative reads NaN exactly where
    the floor mask touches a node's window."""

    @pytest.fixture(scope="class")
    @staticmethod
    def doctored(ref_run_32):
        ser = linearized.theta_special(ref_run_32, k=1)
        m = int(np.argmin(np.abs(ser.times - 1.0)))
        mask = ser.mask.copy()
        mask[m][-2, [5, 20, 21]] = False        # the floor touches three windows
        ser = dataclasses.replace(ser, mask=mask)
        st = ref_run_32.state_at(int(ser.snapshot_indices[m]))
        return ser, st

    @pytest.fixture(scope="class")
    @staticmethod
    def sqrt_series(sqrt_run_16):
        ser = linearized.theta_special(sqrt_run_16, k=1)
        return ser, sqrt_run_16

    @staticmethod
    def check_direct(ser, st):
        nodes = np.arange(st.grid.n_s)
        batch = linearized.dbetaF_direct(ser, st, nodes)
        alone = np.concatenate([linearized.dbetaF_direct(ser, st, nodes[i:i + 1])
                                for i in range(len(nodes))])
        assert batch.tobytes() == alone.tobytes()
        refused = np.isnan(batch)
        assert refused.tolist() == floor_touched(ser, st, nodes).tolist()
        return list(np.nonzero(refused)[0])

    @staticmethod
    def check_closed(ser, st, mode):
        def closed(j):
            value, terms = linearized.dbetaF_closed(ser, st, j, mode)
            return np.stack([value, *terms], axis=1)

        nodes = np.arange(st.grid.n_s)
        batch = closed(nodes)
        alone = np.concatenate([closed(nodes[i:i + 1]) for i in range(len(nodes))])
        assert not np.isnan(batch).any()
        assert batch.tobytes() == alone.tobytes()

    def test_direct_nan_where_the_floor_refuses(self, doctored):
        refused = self.check_direct(*doctored)
        assert {3, 4, 5, 6, 7, 18, 19, 20, 21, 22, 23} <= set(refused)

    @pytest.mark.parametrize("mode", ["general", "quadratic"])
    def test_closed_modes(self, doctored, mode):
        self.check_closed(*doctored, mode)

    def test_sqrt_cost(self, sqrt_series):
        ser, traj = sqrt_series
        assert not traj.spec.cost.thirds_vanish
        for m in (1, len(ser.times) - 1):
            st = traj.state_at(int(ser.snapshot_indices[m]))
            refused = self.check_direct(ser, st)
            assert len(refused) < st.grid.n_s
            self.check_closed(ser, st, "general")


class TestMaxPrincipleMonitor:
    def test_stationary_series_flat(self, disk_pair_spec, grid32):
        u0 = flow.initial_linear_scaling(disk_pair_spec, grid32)
        traj = flow.run_to_convergence(disk_pair_spec, grid32, u0,
                                       flow.Schedule(stop_tol=1e-8, t_max=1.0))
        rep = linearized.max_principle_monitor(traj)
        assert rep.worst() == 0.0

    def test_reference_run_monotone(self, ref_run_32):
        rep = linearized.max_principle_monitor(ref_run_32)
        assert rep.worst() <= 1e-6 + 0.5 * ref_run_32.grid.dr ** 2

    def test_reversed_series_flagged(self, ref_run_32):
        doctored = dataclasses.replace(
            ref_run_32, step_records=ref_run_32.step_records.copy())
        for name in ("sup_theta", "inf_theta"):     # a view into the copy
            doctored.step_column(name)[:] = ref_run_32.step_column(name)[::-1]
        rep = linearized.max_principle_monitor(doctored)
        assert rep.worst() > 1e-3
