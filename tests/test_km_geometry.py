"""Pullback-metric geometry: the split-metric chart, both second-fundamental
-form evaluators, the boundary curvature identity, and the weighted-Laplacian
identity."""

import numpy as np
import pytest

from otflow import costs, domains, flow, grid, km_geometry as km, linearized
from otflow.errors import DegenerateImage


class TestMetricPlumbing:
    def test_pullback_matches_flow_matrix(self, stationary_state, sqrt_state_48):
        # exact for the affine map; O(h) through the differenced transport
        # Jacobian in general (the boundary ring carries the largest constant)
        pm0 = km.pullback_metric(stationary_state)
        assert np.abs(pm0.w - stationary_state.W).max() <= 1e-11
        pm = km.pullback_metric(sqrt_state_48)
        h_phys = sqrt_state_48.grid.dr * 0.5
        diff = np.abs(pm.w - sqrt_state_48.W)
        assert diff[:-1].max() <= 1.0 * h_phys
        assert diff[-1].max() <= 5.0 * h_phys

    @pytest.mark.parametrize("name", ["inner_product", "neg_half_sq_dist",
                                      "sqrt_one_plus_sq_dist"])
    def test_chart_jacobian_is_twice_the_metric(self, name, rng):
        c = costs.make_cost(name)
        for _ in range(3):
            x0 = 0.4 * rng.normal(size=2)
            y0 = np.array([1.5, 0.2]) + 0.3 * rng.normal(size=2)
            assert km.map_chart_jacobian_check(c, x0, y0) <= 1e-9

    def test_metric_inverse(self, rng):
        c = costs.make_cost("sqrt_one_plus_sq_dist")
        m = km.KMMetric(c)
        x = 0.3 * rng.normal(size=(4, 2))
        y = np.array([1.5, 0.0]) + 0.3 * rng.normal(size=(4, 2))
        prod = np.einsum('...ab,...bc->...ac', m.metric(x, y),
                         m.metric_inverse(x, y))
        np.testing.assert_allclose(prod, np.broadcast_to(np.eye(4), prod.shape),
                                   atol=1e-12)

    def test_split_metric_christoffels_vanish_for_identity_cross(self, rng):
        c = costs.make_cost("inner_product")
        gam = km.KMMetric(c).christoffel(np.array([0.3, 0.1]),
                                         np.array([1.0, -0.2]))
        assert np.abs(gam).max() <= 1e-12


class TestLinearMapOracle:
    """disk(1) -> disk(2) under the affine doubling map: the pullback metric
    is 2 I, so every curvature here has a closed form."""

    def test_second_fundamental_form_value(self, stationary_state):
        rep = km.verify_II_identity(stationary_state, np.array([0, 9, 40]))
        np.testing.assert_allclose(rep.ii_intrinsic, 1 / np.sqrt(2), atol=1e-6)
        np.testing.assert_allclose(rep.ii_ambient, 1 / np.sqrt(2), atol=1e-6)

    def test_identity_sides(self, stationary_state):
        rep = km.verify_II_identity(stationary_state, np.array([3])).at(0)
        np.testing.assert_allclose(rep.lhs, 2.0, atol=1e-5)
        np.testing.assert_allclose(rep.term_source_image, 1.0, atol=1e-5)
        np.testing.assert_allclose(rep.term_target_image, 1.0, atol=1e-5)
        assert rep.rel_error <= 1e-5


def _flipped_inner_product():
    """c(x, y) = x1 y1 - x2 y2, the inner product against the reflected y,
    from the inner product's oracles: C = diag(1, -1), so det C < 0."""
    base = costs.make_cost("inner_product")
    flip = np.array([1.0, -1.0])
    return costs.CostModel(
        "flipped_inner_product", lambda x, y: base.eval(x, flip * y),
        lambda x, y: base.grad_x(x, flip * y),
        lambda x, y: flip * base.grad_y(x, flip * y),
        lambda x, y: base.cross_hessian(x, y) * flip, base.hess_xx,
        lambda x, p: flip * base.invert_Y(x, p),
        lambda q, y: base.invert_X(flip * q, flip * y),
        base.third_xxy, base.third_xyy, thirds_vanish=True,
        hess_xx_vanishes=True)


class TestCoordinateImages:
    def test_inner_product_images_are_the_domains(self):
        c = costs.make_cost("inner_product")
        src = domains.Disk(1.0)
        tgt = domains.Disk(2.0)
        # image of the source boundary under grad_y c(., anchor) is the source
        kap = km.coordinate_domain_II(c, "source_image", np.array([0.5, 0.0]),
                                      src, 0.3)
        np.testing.assert_allclose(kap, 1.0, atol=1e-6)
        kap2 = km.coordinate_domain_II(c, "target_image", np.array([0.2, 0.1]),
                                       tgt, 0.8)
        np.testing.assert_allclose(kap2, 0.5, atol=1e-6)

    def test_shift_cost_preserves_curvature(self):
        c = costs.make_cost("neg_half_sq_dist")
        ell = domains.Ellipse(1.5, 0.9, (3.0, 0.0))
        ang = 0.2
        kap = km.coordinate_domain_II(c, "target_image", np.array([0.1, 0.0]),
                                      ell, ang)
        np.testing.assert_allclose(kap, ell.curvature(ang), rtol=1e-5)

    def test_image_curvature_converges_at_second_order(self):
        c = costs.make_cost("inner_product")
        ell = domains.Ellipse(1.2, 0.8)
        exact = float(ell.curvature(0.15))
        errs = [abs(km.coordinate_domain_II(c, "target_image",
                                            np.array([0.0, 0.0]), ell, 0.15,
                                            step=h) - exact)
                for h in (4e-3, 2e-3, 1e-3)]
        assert errs[0] / errs[1] >= 3.3
        assert errs[1] / errs[2] >= 3.0

    @pytest.mark.parametrize("which", ["source_image", "target_image"])
    def test_orientation_reversing_cost_keeps_outward_curvature(self, which):
        # both image maps are the reflection v -> (v1, -v2), which reverses
        # the traversal: a disk's image is a disk of the same radius
        disk = domains.Disk(0.5, (0.3, -0.2))
        s = np.array([0.0, 0.15, 0.4, 0.85])
        kap = km.coordinate_domain_II(_flipped_inner_product(), which,
                                      np.array([0.1, 0.4]), disk, s)
        np.testing.assert_allclose(kap, 2.0, rtol=1e-6)

    def test_degenerate_image_velocity_raises(self):
        c = costs.make_cost("inner_product")

        class PointCurve(domains.Disk):
            def boundary_param(self, s):
                return np.zeros(np.shape(s) + (2,)) if np.ndim(s) else np.zeros(2)

        with pytest.raises(DegenerateImage):
            km.coordinate_domain_II(c, "target_image", np.array([0.1, 0.0]),
                                    PointCurve(1.0), 0.3)


class TestIIIdentityGeneralCost:
    def test_evaluators_agree_and_identity_holds(self, sqrt_state_48):
        st = sqrt_state_48
        h = st.grid.dr
        nodes = np.arange(0, st.grid.n_s, 12)
        rep = km.verify_II_identity(st, nodes)
        assert np.abs(rep.ii_intrinsic - rep.ii_ambient).max() <= 2.0 * h
        assert rep.rel_error.max() <= 0.02

    def test_node_array_equals_one_node_calls(self, sqrt_run_16,
                                              stationary_state):
        # each node's result is independent of the rest of the batch
        for st in (sqrt_run_16.final_state(), stationary_state):
            nodes = np.arange(0, st.grid.n_s, 3)
            rep = km.verify_II_identity(st, nodes)
            for i in range(len(nodes)):
                one = nodes[i:i + 1]
                assert rep.at(i).as_dict() == \
                    km.verify_II_identity(st, one).at(0).as_dict()

    def test_ring_christoffel_equals_whole_grid_ring(self, sqrt_run_16,
                                                     stationary_state):
        # the identity evaluates the per-node algebra on the ring only
        for st in (sqrt_run_16.final_state(), stationary_state):
            ring = km._christoffel_algebra(
                st.W[-1], km._metric_gradient(st.grid, st.W)[-1])
            assert np.array_equal(ring,
                                  km.metric_christoffel(st.grid, st.W)[-1])

    def test_identity_error_shrinks_under_refinement(self, sqrt_pair_spec):
        errs = []
        for n in (24, 48):
            g = grid.CurvilinearGrid(sqrt_pair_spec.source, n, 2 * n)
            st = flow.initialize(sqrt_pair_spec, g,
                                 flow.initial_antipodal_reflection(sqrt_pair_spec, g))
            errs.append(km.verify_II_identity(
                st, np.arange(0, 2 * n, n // 2)).rel_error.max())
        assert errs[1] <= 0.6 * errs[0]


class TestGradNormBoundaryDerivative:
    @pytest.fixture(scope="class")
    @staticmethod
    def run_series(ref_run_32):
        ser = linearized.theta_special(ref_run_32, k=1)
        st = ref_run_32.state_at(ref_run_32.snapshot_index_at_time(1.0))
        return ref_run_32, ser, st

    def test_geometric_matches_direct_at_O_h(self, run_series):
        traj, ser, st = run_series
        h = st.grid.dr
        m = int(np.argmin(np.abs(ser.times - 1.0)))
        scale = max(np.abs(ser.winv_quad[m][-1]).max(), 1e-12)
        nodes = np.array([j for j in range(0, st.grid.n_s, 4) if ser.mask[m][
            -3:, np.arange(j - 2, j + 3) % st.grid.n_s].all()])
        geo, direct = km.dbeta_gradnorm_boundary(ser, st, nodes)
        assert np.abs(geo - direct).max() <= 10.0 * h * max(scale, 1.0)
        assert geo.max() <= 1e-10        # nonpositive under convexity
        assert len(nodes) >= 10

    def test_zero_gradient_gives_zero(self, run_series):
        _, ser, st = run_series
        m = int(np.argmin(np.abs(ser.times - 1.0)))
        ser.grad_f[m][-1, 7] = 0.0
        geo, _ = km.dbeta_gradnorm_boundary(ser, st, np.array([7]))
        assert abs(geo[0]) <= 1e-14


class TestWeightedLaplacianIdentity:
    def test_constant_field_residual_vanishes(self, stationary_state):
        g = stationary_state.grid
        ones = np.ones((g.n_r, g.n_s))
        prev = 0.9 * np.ones((g.n_r, g.n_s))
        res = km.verify_weighted_laplacian_identity(stationary_state, ones,
                                                    prev, 0.1)
        assert np.abs(res[1:-1]).max() <= 1e-10

    def test_constant_metric_reduction(self, stationary_state):
        # w = 2 I and constant weight: both sides share the same discrete
        # derivatives, so the residual is pure roundoff
        g = stationary_state.grid
        v = np.sin(g.nodes[..., 0]) * np.exp(0.3 * g.nodes[..., 1])
        res = km.verify_weighted_laplacian_identity(stationary_state, v, v, 1.0)
        assert np.abs(res[2:-2]).max() <= 1e-9

    def test_general_cost_residual_shrinks(self, sqrt_pair_spec):
        vals = []
        for n in (24, 48):
            g = grid.CurvilinearGrid(sqrt_pair_spec.source, n, 2 * n)
            st = flow.initialize(sqrt_pair_spec, g,
                                 flow.initial_antipodal_reflection(sqrt_pair_spec, g))
            v = np.sin(2 * g.nodes[..., 0]) * np.exp(0.5 * g.nodes[..., 1])
            res = km.verify_weighted_laplacian_identity(st, v, v, 1.0)
            mask = np.broadcast_to(((g.r > 0.1) & (g.r < 0.9))[:, None],
                                   res.shape)
            vals.append(np.abs(res[mask]).max())
        assert vals[1] <= 0.65 * vals[0]

    def test_rate_field_residual_shrinks(self, perturbed_spec):
        vals = []
        for n, snap in ((16, 0.1), (32, 0.05)):
            g = grid.CurvilinearGrid(perturbed_spec.source, n, 2 * n)
            sched = flow.Schedule(stop_tol=1e-15, t_max=0.5, snapshot_dt=snap)
            traj = flow.run_to_convergence(
                perturbed_spec, g, flow.initial_linear_scaling(perturbed_spec, g),
                sched)
            i = traj.snapshot_index_at_time(0.4)
            st = traj.state_at(i)
            res = km.verify_weighted_laplacian_identity(
                st, traj.snapshots[i].rate,
                traj.snapshots[i - 1].rate,
                traj.snapshots[i].t - traj.snapshots[i - 1].t)
            mask = np.broadcast_to(((g.r > 0.1) & (g.r < 0.9))[:, None],
                                   res.shape)
            vals.append(np.abs(res[mask]).max())
        assert vals[1] <= 0.65 * vals[0]

    def test_psi_base_recorded(self, sqrt_state_48):
        pm = km.pullback_metric(sqrt_state_48)
        assert np.all(np.isfinite(pm.phi))
