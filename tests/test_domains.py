"""Domain library, densities, and the standing-hypothesis audits."""

import os
import subprocess
import sys

import numpy as np
import pytest

import otflow
from otflow import costs, domains, flow, grid, serialize
from otflow.config import load_scenario
from otflow._numerics import det2
from otflow.domains import (CosineBlob, Disk, Ellipse, ProblemSpec,
                            check_bitwist, check_c_convexity,
                            check_cstar_convexity, convexity_form,
                            cosine_bump_density, make_density, make_domain,
                            uniform_density, validate_spec)
from otflow.errors import DensityOutOfBounds, MassImbalance

LIBRARY = [Disk(1.3, (0.2, -0.1)), Ellipse(1.4, 0.7, (0.0, 0.5)),
           CosineBlob(1.0, 0.25, 2), CosineBlob(0.9, 0.15, 3, (1.0, 0.0))]


@pytest.mark.parametrize("dom", LIBRARY, ids=lambda d: d.describe()["kind"] + str(d.star_center))
def test_defining_function_normalized_on_boundary(dom):
    s = np.linspace(0, 1, 160, endpoint=False)
    bp = dom.boundary_param(s)
    assert np.abs(dom.h(bp)).max() <= 1e-10
    nu = dom.outward_normal(s)
    hg = dom.h_grad(bp)
    assert np.abs(hg - nu).max() <= 1e-8
    # interior sign
    inside = dom.star_center + 0.5 * (bp - dom.star_center)
    assert np.all(dom.h(inside) < 0)


@pytest.mark.parametrize("dom", LIBRARY, ids=lambda d: d.describe()["kind"] + str(d.star_center))
def test_half_widths_bound_the_boundary(dom):
    s = np.linspace(0, 1, 720, endpoint=False)
    reach = np.abs(dom.boundary_param(s) - dom.star_center).max(axis=0)
    half = np.array(dom.half_widths())
    assert np.all(reach <= half * (1 + 1e-12))
    # tight on an axis-aligned ellipse or disk, and on a blob's x axis
    # (its largest radius sits at angle 0)
    tight = slice(None) if dom.kind != "blob" else slice(0, 1)
    np.testing.assert_allclose(reach[tight], half[tight], rtol=1e-12)


@pytest.mark.parametrize("dom", LIBRARY, ids=lambda d: d.describe()["kind"] + str(d.star_center))
def test_boundary_s_inverts_boundary_param(dom):
    s = np.linspace(0, 1, 720, endpoint=False)
    back = dom.boundary_s(dom.boundary_param(s))
    assert np.abs((back - s + 0.5) % 1.0 - 0.5).max() <= 1e-15


def test_curvature_oracle_matches_closed_forms():
    s = np.linspace(0, 1, 64, endpoint=False)
    np.testing.assert_allclose(Disk(2.0).curvature(s), 0.5, atol=1e-8)
    ell = Ellipse(2.0, 1.0)
    # parametric curvature a b / (a^2 sin^2 + b^2 cos^2)^(3/2)
    ang = 2 * np.pi * s
    expect = 2.0 / (4 * np.sin(ang) ** 2 + np.cos(ang) ** 2) ** 1.5
    np.testing.assert_allclose(ell.curvature(s), expect, rtol=1e-7)
    blob = CosineBlob(1.0, 0.3, 2)
    phi = ang
    r = 1 + 0.3 * np.cos(2 * phi)
    rp = -0.6 * np.sin(2 * phi)
    rpp = -1.2 * np.cos(2 * phi)
    expect_blob = (r ** 2 + 2 * rp ** 2 - r * rpp) / (r ** 2 + rp ** 2) ** 1.5
    np.testing.assert_allclose(blob.curvature(s), expect_blob, rtol=1e-6)
    assert expect_blob.min() < 0   # the test shape really is nonconvex


def test_analytic_curvature_matches_closed_forms():
    s = np.linspace(0, 1, 97, endpoint=False)
    ang = 2 * np.pi * s
    np.testing.assert_allclose(Disk(1.3, (0.2, -0.1)).curvature(s), 1 / 1.3,
                               rtol=0, atol=1e-12)
    a, b = 1.4, 0.7
    expect = a * b / (a ** 2 * np.sin(ang) ** 2 + b ** 2 * np.cos(ang) ** 2) ** 1.5
    np.testing.assert_allclose(Ellipse(a, b, (0.0, 0.5)).curvature(s), expect,
                               rtol=0, atol=1e-12)
    R, eps, k = 0.9, 0.15, 3
    r = R * (1 + eps * np.cos(k * ang))
    rp = -R * eps * k * np.sin(k * ang)
    rpp = -R * eps * k ** 2 * np.cos(k * ang)
    expect = (r ** 2 + 2 * rp ** 2 - r * rpp) / (r ** 2 + rp ** 2) ** 1.5
    np.testing.assert_allclose(CosineBlob(R, eps, k, (1.0, 0.0)).curvature(s),
                               expect, rtol=0, atol=1e-12)


def test_areas_match_quadrature():
    for dom in LIBRARY:
        g = grid.CurvilinearGrid(dom, 48, 96)
        quad = grid.integrate(g, np.ones((48, 96)))
        np.testing.assert_allclose(dom.area, quad, rtol=2e-4)


def test_disk_analytic_hessian_matches_fd_path():
    d = Disk(1.7, (0.3, 0.2))
    generic = Disk.__mro__[1]  # Domain
    pts = np.array([[1.0, 0.9], [-0.5, 0.8], [0.3, -1.2]])
    fd = generic.h_hess(d, pts)
    np.testing.assert_allclose(d.h_hess(pts), fd, atol=5e-7)
    fd_g = generic.h_grad(d, pts)
    np.testing.assert_allclose(d.h_grad(pts), fd_g, atol=1e-9)


class TestDensities:
    def test_uniform_integrates_to_scale(self):
        for dom in LIBRARY[:2]:
            g = grid.CurvilinearGrid(dom, 48, 96)
            rho = uniform_density(dom)
            np.testing.assert_allclose(
                grid.integrate(g, rho(g.nodes)), 1.0, atol=2e-4)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cosine_bump_mass_and_bounds(self, k):
        dom = Disk(2.0)
        rho = cosine_bump_density(dom, eps=0.15, k=k)
        g = grid.CurvilinearGrid(dom, 48, 96)
        vals = rho(g.nodes)
        np.testing.assert_allclose(grid.integrate(g, vals), 1.0,
                                   atol=5e-4)
        assert vals.min() >= rho.lo - 1e-12 and vals.max() <= rho.hi + 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_grad_log_matches_fd(self, k, rng):
        dom = Disk(2.0, (0.5, -0.3))
        rho = cosine_bump_density(dom, eps=0.2, k=k)
        y = dom.star_center + 0.8 * rng.normal(size=(10, 2))
        h = 1e-6
        fd = np.stack(
            [(np.log(rho(y + h * e)) - np.log(rho(y - h * e))) / (2 * h)
             for e in np.eye(2)], axis=-1)
        np.testing.assert_allclose(rho.grad_log(y), fd, atol=1e-8)


def _spec(cost_name, src, tgt, rho_star=None):
    cost = costs.make_cost(cost_name)
    return ProblemSpec(src, tgt, cost, uniform_density(src),
                       rho_star or uniform_density(tgt))


def _dense_bitwist(spec, n_samples):
    """check_bitwist's sweep as one (N, M) determinant array: the minimum,
    its first argmin pair in row-major order (the first NaN, if any), and
    the pair count."""
    xs = domains._sample_interior(spec.source, n_samples // 2)
    ys = domains._sample_interior(spec.target, n_samples // 2)
    nb = max(16, 2 ** int(np.log2(np.sqrt(n_samples))))
    sb = np.arange(nb) / nb
    xs = np.concatenate([xs, spec.source.boundary_param(sb)], axis=0)
    ys = np.concatenate([ys, spec.target.boundary_param(sb)], axis=0)
    det = np.abs(det2(spec.cost.cross_hessian(xs[:, None], ys[None])))
    i, j = np.unravel_index(np.argmin(det), det.shape)
    return det[i, j], xs[i], ys[j], det.size


class _NaNCross:
    """Cross Hessians diag(2 + x_0 y_1, 1), NaN where x_0 > 0.3 and y_1 < 0."""

    cross_identity = False      # the sweep reads the cost's fast-path flag

    def cross_hessian(self, x, y):
        x, y = np.broadcast_arrays(x, y)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2.0 + x[..., 0] * y[..., 1]
        out[..., 1, 1] = 1.0
        out[(x[..., 0] > 0.3) & (y[..., 1] < 0.0)] = np.nan
        return out


class TestBitwist:
    @pytest.mark.parametrize("name", ["inner_product", "neg_half_sq_dist"])
    def test_identity_cross_hessians(self, name):
        spec = _spec(name, Disk(1.0), Disk(2.0))
        rep = check_bitwist(spec, 512)
        np.testing.assert_allclose(rep.min_abs_det, 1.0, atol=1e-12)
        assert rep.ok

    def test_sqrt_cost_unit_disks_distance_three(self):
        spec = _spec("sqrt_one_plus_sq_dist", Disk(1.0), Disk(1.0, (3.0, 0.0)))
        rep = check_bitwist(spec, 2048)
        assert rep.ok and rep.min_abs_det > 1e-4
        # witness reproduces the reported minimum
        got = abs(np.linalg.det(spec.cost.cross_hessian(rep.argmin_x,
                                                        rep.argmin_y)))
        np.testing.assert_allclose(got, rep.min_abs_det, rtol=1e-12)

    def test_minimum_monotone_under_sample_growth(self):
        spec = _spec("sqrt_one_plus_sq_dist", Disk(1.0), Disk(1.0, (3.0, 0.0)))
        small = check_bitwist(spec, 512)
        big = check_bitwist(spec, 2048)
        assert big.min_abs_det <= small.min_abs_det + 1e-15

    @pytest.mark.parametrize("spec", [
        _spec("sqrt_one_plus_sq_dist", Disk(1.0), Disk(1.0, (3.0, 0.0))),
        _spec("inner_product", Disk(1.0), Disk(2.0)),       # every pair ties
        ProblemSpec(Disk(1.0), Disk(1.0), _NaNCross(),
                    uniform_density(Disk(1.0)), uniform_density(Disk(1.0))),
    ], ids=["sqrt", "inner_product", "nan"])
    def test_row_scan_matches_the_dense_sweep_bitwise(self, spec):
        rep = check_bitwist(spec, 256)
        det, x, y, size = _dense_bitwist(spec, 256)
        np.testing.assert_array_equal(rep.min_abs_det, det)
        np.testing.assert_array_equal(rep.argmin_x, x)
        np.testing.assert_array_equal(rep.argmin_y, y)
        assert rep.n_samples == size
        assert rep.ok == (det > domains.BITWIST_MARGIN)

    def test_cross_identity_cost_skips_the_sweep(self, monkeypatch):
        spec = _spec("neg_half_sq_dist", Disk(1.0), Disk(2.0, (3.0, 0.0)))
        calls = []
        cross = spec.cost.cross_hessian
        monkeypatch.setattr(spec.cost, "cross_hessian",
                            lambda *a: calls.append(1) or cross(*a))
        rep = check_bitwist(spec, 4096)
        assert calls == []
        assert rep.min_abs_det == 1.0 and rep.ok
        assert rep.n_samples == (2048 + 64) ** 2
        np.testing.assert_array_equal(
            rep.argmin_x, domains._sample_interior(spec.source, 1)[0])
        np.testing.assert_array_equal(
            rep.argmin_y, domains._sample_interior(spec.target, 1)[0])


class TestSobol:
    def test_matches_scipy_bitwise_across_continued_draws(self):
        qmc = pytest.importorskip("scipy.stats").qmc
        eng = qmc.Sobol(d=2, scramble=False)
        start = 0
        for n in (64, 1024, 4096, 8192):
            expected = eng.random(n)
            got = domains._sobol_points(start, n)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
            start += n

    def test_audits_do_not_import_scipy_stats(self):
        code = ("import sys\n"
                "import otflow.runner\n"
                "from otflow.config import load_scenario\n"
                "spec, _ = load_scenario('disk_cosine_perturbed')"
                ".build_problem()\n"
                "otflow.runner.convexity_audit(spec)\n"
                "print('scipy.stats' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(otflow.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestConvexityAudits:
    def test_disk_source_gives_curvature(self):
        for radius in (1.0, 2.0):
            spec = _spec("inner_product", Disk(radius), Disk(2.0))
            rep = check_c_convexity(spec, 96, 32)
            np.testing.assert_allclose(rep.min_value, 1.0 / radius, rtol=0.02)
            assert rep.y_variance <= 1e-12

    def test_disk_target_gives_curvature(self):
        spec = _spec("inner_product", Disk(1.0), Disk(2.0))
        rep = check_cstar_convexity(spec, 96, 32)
        np.testing.assert_allclose(rep.min_value, 0.5, rtol=0.02)

    def test_ellipse_target_minimum_curvature(self):
        ell = Ellipse(2.0, 1.0)
        spec = _spec("inner_product", Disk(1.0), ell)
        rep = check_cstar_convexity(spec, 256, 16)
        np.testing.assert_allclose(rep.min_value, ell.min_curvature(), rtol=0.01)

    def test_shift_cost_translates_keep_body_curvature(self):
        ell = Ellipse(1.5, 0.9, (4.0, 0.0))
        spec = _spec("neg_half_sq_dist", Ellipse(1.5, 0.9), ell)
        rep = check_cstar_convexity(spec, 256, 16)
        np.testing.assert_allclose(rep.min_value, ell.min_curvature(), rtol=0.01)

    def test_peanut_source_detected_with_witness(self):
        blob = CosineBlob(1.0, 0.3, 2)
        spec = _spec("inner_product", blob, Disk(2.0))
        rep = check_c_convexity(spec, 256, 16)
        assert rep.min_value < -0.1
        # the witness reproduces the reported minimum
        again = convexity_form(spec, "source", np.array([rep.argmin_s]),
                               rep.argmin_y[None, :])
        np.testing.assert_allclose(float(again[0, 0]), rep.min_value,
                                   atol=1e-12)

    @pytest.mark.parametrize("source,s_witness,ties", [
        (Disk(1.0), 0.0, 128 * 64),                 # every sample ties
        (CosineBlob(1.0, 0.3, 2), 0.25, 2 * 64),    # two mirror-image arcs
    ], ids=["disk", "peanut"])
    def test_witness_is_the_first_tie_in_row_major_order(
            self, monkeypatch, source, s_witness, ties):
        """Exactly tied samples pick the witness by their order, not by
        their last-ulp roundoff, and the minimum is the sampled one."""
        forms = []
        report = domains._convexity_report

        def recording(vals, *args):
            forms.append(vals)
            return report(vals, *args)

        monkeypatch.setattr(domains, "_convexity_report", recording)
        rep = check_c_convexity(_spec("inner_product", source, Disk(2.0)))
        assert (rep.argmin_s, rep.ties) == (s_witness, ties)
        assert rep.min_value == float(np.min(forms[0]))

    def test_minima_nonincreasing_with_samples(self):
        spec = _spec("sqrt_one_plus_sq_dist", Disk(0.5), Disk(0.5, (1.2, 0.0)))
        small = check_c_convexity(spec, 64, 16)
        big = check_c_convexity(spec, 128, 32)
        assert big.min_value <= small.min_value + 1e-12

    def test_sqrt_pair_positive_margins(self, sqrt_pair_spec):
        rep_c = check_c_convexity(sqrt_pair_spec, 96, 48)
        rep_s = check_cstar_convexity(sqrt_pair_spec, 96, 48)
        assert rep_c.min_value > 0.5
        assert rep_s.min_value > 0.5

    def test_G_hessian_matches_geometric_image_curvature(self, sqrt_pair_spec):
        # Differentiating h*(Y(x0, q(s))) = 0 twice along the image boundary
        # curve q(s) = grad_x c(x0, y(s)) gives the exact identity
        # q'^T G_pp q' = kappa_image |q'|^2 |beta| with the outward-oriented
        # image curvature; this ties the p-Hessian of G, the oblique
        # direction, and the image-curve curvature together with no shared
        # code paths.
        from otflow.km_geometry import coordinate_domain_II
        spec = sqrt_pair_spec
        x0 = np.array([0.2, 0.1])
        for s0 in (0.2, 0.55, 0.8):
            kappa_img = coordinate_domain_II(spec.cost, "target_image", x0,
                                             spec.target, s0)
            h = 1e-6
            qp = (spec.cost.grad_x(x0, spec.target.boundary_param(s0 + h))
                  - spec.cost.grad_x(x0, spec.target.boundary_param(s0 - h))) / (2 * h)
            y0 = spec.target.boundary_param(s0)
            p0 = spec.cost.grad_x(x0, y0)
            g_pp = spec.cost.G_hessian_p(spec.target, x0, p0, y=y0)
            beta = spec.cost.oblique_beta(spec.target, x0, p0, y=y0)
            lhs = float(qp @ g_pp @ qp)
            rhs = kappa_img * float(qp @ qp) * float(np.linalg.norm(beta))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-5)
        # and the boundary convexity form carries the image curvature's sign
        form = convexity_form(spec, "target", np.array([0.2]), x0[None, :])
        assert np.sign(form[0, 0]) == np.sign(
            coordinate_domain_II(spec.cost, "target_image", x0, spec.target, 0.2))


def _two_grid_masses(spec):
    """The masses as they were integrated: ``grid.integrate`` on a full
    CurvilinearGrid of each domain at VALIDATION_GRID."""
    gs = grid.CurvilinearGrid(spec.source, *domains.VALIDATION_GRID)
    gt = grid.CurvilinearGrid(spec.target, *domains.VALIDATION_GRID)
    return (grid.integrate(gs, spec.rho(gs.nodes)),
            grid.integrate(gt, spec.rho_star(gt.nodes)))


class TestMassQuadrature:
    """The masses come from the quadrature alone, bit for bit, and building
    a flow context builds no grid."""

    @pytest.mark.parametrize("src, tgt", [
        (Disk(1.0), Disk(2.0, (0.3, -0.1))),
        (Ellipse(1.3, 0.8), Ellipse(0.9, 1.1, (0.2, 0.0))),
        (CosineBlob(1.0, 0.2, 3), CosineBlob(1.5, 0.1, 2, (0.0, 0.4))),
    ], ids=["disk", "ellipse", "blob"])
    def test_masses_equal_the_two_grid_integrals(self, src, tgt):
        spec = ProblemSpec(src, tgt, costs.make_cost("inner_product"),
                           uniform_density(src), cosine_bump_density(tgt))
        assert spec.masses() == _two_grid_masses(spec)

    def test_quadrature_is_the_grids(self):
        dom = CosineBlob(1.0, 0.2, 3)
        g = grid.CurvilinearGrid(dom, 24, 48)
        nodes, weights = grid.quadrature(dom, 24, 48)
        assert nodes.tobytes() == g.nodes.tobytes()
        assert weights.tobytes() == g.weights.tobytes()

    @staticmethod
    def count_grids(monkeypatch):
        built = []
        init = grid.CurvilinearGrid.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(grid.CurvilinearGrid, "__init__", counting)
        return built

    def test_flow_context_builds_no_grid(self, perturbed_spec, monkeypatch):
        g = grid.CurvilinearGrid(perturbed_spec.source, 16, 32)
        built = self.count_grids(monkeypatch)
        ctx = flow.FlowContext(perturbed_spec, g)
        assert built == []
        assert ctx.target_mass == _two_grid_masses(perturbed_spec)[1]

    def test_flow_context_integrates_only_the_target(self, perturbed_spec,
                                                     monkeypatch):
        g = grid.CurvilinearGrid(perturbed_spec.source, 16, 32)
        calls = []
        quadrature = grid.quadrature

        def counting(domain, *args):
            calls.append(domain)
            return quadrature(domain, *args)

        monkeypatch.setattr(grid, "quadrature", counting)
        ctx = flow.FlowContext(perturbed_spec, g)
        assert calls == [perturbed_spec.target]
        assert ctx.target_mass == perturbed_spec.masses()[1]

    def test_loading_a_trajectory_builds_only_its_grid(self, sqrt_run_16,
                                                       tmp_path, monkeypatch):
        cfg = load_scenario("offset_disks_sqrt").with_overrides(grid=(16, 32))
        serialize.save_trajectory(tmp_path, sqrt_run_16, cfg.to_dict())
        built = self.count_grids(monkeypatch)
        traj, _ = serialize.load_trajectory(tmp_path)
        assert len(built) == 1
        assert (traj.grid.n_r, traj.grid.n_s) == (16, 32)


class TestValidateSpec:
    def test_uniform_disk_pair_valid(self, disk_pair_spec):
        assert validate_spec(disk_pair_spec) == []

    def test_scaled_density_reports_imbalance(self):
        src, tgt = Disk(1.0), Disk(2.0)
        spec = _spec("inner_product", src, tgt,
                     rho_star=uniform_density(tgt, scale=1.01))
        problems = validate_spec(spec)
        assert any(isinstance(p, MassImbalance) for p in problems)
        m_src, m_tgt = spec.masses()
        np.testing.assert_allclose(m_tgt - m_src, 0.01, atol=1e-4)

    def test_cosine_bump_valid(self, perturbed_spec):
        assert validate_spec(perturbed_spec) == []

    def test_density_bound_violation_detected(self):
        src, tgt = Disk(1.0), Disk(2.0)
        rho_bad = domains.Density(
            "bad", tgt, lambda y: np.full(y.shape[:-1], 1 / (4 * np.pi)),
            lambda y: np.zeros(y.shape), lo=1.0, hi=2.0)
        spec = _spec("inner_product", src, tgt, rho_star=rho_bad)
        problems = validate_spec(spec)
        assert any(isinstance(p, DensityOutOfBounds) for p in problems)


def test_registries():
    assert make_domain("disk", radius=2.0).radius == 2.0
    with pytest.raises(KeyError):
        make_domain("square")
    d = make_domain("disk", radius=1.0)
    assert make_density("uniform", d).name == "uniform"
    with pytest.raises(KeyError):
        make_density("gaussian", d)
