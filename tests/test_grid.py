"""Boundary-fitted grid: calculus exactness, convergence orders, quadrature,
and the boundary directional derivative."""

import numpy as np
import pytest
import scipy.special

from otflow import domains, grid
from otflow.errors import TangentDirection
from otflow.grid import (CurvilinearGrid, directional_derivative_at_boundary,
                         gradient, hessian, integrate)

DISK = domains.Disk(1.0)


@pytest.fixture(scope="module")
def g32():
    return CurvilinearGrid(DISK, 32, 64)


class TestExactness:
    def test_gradient_of_linear_field(self, g32):
        f = g32.scalar(g32.nodes[..., 0] - 2.0 * g32.nodes[..., 1] + 0.3)
        gx = gradient(g32, f)
        assert np.abs(gx.data - np.array([1.0, -2.0])).max() <= 1e-10

    def test_gradient_of_constant_vanishes(self, g32):
        gx = gradient(g32, g32.scalar(np.full((32, 64), 0.7)))
        assert np.abs(gx.data).max() <= 1e-12

    def test_quadratics_are_exact_on_the_disk_grid(self, g32):
        f2 = g32.scalar((g32.nodes ** 2).sum(-1))
        assert np.abs(gradient(g32, f2).data - 2 * g32.nodes).max() <= 1e-10
        assert np.abs(hessian(g32, f2).data - 2 * np.eye(2)).max() <= 1e-10
        fx = g32.scalar(g32.nodes[..., 0] * g32.nodes[..., 1])
        h = hessian(g32, fx)
        assert np.abs(h.data - np.array([[0.0, 1.0], [1.0, 0.0]])).max() <= 1e-10

    def test_hessian_of_linear_vanishes(self, g32):
        h = hessian(g32, g32.scalar(g32.nodes[..., 0]))
        assert np.abs(h.data).max() <= 1e-10


@pytest.mark.parametrize("dom", [DISK, domains.Ellipse(1.3, 0.8)],
                         ids=["disk", "ellipse"])
def test_convergence_orders_on_smooth_field(dom):
    # exp is not a trigonometric polynomial on the rings, so both the radial
    # stencils and the quadrature see genuine truncation error
    errs = []
    for n in (16, 32, 64):
        g = CurvilinearGrid(dom, n, 2 * n)
        ex = np.exp(g.nodes[..., 0] + 0.5 * g.nodes[..., 1])
        f = g.scalar(ex)
        ge = np.abs(g.grad_values(ex) - ex[..., None] * np.array([1.0, 0.5])).max()
        he = np.abs(hessian(g, f).data
                    - ex[..., None, None] * np.array([[1.0, 0.5], [0.5, 0.25]])).max()
        errs.append((ge, he))
    for k in range(2):
        assert errs[0][k] / errs[1][k] >= 3.5
        assert errs[1][k] / errs[2][k] >= 3.5


@pytest.mark.parametrize("dom", [DISK, domains.Ellipse(1.3, 0.8),
                                 domains.CosineBlob(1.0, 0.2, 3)],
                         ids=["disk", "ellipse", "blob"])
def test_gradient_paths_agree_bitwise(dom, rng):
    # the odd-k blob is not centrally symmetric: one-sided innermost stencil
    g = CurvilinearGrid(dom, 24, 48)
    a = np.exp(g.nodes[..., 0]) + rng.normal(size=(24, 48))
    assert np.array_equal(g.grad_values(a), g.scalar_calculus(a)[0])


def test_integration_values(g32):
    assert abs(integrate(g32, g32.scalar(np.ones((32, 64)))) - np.pi) <= 1e-12
    rho = g32.scalar(np.full((32, 64), 1 / np.pi))
    assert abs(integrate(g32, rho) - 1.0) <= 1e-12
    f2 = g32.scalar((g32.nodes ** 2).sum(-1))
    assert abs(integrate(g32, f2) - np.pi / 2) <= 1e-3


def test_integration_convergence_order():
    ref = 2 * np.pi * scipy.special.iv(1, 1.0)   # integral of exp(x1)
    errs = []
    for n in (16, 32, 64):
        g = CurvilinearGrid(DISK, n, 2 * n)
        errs.append(abs(integrate(g, g.scalar(np.exp(g.nodes[..., 0]))) - ref))
    assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5


def test_operators_are_linear(g32, rng):
    f1 = rng.normal(size=(32, 64))
    f2 = rng.normal(size=(32, 64))
    a, b = 1.7, -0.4
    combo = g32.scalar(a * f1 + b * f2)
    lhs = gradient(g32, combo).data
    rhs = a * gradient(g32, g32.scalar(f1)).data + b * gradient(g32, g32.scalar(f2)).data
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1, np.abs(rhs).max())
    lhs_h = hessian(g32, combo).data
    rhs_h = a * hessian(g32, g32.scalar(f1)).data + b * hessian(g32, g32.scalar(f2)).data
    assert np.abs(lhs_h - rhs_h).max() <= 1e-9 * max(1, np.abs(rhs_h).max())
    assert abs(integrate(g32, combo)
               - a * integrate(g32, g32.scalar(f1))
               - b * integrate(g32, g32.scalar(f2))) <= 1e-12


class TestBoundaryDirectionalDerivative:
    def test_linear_exactness(self, g32):
        f = g32.scalar(g32.nodes[..., 0])
        val = directional_derivative_at_boundary(g32, f, 0, np.array([1.0, 0.0]))
        assert abs(val - 1.0) <= 1e-8

    def test_radial_derivative_of_square(self):
        errs = []
        for n in (16, 32):
            g = CurvilinearGrid(DISK, n, 2 * n)
            f = g.scalar(np.exp((g.nodes ** 2).sum(-1)))
            j = 5
            nu = g.boundary_normals[j]
            val = directional_derivative_at_boundary(g, f, j, nu)
            errs.append(abs(val - 2 * np.e))
        assert errs[0] <= 0.1 and errs[0] / errs[1] >= 3.0

    def test_scales_with_direction_length(self, g32):
        f = g32.scalar(g32.nodes[..., 0])
        v1 = directional_derivative_at_boundary(g32, f, 3, np.array([0.5, 0.0]))
        v2 = directional_derivative_at_boundary(g32, f, 3, np.array([1.0, 0.0]))
        np.testing.assert_allclose(2 * v1, v2, rtol=1e-10)

    def test_inward_direction_flips_sign(self, g32):
        f = g32.scalar(g32.nodes[..., 0])
        nu = g32.boundary_normals[0]
        v_out = directional_derivative_at_boundary(g32, f, 0, nu)
        v_in = directional_derivative_at_boundary(g32, f, 0, -nu)
        np.testing.assert_allclose(v_out, -v_in, rtol=1e-10)

    def test_tangent_direction_rejected(self, g32):
        f = g32.scalar(g32.nodes[..., 0])
        tan = DISK.boundary_tangent(g32.s[7])
        with pytest.raises(TangentDirection):
            directional_derivative_at_boundary(g32, f, 7, tan)


class TestFieldValidation:
    def test_shape_checks(self, g32):
        with pytest.raises(ValueError):
            g32.scalar(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            g32.vector(np.zeros((32, 64)))

    def test_matrix_symmetry_enforced(self, g32, rng):
        bad = rng.normal(size=(32, 64, 2, 2))
        with pytest.raises(ValueError):
            g32.matrix(bad)
        sym = g32.matrix(bad, symmetrize=True)
        assert np.abs(sym.data - np.swapaxes(sym.data, -1, -2)).max() == 0

    def test_foreign_field_rejected(self, g32):
        other = CurvilinearGrid(DISK, 16, 32)
        f = other.scalar(np.zeros((16, 32)))
        with pytest.raises(ValueError):
            gradient(g32, f)


class TestCenterTreatment:
    def test_symmetric_and_one_sided_paths_agree_on_linears(self):
        # odd-k blob breaks central symmetry: the one-sided radial path
        dom_sym = domains.CosineBlob(1.0, 0.2, 2)
        dom_asym = domains.CosineBlob(1.0, 0.2, 3)
        for dom, sym in ((dom_sym, True), (dom_asym, False)):
            g = CurvilinearGrid(dom, 24, 48)
            assert g.center_symmetric == sym
            f = g.scalar(g.nodes[..., 1])
            assert np.abs(g.grad_values(f.data) - np.array([0.0, 1.0])).max() <= 1e-9

    def test_pole_projection_preserves_consistent_fields(self, g32):
        # harmonic-polynomial fields follow the radial law the projection
        # enforces, so they pass through unchanged
        x = g32.nodes
        for f in ((x ** 2).sum(-1), x[..., 0] ** 2 - x[..., 1] ** 2, x[..., 0]):
            out = g32.apply_pole_projection(f.copy())
            assert np.abs(out - f).max() <= 1e-12

    def test_pole_projection_idempotent(self, g32, rng):
        f = rng.normal(size=(32, 64))
        once = g32.apply_pole_projection(f)
        twice = g32.apply_pole_projection(once)
        assert np.abs(once - twice).max() <= 1e-12

    def test_pole_projection_caps_unstable_modes(self, g32):
        # a pure high mode at the innermost ring is replaced by its (tiny)
        # radial extrapolation
        f = np.zeros((32, 64))
        f[0] = np.cos(2 * np.pi * 20 * g32.s)
        out = g32.apply_pole_projection(f)
        assert np.abs(out[0]).max() <= 1e-6


def test_grid_geometry_invariants():
    for dom in (DISK, domains.Ellipse(1.3, 0.8), domains.CosineBlob(1.0, 0.2, 3)):
        g = CurvilinearGrid(dom, 24, 48)
        assert g.det_jac.min() > 0
        assert np.abs(dom.h(g.nodes[-1])).max() <= 1e-10
        assert g.weights.min() > 0
        assert g.r[-1] == 1.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        CurvilinearGrid(DISK, 3, 64)
    with pytest.raises(ValueError):
        CurvilinearGrid(DISK, 16, 31)
