"""Cost calculus: derivative oracles, twist inversion, and derived objects.

Every analytic oracle is probed against centered finite differences of lower
derivatives, and the twist inverses are checked through the cost's own
gradient oracle (residual) and by round trips.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from otflow import costs, domains
from otflow._numerics import det2, inv2, matmul2, transpose2

ALL_COSTS = ["inner_product", "neg_half_sq_dist", "sqrt_one_plus_sq_dist"]


def sample_pairs(rng, n=12, spread=3.0):
    x = rng.normal(scale=0.5, size=(n, 2))
    y = rng.normal(scale=0.5, size=(n, 2)) + np.array([spread, 0.0])
    return x, y


def stripped(cost):
    """The same cost without analytic thirds: exercises the
    finite-difference fallbacks."""
    return costs.CostModel(cost.name + "_generic", cost._eval, cost._grad_x,
                           cost._grad_y, cost._cross, cost._hess_xx,
                           cost._invert_y, cost._invert_x)


@pytest.mark.parametrize("name", ALL_COSTS)
def test_gradients_match_finite_differences(name, rng):
    c = costs.make_cost(name)
    x, y = sample_pairs(rng)
    h = 1e-6
    for k, e in enumerate(np.eye(2)):
        gx = (c.eval(x + h * e, y) - c.eval(x - h * e, y)) / (2 * h)
        gy = (c.eval(x, y + h * e) - c.eval(x, y - h * e)) / (2 * h)
        np.testing.assert_allclose(gx, c.grad_x(x, y)[:, k], atol=5e-9)
        np.testing.assert_allclose(gy, c.grad_y(x, y)[:, k], atol=5e-9)


@pytest.mark.parametrize("name", ALL_COSTS)
def test_second_derivatives_match_finite_differences(name, rng):
    c = costs.make_cost(name)
    x, y = sample_pairs(rng)
    h = 1e-6
    for k, e in enumerate(np.eye(2)):
        cross = (c.grad_x(x, y + h * e) - c.grad_x(x, y - h * e)) / (2 * h)
        hxx = (c.grad_x(x + h * e, y) - c.grad_x(x - h * e, y)) / (2 * h)
        np.testing.assert_allclose(cross, c.cross_hessian(x, y)[..., k], atol=2e-8)
        np.testing.assert_allclose(hxx, c.hess_xx(x, y)[..., k], atol=2e-8)


@pytest.mark.parametrize("name", ALL_COSTS)
def test_analytic_thirds_match_fd_fallback(name, rng):
    c = costs.make_cost(name)
    generic = stripped(c)
    x, y = sample_pairs(rng, n=6)
    np.testing.assert_allclose(c.third_xxy(x, y), generic.third_xxy(x, y),
                               atol=5e-7)
    np.testing.assert_allclose(c.third_xyy(x, y), generic.third_xyy(x, y),
                               atol=5e-7)


def test_derivative_bundle_symmetries(rng):
    c = costs.make_cost("sqrt_one_plus_sq_dist")
    x, y = sample_pairs(rng, n=1)
    hxx = c.hess_xx(x[0], y[0])
    assert np.max(np.abs(hxx - hxx.T)) <= 1e-12
    # the cross block transposes into the (y, x) block
    h = 1e-6
    dyx = np.empty((2, 2))
    for k, e in enumerate(np.eye(2)):
        dyx[:, k] = (c.grad_y(x[0] + h * e, y[0]) - c.grad_y(x[0] - h * e, y[0])) / (2 * h)
    np.testing.assert_allclose(c.cross_hessian(x[0], y[0]), dyx.T, atol=1e-8)


class TestTwistInversion:
    def test_inner_product_inverse_is_identity_in_p(self):
        c = costs.make_cost("inner_product")
        x = np.array([0.7, -0.3])
        p = np.array([0.3, -0.1])
        np.testing.assert_allclose(c.invert_Y(x, p), [0.3, -0.1], atol=1e-14)
        np.testing.assert_allclose(c.invert_X(p, x), p, atol=1e-14)

    def test_shift_cost_translates(self):
        c = costs.make_cost("neg_half_sq_dist")
        y = c.invert_Y(np.array([0.1, 0.2]), np.array([0.5, 0.0]))
        np.testing.assert_allclose(y, [0.6, 0.2], atol=1e-14)
        x = c.invert_X(np.array([0.5, 0.0]), np.array([0.1, 0.2]))
        np.testing.assert_allclose(x, [0.6, 0.2], atol=1e-14)

    @pytest.mark.parametrize("name", ALL_COSTS)
    def test_round_trip_through_both_inverses(self, name, rng):
        c = costs.make_cost(name)
        x, y = sample_pairs(rng, n=16)
        y_hat = c.invert_Y(x, c.grad_x(x, y))
        np.testing.assert_allclose(y_hat, y, atol=1e-11)
        x_hat = c.invert_X(c.grad_y(x, y_hat), y_hat)
        np.testing.assert_allclose(x_hat, x, atol=1e-11)


@pytest.mark.parametrize("name", ALL_COSTS)
@seed(20261018)
@settings(max_examples=100, deadline=None, database=None)
@given(x=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       angle=st.floats(0.0, 2 * np.pi), radius=st.floats(0.0, 0.95))
def test_twist_inverse_solves_the_twist_equation(name, x, angle, radius):
    # grad_x c(x, Y(x, p)) = p; the sqrt cost's twist map reaches |p| < 1 only
    c = costs.make_cost(name)
    scale = 1.0 if name == "sqrt_one_plus_sq_dist" else 3.0
    x = np.array(x)
    p = scale * radius * np.array([np.cos(angle), np.sin(angle)])
    np.testing.assert_allclose(c.grad_x(x, c.invert_Y(x, p)), p, rtol=0, atol=1e-12)


class TestMatrixA:
    def test_inner_product_vanishes(self, rng):
        c = costs.make_cost("inner_product")
        x, _ = sample_pairs(rng, n=4)
        assert np.abs(c.matrix_A(x, x * 0.3)).max() == 0.0

    def test_shift_cost_is_minus_identity(self, rng):
        c = costs.make_cost("neg_half_sq_dist")
        x, _ = sample_pairs(rng, n=4)
        a = c.matrix_A(x, x * 0.2)
        np.testing.assert_allclose(a, np.broadcast_to(-np.eye(2), a.shape),
                                   atol=1e-14)

    def test_matches_twist_jacobian_form(self, rng):
        # A and -(D_p Y)^{-1} D_x Y are computed along independent routes
        c = costs.make_cost("sqrt_one_plus_sq_dist")
        x = 0.3 * rng.normal(size=(8, 2))
        y = np.array([2.0, 0.5]) + 0.3 * rng.normal(size=(8, 2))
        p = c.grad_x(x, y)
        a = c.matrix_A(x, p)
        a_alt = c.matrix_A_alt(x, p)
        assert np.abs(a - a_alt).max() <= 1e-6
        assert np.abs(a - transpose2(a)).max() <= 1e-10


class TestScalarB:
    def test_uniform_disk_pair_is_four(self, rng, disk_pair_spec):
        spec = disk_pair_spec
        x = 0.4 * rng.normal(size=(8, 2))
        b = spec.cost.scalar_B(spec.rho, spec.rho_star, x, 1.2 * x)
        np.testing.assert_allclose(b, 4.0, atol=1e-13)

    def test_shift_between_translates_is_one(self, rng):
        c = costs.make_cost("neg_half_sq_dist")
        src = domains.Disk(1.0)
        tgt = domains.Disk(1.0, (3.0, 0.0))
        rho = domains.uniform_density(src)
        rho_star = domains.uniform_density(tgt)
        x = 0.4 * rng.normal(size=(8, 2))
        b = c.scalar_B(rho, rho_star, x, np.array([3.0, 0.0]) + 0.0 * x)
        np.testing.assert_allclose(b, 1.0, atol=1e-13)

    def test_nonuniform_matches_independent_evaluation(self, rng):
        c = costs.make_cost("sqrt_one_plus_sq_dist")
        src = domains.Disk(0.5)
        tgt = domains.Disk(0.5, (1.2, 0.0))
        rho = domains.uniform_density(src)
        rho_star = domains.cosine_bump_density(tgt, eps=0.2, k=2)
        x = 0.2 * rng.normal(size=(10, 2))
        y = np.array([1.2, 0.0]) + 0.2 * rng.normal(size=(10, 2))
        p = c.grad_x(x, y)
        got = c.scalar_B(rho, rho_star, x, p)
        # direct formula with library linear algebra, nothing shared
        want = np.array([
            abs(np.linalg.det(c.cross_hessian(x[i], y[i]))) * rho(x[i])
            / rho_star(y[i]) for i in range(len(x))])
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestBoundaryG:
    def test_disk_levels(self):
        c = costs.make_cost("inner_product")
        tgt = domains.Disk(2.0)
        x = np.array([0.3, 0.1])
        assert abs(c.boundary_G(tgt, x, np.array([2.0, 0.0]))) <= 1e-14
        np.testing.assert_allclose(c.boundary_G(tgt, x, np.array([1.0, 0.0])),
                                   -1.0, atol=1e-14)

    def test_sign_classifies_membership(self, rng):
        c = costs.make_cost("sqrt_one_plus_sq_dist")
        tgt = domains.Ellipse(1.5, 0.9, (2.5, 0.0))
        x = 0.2 * rng.normal(size=(100, 2))
        y = np.array([2.5, 0.0]) + rng.uniform(-1.6, 1.6, size=(100, 2))
        p = c.grad_x(x, y)
        g = c.boundary_G(tgt, x, p)
        inside = ((y[:, 0] - 2.5) / 1.5) ** 2 + (y[:, 1] / 0.9) ** 2 < 1
        assert np.all((g < 0) == inside)


class TestObliqueBeta:
    def test_inner_product_reduces_to_target_normal_gradient(self, rng):
        c = costs.make_cost("inner_product")
        tgt = domains.Disk(2.0)
        x = 0.3 * rng.normal(size=(6, 2))
        p = np.array([1.5, 0.5]) + 0.1 * rng.normal(size=(6, 2))
        np.testing.assert_allclose(c.oblique_beta(tgt, x, p), tgt.h_grad(p),
                                   atol=1e-13)

    def test_shift_cost_shifts_argument(self, rng):
        c = costs.make_cost("neg_half_sq_dist")
        tgt = domains.Disk(1.0, (3.0, 0.0))
        x = 0.3 * rng.normal(size=(6, 2))
        p = np.array([2.7, 0.0]) - x + 0.05 * rng.normal(size=(6, 2))
        np.testing.assert_allclose(c.oblique_beta(tgt, x, p),
                                   tgt.h_grad(x + p), atol=1e-13)

    @pytest.mark.parametrize("name", ALL_COSTS)
    def test_is_p_gradient_of_G(self, name, rng):
        c = costs.make_cost(name)
        tgt = domains.Disk(0.9, (2.2, 0.3)) if name != "inner_product" \
            else domains.Disk(2.0)
        x = 0.25 * rng.normal(size=(6, 2))
        if name == "inner_product":
            p = np.array([1.2, 0.4]) + 0.1 * rng.normal(size=(6, 2))
        else:
            y = tgt.center + 0.3 * rng.normal(size=(6, 2))
            p = c.grad_x(x, y)
        h = 1e-5
        fd = np.empty((6, 2))
        for k, e in enumerate(np.eye(2)):
            # fourth-order central difference, as in criterion 7: the twist
            # derivatives of the sqrt cost grow as |p| -> 1, so a
            # second-order probe would be dominated by its own truncation
            # there; with it the tolerances below need no widening
            fd[:, k] = (8 * (c.boundary_G(tgt, x, p + h * e)
                             - c.boundary_G(tgt, x, p - h * e))
                        - (c.boundary_G(tgt, x, p + 2 * h * e)
                           - c.boundary_G(tgt, x, p - 2 * h * e))) / (12 * h)
        np.testing.assert_allclose(c.oblique_beta(tgt, x, p), fd,
                                   rtol=5e-6, atol=2e-7)


def test_G_hessian_matches_fd(rng):
    c = costs.make_cost("sqrt_one_plus_sq_dist")
    tgt = domains.Disk(0.5, (1.2, 0.0))
    x = np.array([0.1, -0.2])
    y = np.array([1.3, 0.1])
    p = c.grad_x(x, y)
    got = c.G_hessian_p(tgt, x, p)
    h = 2e-5
    fd = np.empty((2, 2))
    for k, ek in enumerate(np.eye(2)):
        fd[:, k] = (c.oblique_beta(tgt, x, p + h * ek)
                    - c.oblique_beta(tgt, x, p - h * ek)) / (2 * h)
    np.testing.assert_allclose(got, fd, rtol=5e-6, atol=2e-6)
    np.testing.assert_allclose(got, got.T, atol=1e-10)


class TestMTW:
    @pytest.mark.parametrize("name", ["inner_product", "neg_half_sq_dist"])
    def test_vanishes_for_p_affine_A(self, name, rng):
        c = costs.make_cost(name)
        x = 0.3 * rng.normal(size=(5, 2))
        p = 0.3 * rng.normal(size=(5, 2))
        xi = rng.normal(size=(5, 2))
        eta = rng.normal(size=(5, 2))
        assert np.abs(c.mtw_tensor(x, p, xi, eta)).max() <= 1e-8

    def test_fd_value_converges_at_second_order(self):
        c = costs.make_cost("sqrt_one_plus_sq_dist")
        x = np.array([0.2, 0.1])
        y = np.array([2.0, 0.4])
        p = c.grad_x(x, y)
        xi = np.array([1.0, 0.3])
        eta = np.array([-0.3, 1.0])
        vals = [c.mtw_tensor(x, p, xi, eta, h=h) for h in (4e-3, 2e-3, 1e-3)]
        ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
        assert 2.8 <= ratio <= 5.5   # Richardson ratio near 4


def test_cross_inverse_index_convention(rng):
    # inv(C) @ C = identity with the (target, source) index order
    c = costs.make_cost("sqrt_one_plus_sq_dist")
    x, y = sample_pairs(rng, n=4)
    C = c.cross_hessian(x, y)
    eye = matmul2(inv2(C), C)
    np.testing.assert_allclose(eye, np.broadcast_to(np.eye(2), eye.shape),
                               atol=1e-12)
    assert np.all(np.abs(det2(C)) > 0)


@pytest.mark.parametrize("name", costs.available_costs())
def test_hess_xx_is_symmetric_bitwise(name):
    """W keeps one off-diagonal plane, so D_xx c must have W_01 = W_10 bit
    for bit, the sign of a zero included."""
    cost = costs.make_cost(name)
    rng = np.random.default_rng(7)
    x = rng.uniform(-2.0, 2.0, size=(500, 2))
    y = rng.uniform(-2.0, 2.0, size=(500, 2))
    a = cost.hess_xx(x, y)
    assert a[..., 0, 1].tobytes() == a[..., 1, 0].tobytes()
