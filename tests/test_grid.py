"""Boundary-fitted grid: calculus exactness, convergence orders, quadrature,
and the boundary directional derivative."""

import numpy as np
import pytest
import scipy.special

from otflow import domains, grid
from otflow._numerics import norm2
from otflow.config import load_scenario
from otflow.grid import (CurvilinearGrid, directional_derivative_at_boundary,
                         integrate)

DISK = domains.Disk(1.0)


@pytest.fixture(scope="module")
def g32():
    return CurvilinearGrid(DISK, 32, 64)


class TestExactness:
    def test_gradient_of_linear_field(self, g32):
        f = g32.nodes[..., 0] - 2.0 * g32.nodes[..., 1] + 0.3
        gx = g32.grad_values(f)
        assert np.abs(gx - np.array([1.0, -2.0])).max() <= 1e-10

    def test_gradient_of_constant_vanishes(self, g32):
        gx = g32.grad_values(np.full((32, 64), 0.7))
        assert np.abs(gx).max() <= 1e-12

    def test_quadratics_are_exact_on_the_disk_grid(self, g32):
        f2 = (g32.nodes ** 2).sum(-1)
        assert np.abs(g32.grad_values(f2) - 2 * g32.nodes).max() <= 1e-10
        assert np.abs(g32.scalar_calculus(f2)[1] - 2 * np.eye(2)).max() <= 1e-10
        fx = g32.nodes[..., 0] * g32.nodes[..., 1]
        h = g32.scalar_calculus(fx)[1]
        assert np.abs(h - np.array([[0.0, 1.0], [1.0, 0.0]])).max() <= 1e-10

    def test_hessian_of_linear_vanishes(self, g32):
        h = g32.scalar_calculus(g32.nodes[..., 0])[1]
        assert np.abs(h).max() <= 1e-10


@pytest.mark.parametrize("dom", [DISK, domains.Ellipse(1.3, 0.8)],
                         ids=["disk", "ellipse"])
def test_convergence_orders_on_smooth_field(dom):
    # exp is not a trigonometric polynomial on the rings, so both the radial
    # stencils and the quadrature see genuine truncation error
    errs = []
    for n in (16, 32, 64):
        g = CurvilinearGrid(dom, n, 2 * n)
        ex = np.exp(g.nodes[..., 0] + 0.5 * g.nodes[..., 1])
        ge = np.abs(g.grad_values(ex) - ex[..., None] * np.array([1.0, 0.5])).max()
        he = np.abs(g.scalar_calculus(ex)[1]
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


@pytest.mark.parametrize("dom", [DISK, domains.Ellipse(1.3, 0.8),
                                 domains.CosineBlob(1.0, 0.2, 3)],
                         ids=["disk", "ellipse", "blob"])
def test_gradient_paths_agree_bitwise_at_64x128(dom, rng):
    # the gradient-only path runs half the products of the full kernel
    g = CurvilinearGrid(dom, 64, 128)
    a = np.exp(g.nodes[..., 0]) + rng.normal(size=(64, 128))
    assert np.array_equal(g.grad_values(a), g.scalar_calculus(a)[0])


def _chain_rule(g, arr, fr, fs, frs, fss, frr):
    """The componentwise chain rule from the logical derivatives, through
    strided ``jinv`` views, in any float dtype."""
    dt = fr.dtype
    ji = g.jinv.astype(dt)
    a, b = ji[..., 0, 0], ji[..., 1, 0]
    c, d = ji[..., 0, 1], ji[..., 1, 1]
    gx = np.empty(arr.shape + (2,), dt)
    gx[..., 0] = a * fr + b * fs
    gx[..., 1] = c * fr + d * fs
    x_rs = g._vp.astype(dt)
    x_ss = g.r.astype(dt)[:, None, None] * g._vpp.astype(dt)
    h_rs = frs - (x_rs[None, :, 0] * gx[..., 0] + x_rs[None, :, 1] * gx[..., 1])
    h_ss = fss - (x_ss[..., 0] * gx[..., 0] + x_ss[..., 1] * gx[..., 1])
    hess = np.empty(arr.shape + (2, 2), dt)
    hess[..., 0, 0] = a * a * frr + 2 * a * b * h_rs + b * b * h_ss
    hess[..., 0, 1] = a * c * frr + (a * d + b * c) * h_rs + b * d * h_ss
    hess[..., 1, 0] = hess[..., 0, 1]
    hess[..., 1, 1] = c * c * frr + 2 * c * d * h_rs + d * d * h_ss
    return gx, hess


def _wide_rings(g):
    """The rings that take the wide centered d/dr stencil."""
    if not g.center_symmetric:
        return 0
    return min(g.n_r - 3, int(np.searchsorted(g.r, 0.3)))


def _reference_scalar_calculus(g, arr):
    """The kernel the grid's tables must reproduce bit for bit, written out:
    the cardinal-derivative matrices from the transforms of the identity,
    the radial stencils as explicit coefficients of a dense matrix over the
    rings under their np.roll ghost rows, the shift by arr[0, 0], the two
    products, and the componentwise chain rule."""
    n_r, n_s, dr = g.n_r, g.n_s, g.dr
    k = 2 * np.pi * np.fft.rfftfreq(n_s, d=g.ds)
    ik = 1j * k
    ik[-1] = 0.0
    eye_hat = np.fft.rfft(np.eye(n_s), axis=1)
    card = np.concatenate([np.fft.irfft(eye_hat * ik, n=n_s, axis=1),
                           np.fft.irfft(eye_hat * -k ** 2, n=n_s, axis=1)],
                          axis=1)

    # columns: ghost of ring 1, ghost of ring 0, then ring j at j + 2;
    # rows: d/dr of ring i at i, d^2/dr^2 of ring i at n_r + i
    rad = np.zeros((2 * n_r, n_r + 2))
    for i in range(n_r):
        c = i + 2
        if i < _wide_rings(g):
            rad[i, c - 2] = 1 / (12 * dr)
            rad[i, c - 1] = -8 / (12 * dr)
            rad[i, c + 1] = 8 / (12 * dr)
            rad[i, c + 2] = -1 / (12 * dr)
        elif i == 0:
            rad[i, c] = -3 / (2 * dr)
            rad[i, c + 1] = 4 / (2 * dr)
            rad[i, c + 2] = -1 / (2 * dr)
        elif i == n_r - 1:
            rad[i, c - 2] = 1 / (2 * dr)
            rad[i, c - 1] = -4 / (2 * dr)
            rad[i, c] = 3 / (2 * dr)
        else:
            rad[i, c - 1] = -1 / (2 * dr)
            rad[i, c + 1] = 1 / (2 * dr)
        if i == 0 and not g.center_symmetric:
            rad[n_r, c:c + 4] = [2 / dr ** 2, -5 / dr ** 2, 4 / dr ** 2, -1 / dr ** 2]
        elif i == n_r - 1:
            rad[n_r + i, c - 3:c + 1] = [-1 / dr ** 2, 4 / dr ** 2, -5 / dr ** 2,
                                         2 / dr ** 2]
        else:
            rad[n_r + i, c - 1:c + 2] = [1 / dr ** 2, -2 / dr ** 2, 1 / dr ** 2]

    f = arr - arr[0, 0]
    ang = f @ card
    fs, fss = ang[:, :n_s], ang[:, n_s:]
    body = np.concatenate([f, fs], axis=1)
    ghosts = np.concatenate([np.roll(f[[1, 0]], -(n_s // 2), axis=1),
                             np.roll(fs[[1, 0]], -(n_s // 2), axis=1)], axis=1)
    out = rad @ np.concatenate([ghosts, body])
    fr, frs, frr = out[:n_r, :n_s], out[:n_r, n_s:], out[n_r:, :n_s]
    return _chain_rule(g, arr, fr, fs, frs, fss, frr)


def _fft_reference_scalar_calculus(g, arr, dtype=float):
    """The FFT-and-stencil formulas the table kernel replaced, evaluated in
    ``dtype``: spectral angular derivatives, radial stencils with np.roll
    ghost rows across the center, and the componentwise chain rule."""
    arr = np.asarray(arr, dtype)
    half = g.n_s // 2
    dr = dtype(2) / dtype(2 * g.n_r - 1)

    def ghost(a, row):
        return np.roll(a[row], -half, axis=0)

    def d_r(a):
        out = np.empty_like(a)
        out[1:-1] = (a[2:] - a[:-2]) / (2 * dr)
        if g.center_symmetric:
            out[0] = (a[1] - ghost(a, 0)) / (2 * dr)
            ext = np.concatenate([ghost(a, 1)[None], ghost(a, 0)[None], a], axis=0)
            i = np.arange(_wide_rings(g))
            out[i] = (-ext[i + 4] + 8 * ext[i + 3]
                      - 8 * ext[i + 1] + ext[i]) / (12 * dr)
        else:
            out[0] = (-3 * a[0] + 4 * a[1] - a[2]) / (2 * dr)
        out[-1] = (3 * a[-1] - 4 * a[-2] + a[-3]) / (2 * dr)
        return out

    def d_rr(a):
        out = np.empty_like(a)
        out[1:-1] = (a[2:] - 2 * a[1:-1] + a[:-2]) / dr ** 2
        if g.center_symmetric:
            out[0] = (a[1] - 2 * a[0] + ghost(a, 0)) / dr ** 2
        else:
            out[0] = (2 * a[0] - 5 * a[1] + 4 * a[2] - a[3]) / dr ** 2
        out[-1] = (2 * a[-1] - 5 * a[-2] + 4 * a[-3] - a[-4]) / dr ** 2
        return out

    k = 2 * np.arccos(dtype(-1)) * np.arange(half + 1).astype(dtype)
    ik = 1j * k
    ik[-1] = 0.0
    fhat = np.fft.rfft(arr, axis=1)
    fs = np.fft.irfft(fhat * ik, n=g.n_s, axis=1)
    fss = np.fft.irfft(fhat * -k ** 2, n=g.n_s, axis=1)
    return _chain_rule(g, arr, d_r(arr), fs, d_r(fs), fss, d_rr(arr))


def _reference_pole_projection(g, values):
    """The pole projection as a 2-D gather of each ring's source rings."""
    cut = g._pole_cut
    fhat = np.fft.rfft(values[:cut], axis=1)
    n_m = fhat.shape[1]
    cols = np.arange(n_m)[None, :]
    # the plan's flat indices name a source ring and this column
    src1, src2 = g._pole_take // n_m
    assert np.all(g._pole_take % n_m == cols)
    w1, w2 = g._pole_w
    out = w1 * fhat[src1, cols] + w2 * fhat[src2, cols]
    res = values.copy()
    res[:cut] = np.fft.irfft(out, n=g.n_s, axis=1)
    return res


@pytest.mark.parametrize("dom,symmetric", [
    (DISK, True),                               # wide inner stencil
    (domains.Ellipse(1.3, 0.8), True),
    (domains.CosineBlob(1.0, 0.2, 3), False),   # one-sided inner ring
], ids=["disk", "ellipse", "blob"])
@pytest.mark.parametrize("shape", [(4, 8), (24, 48), (32, 64)],
                         ids=["4x8", "24x48", "32x64"])
def test_kernels_match_the_componentwise_reference_bitwise(dom, symmetric, shape,
                                                           rng):
    g = CurvilinearGrid(dom, *shape)
    assert g.center_symmetric == symmetric
    assert g._pole_active
    for f in (np.exp(g.nodes[..., 0] + 0.5 * g.nodes[..., 1]),
              rng.normal(size=shape)):
        grad, hess = g.scalar_calculus(f)
        ref_grad, ref_hess = _reference_scalar_calculus(g, f)
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(hess, ref_hess)
        assert hess.flags.c_contiguous and grad.flags.c_contiguous
        assert np.array_equal(g.apply_pole_projection(f),
                              _reference_pole_projection(g, f))


@pytest.mark.parametrize("dom", [DISK, domains.Ellipse(1.3, 0.8),
                                 domains.CosineBlob(1.0, 0.2, 3)],
                         ids=["disk", "ellipse", "blob"])
@pytest.mark.parametrize("shape", [(4, 8), (24, 48), (32, 64)],
                         ids=["4x8", "24x48", "32x64"])
def test_kernel_matches_the_fft_formulas(dom, shape, rng):
    g = CurvilinearGrid(dom, *shape)
    noise = rng.normal(size=shape)
    for new, old in zip(g.scalar_calculus(noise),
                        _fft_reference_scalar_calculus(g, noise)):
        assert np.abs(new - old).max() <= 1e-13 * np.abs(old).max()
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        return
    # On a smooth field the Hessian's 1/r^2 metric factors near the center
    # amplify the roundoff of f_ss: at 32x64 the FFT formulas in double are
    # 1.4e-10 of max |H| off their own long-double evaluation. The table
    # kernel must be at least as close to it, up to a few ulps.
    smooth = np.exp(g.nodes[..., 0] + 0.5 * g.nodes[..., 1])
    exact = _fft_reference_scalar_calculus(g, smooth, np.longdouble)
    double = _fft_reference_scalar_calculus(g, smooth)
    for new, old, ref in zip(g.scalar_calculus(smooth), double, exact):
        scale = float(np.abs(ref).max())
        assert (float(np.abs(new - ref).max())
                <= float(np.abs(old - ref).max()) + 1e-14 * scale)


@pytest.mark.parametrize("dom", [DISK, domains.Ellipse(1.3, 0.8),
                                 domains.CosineBlob(1.0, 0.2, 3)],
                         ids=["disk", "ellipse", "blob"])
def test_constants_map_to_exactly_zero(dom):
    g = CurvilinearGrid(dom, 32, 64)
    for c in (0.7, -3.1e3):
        f = np.full((32, 64), c)
        grad, hess = g.scalar_calculus(f)
        assert not grad.any() and not hess.any()
        assert not g.grad_values(f).any()


def test_integration_values(g32):
    assert abs(integrate(g32, np.ones((32, 64))) - np.pi) <= 1e-12
    rho = np.full((32, 64), 1 / np.pi)
    assert abs(integrate(g32, rho) - 1.0) <= 1e-12
    f2 = (g32.nodes ** 2).sum(-1)
    assert abs(integrate(g32, f2) - np.pi / 2) <= 1e-3


def test_integration_convergence_order():
    ref = 2 * np.pi * scipy.special.iv(1, 1.0)   # integral of exp(x1)
    errs = []
    for n in (16, 32, 64):
        g = CurvilinearGrid(DISK, n, 2 * n)
        errs.append(abs(integrate(g, np.exp(g.nodes[..., 0])) - ref))
    assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5


def test_operators_are_linear(g32, rng):
    f1 = rng.normal(size=(32, 64))
    f2 = rng.normal(size=(32, 64))
    a, b = 1.7, -0.4
    combo = a * f1 + b * f2
    lhs = g32.grad_values(combo)
    rhs = a * g32.grad_values(f1) + b * g32.grad_values(f2)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1, np.abs(rhs).max())
    lhs_h = g32.scalar_calculus(combo)[1]
    rhs_h = a * g32.scalar_calculus(f1)[1] + b * g32.scalar_calculus(f2)[1]
    assert np.abs(lhs_h - rhs_h).max() <= 1e-9 * max(1, np.abs(rhs_h).max())
    assert abs(integrate(g32, combo)
               - a * integrate(g32, f1)
               - b * integrate(g32, f2)) <= 1e-12


class TestBoundaryDirectionalDerivative:
    def test_linear_exactness(self, g32):
        f = g32.nodes[..., 0]
        val = directional_derivative_at_boundary(g32, f, np.array([0]),
                                                 np.array([1.0, 0.0]))
        assert abs(val[0] - 1.0) <= 1e-8
        # a tangent direction is evaluated like any other: d/dt x = t_x
        j = np.array([7])
        tan = DISK.boundary_tangent(g32.s[j])
        val = directional_derivative_at_boundary(g32, f, j, tan)
        assert abs(val[0] - tan[0, 0]) <= 1e-12

    def test_radial_derivative_of_square(self):
        errs = []
        for n in (16, 32):
            g = CurvilinearGrid(DISK, n, 2 * n)
            f = np.exp((g.nodes ** 2).sum(-1))
            j = np.array([5])
            nu = g.boundary_normals[j]
            val = directional_derivative_at_boundary(g, f, j, nu)
            errs.append(abs(val[0] - 2 * np.e))
        assert errs[0] <= 0.1 and errs[0] / errs[1] >= 3.0

    def test_scales_with_direction_length(self, g32):
        f = g32.nodes[..., 0]
        j = np.array([3])
        v1 = directional_derivative_at_boundary(g32, f, j, np.array([0.5, 0.0]))
        v2 = directional_derivative_at_boundary(g32, f, j, np.array([1.0, 0.0]))
        np.testing.assert_allclose(2 * v1, v2, rtol=1e-10)

    def test_inward_direction_flips_sign(self, g32):
        f = g32.nodes[..., 0]
        j = np.array([0])
        nu = g32.boundary_normals[j]
        v_out = directional_derivative_at_boundary(g32, f, j, nu)
        v_in = directional_derivative_at_boundary(g32, f, j, -nu)
        np.testing.assert_allclose(v_out, -v_in, rtol=1e-10)


class TestBoundaryNodeArrays:
    def test_batch_matches_one_node(self, g32):
        f = np.exp(g32.nodes[..., 0])
        j = np.arange(6)
        d = g32.boundary_normals[j] + np.array([0.3, -0.2])
        d[2] = 0.0                                  # zero direction
        d[4] = DISK.boundary_tangent(g32.s[4])      # tangent
        vals = directional_derivative_at_boundary(g32, f, j, d)
        for k in range(len(j)):
            one = directional_derivative_at_boundary(g32, f, j[k:k + 1],
                                                     d[k:k + 1])
            assert one.tobytes() == vals[k:k + 1].tobytes()


class TestCenterTreatment:
    def test_symmetric_and_one_sided_paths_agree_on_linears(self):
        # odd-k blob breaks central symmetry: the one-sided radial path
        dom_sym = domains.CosineBlob(1.0, 0.2, 2)
        dom_asym = domains.CosineBlob(1.0, 0.2, 3)
        for dom, sym in ((dom_sym, True), (dom_asym, False)):
            g = CurvilinearGrid(dom, 24, 48)
            assert g.center_symmetric == sym
            f = g.nodes[..., 1]
            assert np.abs(g.grad_values(f) - np.array([0.0, 1.0])).max() <= 1e-9

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


def _peanut_grid():
    return load_scenario("peanut_source_audit").build_problem()[1]


@pytest.mark.parametrize("make_grid", [
    lambda: CurvilinearGrid(DISK, 16, 32),
    lambda: CurvilinearGrid(DISK, 32, 64),
    _peanut_grid], ids=["disk16x32", "disk32x64", "peanut"])
def test_pole_caps_follow_the_angular_budget(make_grid):
    # below the boundary, ring i keeps mode k exactly while the angular
    # symbol (2 pi k max|grad s|)^2 h_min^2 stays within the budget, h_min
    # the radial spacing dr min|x_r| over sqrt(2); the boundary keeps all
    g = make_grid()
    half = g.n_s // 2
    assert g.pole_kmax[-1] == half
    h_min = g.dr * norm2(g.jac[..., :, 0]).min() / np.sqrt(2.0)
    gmax = norm2(g.jinv[:, :, 1, :]).max(axis=1)

    def symbol(i, k):
        return (2 * np.pi * k * gmax[i]) ** 2 * h_min ** 2

    for i, kmax in enumerate(g.pole_kmax[:-1]):
        assert symbol(i, kmax) <= grid._ANGULAR_BUDGET * (1 + 1e-12)
        if kmax + 1 <= half:
            assert symbol(i, kmax + 1) > grid._ANGULAR_BUDGET
    assert np.any(g.pole_kmax[:-1] < half)


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
