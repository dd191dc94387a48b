"""Boundary-fitted curvilinear discretization of a star-shaped domain.

The grid maps logical coordinates (r, s) in (0, 1] x [0, 1) to the domain by
x(r, s) = center + r (boundary(s) - center), so the outermost ring r = 1 lies
exactly on the boundary. Radial rings sit at half-offset stations
r_i = (i + 1/2) dr with dr = 2 / (2 n_r - 1): there is no node at the center,
and for centrally symmetric domains values continue across the center through
the antipodal angular index.

Calculus: the angular direction is periodic and differentiated spectrally
(exact for the trigonometric-polynomial fields the library domains produce);
the radial direction uses second-order finite differences, centered in the
interior and one-sided at the boundary ring and (when the domain is not
centrally symmetric) at the innermost ring. Quadrature is the mapped midpoint
product rule, second-order accurate.

Pole treatment: a smooth function has angular mode k decaying like r^k toward
the center, but an explicit stage can only afford modes with k / r bounded by
the radial stiffness. After each explicit stage the flow projects each ring's
unaffordable high modes onto their radial extrapolation from the innermost
ring that carries them stably (factor (r_i / r_src)^k), which keeps the state
consistent to O(r^k) while the time step scales with the radial spacing
squared instead of the innermost arc length squared.
"""

from dataclasses import dataclass

import numpy as np

from . import _numerics as nm
from .errors import TangentDirection

#: angular modes whose extrapolation factor falls below this are zeroed
_SLAVE_FLOOR = 1e-18


@dataclass
class Field:
    """Values attached to the nodes of one grid.

    rank is 'scalar' (n_r, n_s), 'vector' (n_r, n_s, 2) or 'matrix'
    (n_r, n_s, 2, 2, symmetric); grid_id ties the field to the grid that
    produced it.
    """

    data: np.ndarray
    rank: str
    grid_id: int

    def copy(self):
        return Field(self.data.copy(), self.rank, self.grid_id)


#: the coarsest grid: radial rings, and angular nodes (which must be even)
MIN_N_R = 4
MIN_N_S = 8


class CurvilinearGrid:
    def __init__(self, domain, n_r, n_s):
        if n_r < MIN_N_R:
            raise ValueError(f"need at least {MIN_N_R} radial rings")
        if n_s < MIN_N_S or n_s % 2:
            raise ValueError(f"n_s must be even and at least {MIN_N_S}")
        self.domain = domain
        self.n_r = int(n_r)
        self.n_s = int(n_s)
        self.dr = 2.0 / (2 * n_r - 1)
        self.ds = 1.0 / n_s
        self.r = (np.arange(n_r) + 0.5) * self.dr          # r[-1] == 1
        self.s = np.arange(n_s) * self.ds
        self._id = id(self)

        c = np.asarray(domain.star_center, float)
        bp = domain.boundary_param(self.s)                 # (n_s, 2)
        v = bp - c
        vp = domain.boundary_velocity(self.s)
        vpp = domain.boundary_accel(self.s)
        self._v, self._vp, self._vpp = v, vp, vpp
        self.nodes = c + self.r[:, None, None] * v[None, :, :]

        # mapping Jacobian columns: x_r = v(s), x_s = r v'(s)
        jac = np.empty((n_r, n_s, 2, 2))
        jac[..., :, 0] = np.broadcast_to(v, (n_r, n_s, 2))
        jac[..., :, 1] = self.r[:, None, None] * vp
        self.jac = jac
        self.det_jac = nm.det2(jac)
        if np.any(self.det_jac <= 0):
            raise ValueError("mapping Jacobian not positive; "
                             "boundary parametrization must be counterclockwise")
        self.jinv = nm.inv2(jac)
        self._build_metric_tables(vp, vpp)

        # quadrature: midpoint cells in r, exact trapezoid in the periodic
        # direction. The final half cell ends exactly on the boundary node;
        # integrating the linear interpolant there spreads its weight as
        # (3/8, 1/8) dr over the last two rings, keeping the composite rule's
        # second-order error at the small midpoint constant.
        dr_cell = np.full(n_r, self.dr)
        dr_cell[-1] = 0.375 * self.dr
        dr_cell[-2] += 0.125 * self.dr
        self.weights = self.det_jac * dr_cell[:, None] * self.ds

        # antipodal continuation across the center is exact only for
        # centrally symmetric domains: x(-r, s) = x(r, s + 1/2)
        half = n_s // 2
        self._antipode = (np.arange(n_s) + half) % n_s
        self.center_symmetric = bool(
            np.max(np.abs(v + v[self._antipode])) < 1e-12)

        # spectral machinery for the periodic direction
        self._kvec = 2 * np.pi * np.fft.rfftfreq(n_s, d=self.ds)
        d1 = 1j * self._kvec
        if n_s % 2 == 0:
            d1 = d1.copy()
            d1[-1] = 0.0          # odd derivative of the unpaired Nyquist mode
        self._d1 = d1
        self._d2 = -self._kvec ** 2

        self.boundary_normals = domain.outward_normal(self.s)
        self.boundary_curvature = domain.curvature(self.s)

        # Radial truncation error in the first derivative is amplified by the
        # 1/r metric factors near the center; a wider centered stencil on the
        # inner rings (reachable through the antipodal ghosts) keeps the
        # physical Hessian second-order accurate up to the pole. The rings
        # below ``_n_wide`` take it. ``_wide_rows`` lists, as flat indices
        # into a ring-major node array, the rows their stencils read: the
        # antipodal ghosts of rings 1 and 0, then rings 0 .. _n_wide + 1.
        if self.center_symmetric:
            last = min(n_r - 3, int(np.searchsorted(self.r, 0.3)))
            rows = [(1, self._antipode), (0, self._antipode)]
            rows += [(i, np.arange(n_s)) for i in range(last + 2)]
            self._n_wide = last
            self._wide_rows = np.array([i * n_s + cols for i, cols in rows])
        else:
            self._n_wide = 0

        self._build_pole_plan()

    # -- metric tables ----------------------------------------------------

    def _build_metric_tables(self, vp, vpp):
        """Contiguous per-node coefficient tables of the chain rule, so the
        calculus kernel reads no strided view of ``jinv``.

        With (a, b, c, d) = (jinv[0, 0], jinv[1, 0], jinv[0, 1], jinv[1, 1]):
        ``_grad_map[k]`` maps the logical (f_r, f_s) to component k of the
        gradient; ``_x_rs[k]`` and ``_x_ss[k]`` hold component k of the
        mapping's second derivatives x_rs = v' (one row, broadcast over the
        rings) and x_ss = r v''; ``_hess_map[e]`` maps the
        curvature-corrected (f_rr, h_rs, h_ss) to the Hessian entries
        (0, 0), (0, 1) and (1, 1). Each product is formed in the order the
        chain rule writes it, e.g. ``2 * a * b``, so the kernel's arithmetic
        is that of the componentwise formula.
        """
        ji = self.jinv
        a, b = ji[..., 0, 0], ji[..., 1, 0]
        c, d = ji[..., 0, 1], ji[..., 1, 1]
        self._grad_map = np.array([[a, b], [c, d]])
        self._x_rs = vp.T[:, None, :].copy()                # (2, 1, n_s)
        self._x_ss = self.r[None, :, None] * vpp.T[:, None, :]
        self._hess_map = np.array([[a * a, 2 * a * b, b * b],
                                   [a * c, a * d + b * c, b * d],
                                   [c * c, 2 * c * d, d * d]])

    # -- pole projection plan ---------------------------------------------

    def _build_pole_plan(self):
        """Per-ring stable mode caps and the slaving source/factor tables."""
        n_r, n_s = self.n_r, self.n_s
        n_m = n_s // 2 + 1
        grad_s = nm.norm2(self.jinv[:, :, 1, :])           # |grad s| per node
        rad_sp = self.dr * nm.norm2(self.jac[:, :, :, 0])  # dr |x_r|
        arc_sp = self.ds * nm.norm2(self.jac[:, :, :, 1])  # ds |x_s|

        # stability budget: with dt = c_stab h_min^2 / trace(W^{-1}) the
        # radial part uses dt lam_r <= 4 c_stab (h_min/rad_sp)^2 <= 2 c_stab
        # once h_min includes the 1/sqrt(2) dimensional split below; cap the
        # angular symbol at (2 pi k |grad s|)^2 h_min^2 <= 2.5 per ring
        h_rad = float(np.min(rad_sp))
        self.h_min = h_rad / np.sqrt(2.0)
        gmax = np.max(grad_s, axis=1)                      # per ring
        cap = np.sqrt(2.5) / (2 * np.pi * self.h_min * gmax)
        kmax = np.minimum(n_s // 2, np.floor(cap).astype(int))
        kmax[-1] = n_s // 2                                # boundary ring untouched
        self.pole_kmax = kmax

        # effective angular resolution after slaving, for reporting
        k_eff = np.maximum(kmax, 1)
        arc_eff = np.min(arc_sp, axis=1) * (n_s // 2) / k_eff
        self.h_min = min(self.h_min, float(np.min(arc_eff)) / np.sqrt(2.0))

        ks = np.arange(n_m)
        # Slaved mode (i, k): reconstruct from the two innermost rings that
        # carry mode k freely, through the two-term radial law
        # a_k(r) = alpha r^k + beta r^(k+2) valid for fields smooth at the
        # center; the weights are the exact interpolation coefficients.
        first_free = np.full(n_m, n_r - 1, dtype=int)
        for k in range(n_m):
            free = np.nonzero(kmax >= k)[0]
            first_free[k] = min(free[0] if free.size else n_r - 1, n_r - 2)
        src1 = np.tile(np.arange(n_r)[:, None], (1, n_m))
        src2 = src1.copy()
        w1 = np.ones((n_r, n_m))
        w2 = np.zeros((n_r, n_m))
        for i in range(n_r):
            slaved = ks > kmax[i]
            j1 = first_free[ks]
            j2 = j1 + 1
            r_i, r1, r2 = self.r[i], self.r[j1], self.r[j2]
            with np.errstate(divide="ignore", over="ignore"):
                f1 = (r_i / r1) ** ks * (r2 ** 2 - r_i ** 2) / (r2 ** 2 - r1 ** 2)
                f2 = (r_i / r2) ** ks * (r_i ** 2 - r1 ** 2) / (r2 ** 2 - r1 ** 2)
            tiny = np.abs(f1) < _SLAVE_FLOOR
            f1[tiny] = 0.0
            f2[tiny] = 0.0
            src1[i, slaved] = j1[slaved]
            src2[i, slaved] = j2[slaved]
            w1[i, slaved] = f1[slaved]
            w2[i, slaved] = f2[slaved]
        self._pole_active = bool(np.any(kmax < n_s // 2))
        if self._pole_active:
            filtered = int(np.max(np.nonzero(kmax < n_s // 2)[0])) + 1
            cut = int(max(np.max(src2[:filtered]), filtered - 1)) + 1
        else:
            cut = 0
        # the kernel's gather: flat indices into the rfft of the first cut
        # rows, and the matching weights, for the two source rings
        self._pole_cut = cut
        self._pole_take = np.array([src1[:cut], src2[:cut]]) * n_m + ks
        self._pole_w = np.array([w1[:cut], w2[:cut]])

    def apply_pole_projection(self, values):
        """Project unaffordable high angular modes onto their radial
        extrapolations; identity on fields already consistent at the pole."""
        if not self._pole_active:
            return values
        cut = self._pole_cut
        fhat = np.fft.rfft(values[:cut], axis=1).ravel()
        terms = self._pole_w * fhat.take(self._pole_take)
        res = values.copy()
        res[:cut] = np.fft.irfft(terms[0] + terms[1], n=self.n_s, axis=1)
        return res

    # -- field constructors -------------------------------------------------

    def scalar(self, values):
        arr = np.asarray(values, float)
        if arr.shape != (self.n_r, self.n_s):
            raise ValueError(f"scalar field must have shape {(self.n_r, self.n_s)}")
        return Field(arr, "scalar", self._id)

    def vector(self, values):
        arr = np.asarray(values, float)
        if arr.shape != (self.n_r, self.n_s, 2):
            raise ValueError("vector field shape mismatch")
        return Field(arr, "vector", self._id)

    def matrix(self, values, symmetrize=False, tol=1e-12):
        arr = np.asarray(values, float)
        if arr.shape != (self.n_r, self.n_s, 2, 2):
            raise ValueError("matrix field shape mismatch")
        asym = np.max(np.abs(arr - np.swapaxes(arr, -1, -2)))
        if symmetrize:
            arr = 0.5 * (arr + np.swapaxes(arr, -1, -2))
        elif asym > tol:
            raise ValueError(f"matrix field asymmetric by {asym:.3e}")
        return Field(arr, "matrix", self._id)

    def check_field(self, f):
        if f.grid_id != self._id:
            raise ValueError("field belongs to a different grid")
        return f

    # -- logical derivatives -------------------------------------------------

    def d_r(self, arr):
        """Radial derivative of node values along axis -2 (the rings); any
        leading axes are a batch."""
        out = np.empty_like(arr)
        dr = self.dr
        first = self._n_wide
        if first:
            # centrally symmetric: n_r >= 4 and r_0 < 0.3 give first >= 1, so
            # the wide stencil covers the innermost ring
            flat = arr.reshape(arr.shape[:-2] + (-1,))
            ext = flat.take(self._wide_rows, axis=-1)
            out[..., :first, :] = (-ext[..., 4:, :] + 8 * ext[..., 3:-1, :]
                                   - 8 * ext[..., 1:-3, :]
                                   + ext[..., :-4, :]) / (12 * dr)
        else:
            out[..., 0, :] = (-3 * arr[..., 0, :] + 4 * arr[..., 1, :]
                              - arr[..., 2, :]) / (2 * dr)
            first = 1
        out[..., first:-1, :] = (arr[..., first + 1:, :]
                                 - arr[..., first - 1:-2, :]) / (2 * dr)
        out[..., -1, :] = (3 * arr[..., -1, :] - 4 * arr[..., -2, :]
                           + arr[..., -3, :]) / (2 * dr)
        return out

    def d_rr(self, arr):
        out = np.empty_like(arr)
        dr2 = self.dr ** 2
        out[1:-1] = (arr[2:] - 2 * arr[1:-1] + arr[:-2]) / dr2
        if self.center_symmetric:
            out[0] = (arr[1] - 2 * arr[0] + arr[0, self._antipode]) / dr2
        else:
            out[0] = (2 * arr[0] - 5 * arr[1] + 4 * arr[2] - arr[3]) / dr2
        out[-1] = (2 * arr[-1] - 5 * arr[-2] + 4 * arr[-3] - arr[-4]) / dr2
        return out

    # -- physical derivatives -------------------------------------------------

    def _physical_gradient(self, fr, fs):
        """The physical gradient's components, shape (2, n_r, n_s), from the
        logical derivatives (f_r, f_s)."""
        return self._grad_map[:, 0] * fr + self._grad_map[:, 1] * fs

    def grad_values(self, arr):
        """Physical gradient of a scalar node array, shape (n_r, n_s, 2).

        The gradient-only path: bitwise equal to ``scalar_calculus(arr)[0]``
        at about a third of its cost.
        """
        fs = np.fft.irfft(np.fft.rfft(arr, axis=1) * self._d1, n=self.n_s, axis=1)
        gx = self._physical_gradient(self.d_r(arr), fs)
        return np.stack((gx[0], gx[1]), axis=-1)

    def scalar_calculus(self, arr):
        """Physical gradient and Hessian of a scalar node array, shapes
        (n_r, n_s, 2) and (n_r, n_s, 2, 2).

        The grid's calculus kernel and the flow stepper's hot path: one
        forward FFT of the field feeds both angular derivatives, and the
        chain rule's coefficients come from the metric tables.
        """
        fhat = np.fft.rfft(arr, axis=1)
        # (f, f_s, f_ss) in one buffer, so that one radial pass over its
        # first two rows gives f_r and f_rs: the radial stencils are
        # row-local, so they commute with the spectral tangential derivative
        f = np.empty((3,) + arr.shape)
        f[0] = arr
        np.fft.irfft(fhat * self._d1, n=self.n_s, axis=1, out=f[1])
        np.fft.irfft(fhat * self._d2, n=self.n_s, axis=1, out=f[2])
        fr, frs = self.d_r(f[:2])
        frr = self.d_rr(arr)
        gx = self._physical_gradient(fr, f[1])
        # remove the mapping curvature from the logical Hessian
        x_rs, x_ss = self._x_rs, self._x_ss
        h_rs = frs - (x_rs[0] * gx[0] + x_rs[1] * gx[1])
        h_ss = f[2] - (x_ss[0] * gx[0] + x_ss[1] * gx[1])
        m = self._hess_map
        h = m[:, 0] * frr + m[:, 1] * h_rs + m[:, 2] * h_ss
        hess = np.empty(arr.shape + (2, 2))
        hess[..., 0, 0] = h[0]
        hess[..., 0, 1] = h[1]
        hess[..., 1, 0] = h[1]
        hess[..., 1, 1] = h[2]
        return np.stack((gx[0], gx[1]), axis=-1), hess

    # -- boundary helpers -------------------------------------------------------

    def ring_values_at(self, row_values, s_eval):
        """Trigonometric interpolation of one ring's values at parameters s."""
        fhat = np.fft.rfft(row_values)
        n = self.n_s
        k = np.arange(fhat.shape[0])
        s_eval = np.atleast_1d(np.asarray(s_eval, float))
        phase = np.exp(2j * np.pi * np.outer(s_eval, k))
        scale = np.full(fhat.shape[0], 2.0)
        scale[0] = 1.0
        if n % 2 == 0:
            scale[-1] = 1.0
        vals = (phase * (scale * fhat)).real.sum(axis=1) / n
        return vals if vals.shape[0] > 1 else float(vals[0])

    def d_s_ring(self, row_values):
        """Spectral d/ds of values on a single ring (any trailing axes)."""
        fhat = np.fft.rfft(row_values, axis=0)
        shape = (fhat.shape[0],) + (1,) * (row_values.ndim - 1)
        return np.fft.irfft(fhat * self._d1.reshape(shape), n=self.n_s, axis=0)

    def spectral_matrix(self):
        """Dense matrix of d/ds acting on one ring (used by boundary Newton).

        Column j holds the derivative of the j-th cardinal function, so the
        matrix applies to ring values from the right: (D @ b)[m] = (db/ds)(s_m).
        """
        eye = np.eye(self.n_s)
        cols = np.fft.irfft(np.fft.rfft(eye, axis=1) * self._d1, n=self.n_s, axis=1)
        return cols.T.copy()

    def ring_line_intersection(self, i_ring, x0, direction, s_seed):
        """Parameter s where the ring r_i meets the line x0 - t * direction.

        Returns (s, t) with t > 0 measured along the unit direction.
        """
        c = self.domain.star_center
        r = self.r[i_ring]
        d = np.asarray(direction, float)
        d = d / np.linalg.norm(d)
        s = float(s_seed)
        for _ in range(60):
            p = c + r * (self.domain.boundary_param(s) - c)
            vel = r * self.domain.boundary_velocity(s)
            g = nm.cross2(p - x0, -d)
            dg = nm.cross2(vel, -d)
            if abs(dg) < 1e-14:
                break
            step = g / dg
            s -= step
            if abs(step) < 1e-15:
                break
        p = c + r * (self.domain.boundary_param(s) - c)
        t = float(np.dot(x0 - p, d))
        return s % 1.0, t


# --- public operators --------------------------------------------------------

def gradient(grid, f):
    """Physical-space gradient of a scalar field."""
    grid.check_field(f)
    if f.rank != "scalar":
        raise ValueError("gradient expects a scalar field")
    return grid.vector(grid.grad_values(f.data))


def hessian(grid, f):
    """Physical-space Hessian of a scalar field (symmetrized cross terms)."""
    grid.check_field(f)
    if f.rank != "scalar":
        raise ValueError("hessian expects a scalar field")
    return grid.matrix(grid.scalar_calculus(f.data)[1])


def integrate(grid, f):
    """Mapped-quadrature integral of a scalar field over the domain."""
    grid.check_field(f)
    if f.rank != "scalar":
        raise ValueError("integrate expects a scalar field")
    return float(np.sum(grid.weights * f.data))


def directional_derivative_at_boundary(grid, f, j, direction, obliqueness_floor=1e-6):
    """Second-order one-sided derivative of f along ``direction`` at the
    boundary node with angular index j.

    Sample points are taken where the line through the node meets the two
    rings beneath the boundary, with ring values interpolated
    trigonometrically. ``direction`` need not be normalized; the result scales
    with its length. Directions within ``obliqueness_floor`` of tangency are
    rejected.
    """
    grid.check_field(f)
    if f.rank != "scalar":
        raise ValueError("directional derivative expects a scalar field")
    j = int(j)
    d = np.asarray(direction, float)
    dn = np.linalg.norm(d)
    if dn == 0:
        raise TangentDirection("zero direction")
    nu = grid.boundary_normals[j]
    cosang = float(np.dot(d, nu)) / dn
    if abs(cosang) < obliqueness_floor:
        raise TangentDirection(
            f"direction is tangent to the boundary within {obliqueness_floor:g}")
    sign = 1.0
    dd = d / dn
    if cosang < 0:           # point the probe outward, flip the result back
        dd = -dd
        sign = -1.0
    x0 = grid.nodes[-1, j]
    s_seed = grid.s[j]
    f0 = f.data[-1, j]
    ts, fs = [], []
    for i_ring in (grid.n_r - 2, grid.n_r - 3):
        s_i, t_i = grid.ring_line_intersection(i_ring, x0, dd, s_seed)
        if t_i <= 0:
            raise TangentDirection("probe line does not enter the interior")
        ts.append(t_i)
        fs.append(grid.ring_values_at(f.data[i_ring], s_i))
        s_seed = s_i
    # derivative along the inward ray, then flip to the requested direction
    dfd_in = nm.one_sided_first(ts[0], ts[1], f0, fs[0], fs[1])
    return sign * (-dfd_in) * dn
