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
centrally symmetric) at the innermost ring. Both are dense tables the grid
builds once, stored plane by plane: the angular planes hold d/ds and
d^2/ds^2 of the periodic cardinal functions, the radial tables every ring's
d/dr and d^2/dr^2 stencil over the rings and two antipodal ghost rows, so a
field's logical derivatives are small matrix products that land in
contiguous (n_r, n_s) planes, and the chain rule runs on stacked planes.
The field is shifted by its value at one node first, so a constant maps to
exactly 0. Quadrature is the mapped midpoint product rule, second-order
accurate.

Pole treatment: a smooth function has angular mode k decaying like r^k toward
the center, but an explicit stage can only afford modes with k / r bounded by
the radial stiffness. After each explicit stage the flow projects each ring's
unaffordable high modes onto their radial extrapolation from the innermost
ring that carries them stably (factor (r_i / r_src)^k), which keeps the state
consistent to O(r^k) while the time step scales with the radial spacing
squared instead of the innermost arc length squared. Ring i keeps mode k
while its angular symbol (2 pi k max|grad s|)^2 h_min^2 is at most the
budget b = ``_ANGULAR_BUDGET``; b sets the angular share of the stepper's
measured stiffest eigenvalue. On ``disk_cosine_perturbed`` at 16x32 the
dense Jacobian's lambda_max is about -(432 + 183 b), the line through
b = 1 and 2.5: -614.8 at b = 1, 70% of it the line's radial part, against
-890.5 at the b = 2.5 of an earlier forward-Euler split, where the kept
modes set half.

Fields are node arrays: a scalar field is an (n_r, n_s) array, its
gradient (n_r, n_s, 2) and its Hessian (n_r, n_s, 2, 2). The calculus
kernel (``scalar_calculus``, ``grad_values``), ``integrate`` and the
boundary derivative take and return them bare, next to the grid they live
on. The kernel itself, ``calculus_planes``, returns the gradient and the
Hessian plane-major, (2, n_r, n_s) and (3, n_r, n_s) with the Hessian's
entries (xx, xy, yy); the flow stepper reads those planes, and
``scalar_calculus`` is their node-major assembly.

Boundary derivative: ``directional_derivative_at_boundary`` takes a scalar
node array and an int array of boundary nodes and returns an array, one
entry per node: the kernel's gradient on the boundary ring contracted with
the given directions. The boundary ring's d/dr is the row ``ring_dr`` that
the boundary Newton reads too, so the audits' boundary derivative and the
flow's boundary condition share one stencil; no direction is refused.
"""

import numpy as np

from . import _numerics as nm

#: angular modes whose extrapolation factor falls below this are zeroed
_SLAVE_FLOOR = 1e-18
#: a ring below the boundary keeps angular mode k while its symbol
#: (2 pi k max|grad s|)^2 h_min^2 is at most this budget (see "Pole
#: treatment"); of the budgets 2.5, 2, 1.5, 1.25, 1 and 0.75, the smallest
#: at which the power iteration stays within 3% of the dense Jacobian's
#: lambda at 16x32
_ANGULAR_BUDGET = 1.0


#: the coarsest grid: radial rings, and angular nodes (which must be even)
MIN_N_R = 4
MIN_N_S = 8


class _RadialMap:
    """The stations of an n_r x n_s grid on a star-shaped domain, its map
    x(r, s) = center + r v(s) with v = boundary(s) - center, the map's
    Jacobian and the mapped quadrature weights: everything an integral over
    the domain reads, and none of the calculus tables of
    :class:`CurvilinearGrid`, which builds on it."""

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

        c = np.asarray(domain.star_center, float)
        self._v = domain.boundary_param(self.s) - c        # (n_s, 2)
        self._vp = domain.boundary_velocity(self.s)
        self.nodes = c + self.r[:, None, None] * self._v[None, :, :]

        # mapping Jacobian columns: x_r = v(s), x_s = r v'(s)
        jac = np.empty((n_r, n_s, 2, 2))
        jac[..., :, 0] = np.broadcast_to(self._v, (n_r, n_s, 2))
        jac[..., :, 1] = self.r[:, None, None] * self._vp
        self.jac = jac
        self.det_jac = nm.det2(jac)
        if np.any(self.det_jac <= 0):
            raise ValueError("mapping Jacobian not positive; "
                             "boundary parametrization must be counterclockwise")

        # quadrature: midpoint cells in r, exact trapezoid in the periodic
        # direction. The final half cell ends exactly on the boundary node;
        # integrating the linear interpolant there spreads its weight as
        # (3/8, 1/8) dr over the last two rings, keeping the composite rule's
        # second-order error at the small midpoint constant.
        dr_cell = np.full(n_r, self.dr)
        dr_cell[-1] = 0.375 * self.dr
        dr_cell[-2] += 0.125 * self.dr
        self.weights = self.det_jac * dr_cell[:, None] * self.ds


def quadrature(domain, n_r, n_s):
    """(nodes, weights) of the mapped quadrature rule of an n_r x n_s grid
    on ``domain``, bitwise those of ``CurvilinearGrid(domain, n_r, n_s)``,
    without building the grid's calculus tables."""
    rmap = _RadialMap(domain, n_r, n_s)
    return rmap.nodes, rmap.weights


class CurvilinearGrid(_RadialMap):
    def __init__(self, domain, n_r, n_s):
        super().__init__(domain, n_r, n_s)
        n_r, n_s = self.n_r, self.n_s
        self._vpp = domain.boundary_accel(self.s)
        self.jinv = nm.inv2(self.jac)
        self._build_metric_tables(self._vp, self._vpp)

        # antipodal continuation across the center is exact only for
        # centrally symmetric domains: x(-r, s) = x(r, s + 1/2)
        half = n_s // 2
        self._antipode = (np.arange(n_s) + half) % n_s
        self.center_symmetric = bool(
            np.max(np.abs(self._v + self._v[self._antipode])) < 1e-12)

        self.boundary_normals = domain.outward_normal(self.s)
        # the boundary Newton's contiguous rows: ring_jinv[a, k] holds
        # component k of the gradient of logical coordinate a (r, then s)
        # along the boundary ring, ring_nu[k] component k of the normals
        self.ring_jinv = np.ascontiguousarray(self.jinv[-1].transpose(1, 2, 0))
        self.ring_nu = self.boundary_normals.T.copy()
        self._build_calculus_tables()
        self._build_pole_plan()

    # -- metric tables ----------------------------------------------------

    def _build_metric_tables(self, vp, vpp):
        """Contiguous per-node coefficient planes of the chain rule, so the
        calculus kernel reads no strided view of ``jinv``.

        With (a, b, c, d) = (jinv[0, 0], jinv[1, 0], jinv[0, 1], jinv[1, 1]):
        ``_grad_map[0]`` and ``_grad_map[1]`` hold the coefficients of f_r
        and of f_s in the two gradient components, (a, c) and (b, d);
        ``_curv[k]`` holds component k of the mapping's second derivatives
        x_rs = v' (the same on every ring) and x_ss = r v''; ``_hess_map[0]``,
        ``[1]`` and ``[2]`` hold the coefficients of the curvature-corrected
        f_rr, h_rs and h_ss in the Hessian entries (xx, xy, yy). Each table
        is a stack of contiguous (n_r, n_s) planes, so one multiply serves
        every plane it scales, and each product is formed in the order the
        chain rule writes it, e.g. ``2 * a * b``, so the kernel's arithmetic
        is that of the componentwise formula.
        """
        ji = self.jinv
        a, b = ji[..., 0, 0], ji[..., 1, 0]
        c, d = ji[..., 0, 1], ji[..., 1, 1]
        self._grad_map = np.array([[a, c], [b, d]])
        x_rs = np.broadcast_to(vp.T[:, None, :], (2, self.n_r, self.n_s))
        x_ss = self.r[None, :, None] * vpp.T[:, None, :]
        self._curv = np.stack((x_rs, x_ss), axis=1)         # (2, 2, n_r, n_s)
        self._hess_map = np.array([[a * a, a * c, c * c],
                                   [2 * a * b, a * d + b * c, 2 * c * d],
                                   [b * b, b * d, d * d]])

    # -- derivative tables ------------------------------------------------

    def _build_calculus_tables(self):
        """The derivative tables of the calculus kernel, plane by plane.

        ``_ang`` (2, n_s, n_s): row j of plane 0 holds d/ds, and of plane 1
        d^2/ds^2, of the j-th periodic cardinal function at every node, so
        ``f @ _ang[0]`` is f_s and ``f @ _ang[1]`` is f_ss; the odd
        derivative of the unpaired Nyquist mode is dropped. ``_rad`` and
        ``_rad2`` (n_r, n_r + 2): row i is ring i's d/dr, and its d^2/dr^2,
        stencil over the antipodal ghosts of rings 1 and 0 (columns 0 and 1,
        zero unless the domain is centrally symmetric) and the rings (column
        j + 2 is ring j). ``_ghost_take`` (2, 2, n_s) holds the flat
        indices, into a stacked (k, n_r + 2, n_s) buffer of planes under
        their ghost rows, that plane p's two ghost rows read.

        The boundary Newton's operators: ``ring_dr @ f`` is the boundary
        ring's d/dr, ``ring_dr`` a view of ``_rad[n_r - 1]`` over the rings
        (the one-sided row reads no ghost); ``ring_ds @ b`` is db/ds on one
        ring, ``ring_ds`` the transposed d/ds plane of ``_ang``.

        Radial truncation error in the first derivative is amplified by the
        1/r metric factors near the center; a wider centered d/dr stencil on
        the rings below ``n_wide`` (reachable through the ghosts) keeps the
        physical Hessian second-order accurate up to the pole.
        """
        n_r, n_s, dr = self.n_r, self.n_s, self.dr
        n_wide = 0
        if self.center_symmetric:
            n_wide = min(n_r - 3, int(np.searchsorted(self.r, 0.3)))
        k = 2 * np.pi * np.fft.rfftfreq(n_s, d=self.ds)
        d1 = 1j * k
        d1[-1] = 0.0              # n_s is even: the unpaired Nyquist mode
        fhat = np.fft.rfft(np.eye(n_s), axis=1)
        ang = np.empty((2, n_s, n_s))
        ang[0] = np.fft.irfft(fhat * d1, n=n_s, axis=1)
        ang[1] = np.fft.irfft(fhat * -k ** 2, n=n_s, axis=1)
        self._ang = ang

        rad = np.zeros((2, n_r, n_r + 2))        # d/dr, d^2/dr^2

        def put(order, row, col, weights, denom):
            rad[order, row, col:col + len(weights)] = [w / denom
                                                       for w in weights]

        for i in range(n_r):
            c = i + 2
            if i < n_wide:
                put(0, i, c - 2, (1, -8, 0, 8, -1), 12 * dr)
            elif i == 0:
                put(0, i, c, (-3, 4, -1), 2 * dr)
            elif i == n_r - 1:
                put(0, i, c - 2, (1, -4, 3), 2 * dr)
            else:
                put(0, i, c - 1, (-1, 0, 1), 2 * dr)
            if i == 0 and not self.center_symmetric:
                put(1, i, c, (2, -5, 4, -1), dr ** 2)
            elif i == n_r - 1:
                put(1, i, c - 3, (-1, 4, -5, 2), dr ** 2)
            else:
                put(1, i, c - 1, (1, -2, 1), dr ** 2)
        self._rad, self._rad2 = rad
        self.ring_dr = self._rad[n_r - 1, 2:]
        self.ring_ds = ang[0].T.copy()
        plane = (n_r + 2) * n_s * np.arange(2)[:, None, None]
        rows = np.array([3, 2])[:, None] * n_s
        self._ghost_take = plane + rows + self._antipode

    # -- pole projection plan ---------------------------------------------

    def _build_pole_plan(self):
        """Per-ring stable mode caps and the slaving source/factor tables."""
        n_r, n_s = self.n_r, self.n_s
        n_m = n_s // 2 + 1
        grad_s = nm.norm2(self.jinv[:, :, 1, :])           # |grad s| per node
        rad_sp = self.dr * nm.norm2(self.jac[:, :, :, 0])  # dr |x_r|
        arc_sp = self.ds * nm.norm2(self.jac[:, :, :, 1])  # ds |x_s|

        # angular cap: the budget sets the angular share of the measured
        # stiffest eigenvalue, lambda_max ~ -(432 + 183 b) at 16x32 (-614.8
        # at b = 1); it is no forward-Euler split. policy_dt's floor
        # dt = c_stab h_min^2 / trace(W^{-1}) stays stable with margin: the
        # radial part uses dt lam_r <= 4 c_stab (h_min/rad_sp)^2 <= 2 c_stab
        # once h_min includes the 1/sqrt(2) dimensional split below, the
        # angular part dt lam_s <= b c_stab, and (2 + b) c_stab = 1.2 <= 2
        h_rad = float(np.min(rad_sp))
        self.h_min = h_rad / np.sqrt(2.0)
        gmax = np.max(grad_s, axis=1)                      # per ring
        cap = np.sqrt(_ANGULAR_BUDGET) / (2 * np.pi * self.h_min * gmax)
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
        terms = np.fft.rfft(values[:cut], axis=1).take(self._pole_take)
        terms *= self._pole_w
        res = values.copy()
        np.fft.irfft(terms[0] + terms[1], n=self.n_s, axis=1, out=res[:cut])
        return res

    # -- the calculus kernel ----------------------------------------------------

    def _shifted(self, arr, planes):
        """A (planes, n_r + 2, n_s) buffer whose first plane holds the field
        shifted by its single value ``arr[0, 0]``, which no derivative
        sees, so a constant maps to exactly 0; the ghost rows are left for
        ``_fill_ghosts``."""
        x = np.empty((planes, self.n_r + 2, self.n_s))
        np.subtract(arr, arr[0, 0], out=x[0, 2:])
        return x

    def _fill_ghosts(self, x):
        """Copy each plane's antipodal ghost rows into rows 0 and 1."""
        x[:, :2] = x.take(self._ghost_take[:len(x)])

    def _physical_gradient(self, fr, fs):
        """The physical gradient's components, shape (2, n_r, n_s), from the
        logical derivatives (f_r, f_s)."""
        gx = self._grad_map[0] * fr
        gx += self._grad_map[1] * fs
        return gx

    def calculus_planes(self, arr):
        """Physical gradient and Hessian of a scalar node array as
        contiguous planes: the gradient (2, n_r, n_s) and the Hessian
        entries (xx, xy, yy), shape (3, n_r, n_s); both exactly 0 on a
        constant.

        The grid's calculus kernel and the flow stepper's hot path. The
        angular products give f_s and f_ss; the d/dr rows act on the
        stacked [f; f_s] under their ghost rows and give f_r and f_rs at
        once (the radial stencils are row-local, so they commute with the
        angular derivative), and the d^2/dr^2 rows act on f alone. The chain
        rule then runs on stacked planes of the metric tables, accumulating
        each sum in place in the order the formula writes it.
        """
        x = self._shifted(arr, 2)
        f = x[0, 2:]
        fs = np.matmul(f, self._ang[0], out=x[1, 2:])
        self._fill_ghosts(x)
        d = np.empty((4,) + f.shape)            # f_r, f_rs, f_ss, f_rr
        np.matmul(self._rad, x, out=d[:2])
        np.matmul(f, self._ang[1], out=d[2])
        np.matmul(self._rad2, x[0], out=d[3])
        gx = self._physical_gradient(d[0], fs)
        # remove the mapping curvature from the logical (f_rs, f_ss)
        curv = self._curv
        corr = curv[0] * gx[0]
        corr += curv[1] * gx[1]
        h_rs, h_ss = np.subtract(d[1:3], corr, out=corr)
        m = self._hess_map
        h = m[0] * d[3]
        h += m[1] * h_rs
        h += m[2] * h_ss
        return gx, h

    def grad_values(self, arr):
        """Physical gradient of a scalar node array, shape (n_r, n_s, 2).

        The gradient-only path: the d/ds plane and the d/dr rows applied to
        f alone, half the kernel's products, bitwise equal to
        ``scalar_calculus(arr)[0]``.
        """
        x = self._shifted(arr, 1)
        fs = x[0, 2:] @ self._ang[0]
        self._fill_ghosts(x)
        gx = self._physical_gradient(self._rad @ x[0], fs)
        return np.stack((gx[0], gx[1]), axis=-1)

    def scalar_calculus(self, arr):
        """Physical gradient and Hessian of a scalar node array, shapes
        (n_r, n_s, 2) and (n_r, n_s, 2, 2), both C-contiguous: the
        node-major assembly of ``calculus_planes``."""
        gx, h = self.calculus_planes(arr)
        return np.stack((gx[0], gx[1]), axis=-1), nm.sym2(h)

    # -- boundary helpers -------------------------------------------------------

    def d_s_ring(self, row_values):
        """Spectral d/ds of values on a single ring (any trailing axes), by
        ``ring_ds``, the boundary Newton's d/ds block."""
        return np.tensordot(self.ring_ds, row_values, axes=1)


# --- public operators --------------------------------------------------------

def integrate(grid, values):
    """Mapped-quadrature integral over the domain of a node array."""
    return float(np.sum(grid.weights * values))


def directional_derivative_at_boundary(grid, f, j, direction):
    """Derivative of the scalar node array f, shape (n_r, n_s), along
    ``direction`` at the boundary nodes with angular indices j, an int
    array; returns an array, one entry per node.

    It is the calculus kernel's gradient (``grad_values``) on the boundary
    ring, whose d/dr is the one-sided ``ring_dr`` stencil over the three
    outer rings, contracted with ``direction``. ``direction`` has shape
    (k, 2), or (2,) for one direction at every node, and need not be
    normalized; the result scales with its length.
    """
    return np.vecdot(grid.grad_values(f)[-1, j], direction)
