"""Cost-function calculus for planar optimal transport.

A :class:`CostModel` bundles derivative oracles for a transport cost c(x, y)
on R^2 x R^2 together with the derived objects the flow needs: the twist
inverses Y(x, p) and X(q, y), the matrix A(x, p), the density ratio B, the
boundary function G = h*(Y) with its p-gradient beta and p-Hessian, and the
Ma-Trudinger-Wang form.

Each twist inverse is the closed form its cost supplies; every registered
cost has one that solves the twist equation to roundoff, so no iterative
inversion is needed. Only the mixed third derivatives have a
finite-difference fallback. The cost declares three fast-path flags, read
only where they save measured time: ``hess_xx_vanishes`` by
``flow.potential_fields``; ``cross_identity`` by ``flow.build_state``,
``oblique_beta`` and ``domains.check_bitwist``; ``thirds_vanish`` by the
boundary convexity forms (``domains.convexity_form``, the term1 of
``linearized.dbetaF_closed``). Elsewhere the general formulas give the
same values up to the sign of a zero.

Conventions. Points are arrays of shape (..., 2). The cross Hessian
``cross_hessian(x, y)[..., i, j]`` is d^2 c / dx_i dy_j; its inverse carries
(target, source) index order so that ``inv(C) @ C = I``. Mixed third
derivatives are ``third_xxy[..., i, j, r] = d^3 c / dx_i dx_j dy_r`` and
``third_xyy[..., i, r, q] = d^3 c / dx_i dy_r dy_q``. All oracles broadcast
over leading axes, and a model is immutable after construction, so its
operations are safe to call concurrently.
"""

import numpy as np

from . import _numerics as nm
from .errors import DegenerateCross

#: step of the finite-difference fallbacks: the mixed third derivatives,
#: ``matrix_A_alt`` and the default of ``mtw_tensor``
H_FD = 1e-4

#: floor on |det| of the cross Hessian before raising DegenerateCross
CROSS_DET_FLOOR = 1e-12


class CostModel:
    """Derivative oracles for a transport cost and the calculus built on them.

    Parameters
    ----------
    name : str
        Registry name of the cost.
    eval_fn, grad_x_fn, grad_y_fn, cross_fn, hess_xx_fn : callables
        Analytic oracles; each takes (x, y) arrays of shape (..., 2).
    invert_y_fn, invert_x_fn : callables
        Closed-form twist inverses: invert_y_fn(x, p) solves
        grad_x c(x, y) = p for y and invert_x_fn(q, y) solves
        grad_y c(x, y) = q for x.
    third_xxy_fn, third_xyy_fn : callables or None
        Analytic mixed third derivatives; centered finite differences with
        step H_FD are used when absent.
    thirds_vanish, cross_identity, hess_xx_vanishes : bool
        Fast-path declarations: the mixed third derivatives vanish, the
        cross Hessian is the identity, and D^2_xx c vanishes (so A == 0).
    """

    def __init__(self, name, eval_fn, grad_x_fn, grad_y_fn, cross_fn, hess_xx_fn,
                 invert_y_fn, invert_x_fn, third_xxy_fn=None, third_xyy_fn=None,
                 thirds_vanish=False, cross_identity=False,
                 hess_xx_vanishes=False):
        self.name = name
        self._eval = eval_fn
        self._grad_x = grad_x_fn
        self._grad_y = grad_y_fn
        self._cross = cross_fn
        self._hess_xx = hess_xx_fn
        self._invert_y = invert_y_fn
        self._invert_x = invert_x_fn
        self._third_xxy = third_xxy_fn
        self._third_xyy = third_xyy_fn
        self.thirds_vanish = bool(thirds_vanish)
        self.cross_identity = bool(cross_identity)
        self.hess_xx_vanishes = bool(hess_xx_vanishes)

    # -- raw oracles ------------------------------------------------------

    def eval(self, x, y):
        return self._eval(np.asarray(x, float), np.asarray(y, float))

    def grad_x(self, x, y):
        return self._grad_x(np.asarray(x, float), np.asarray(y, float))

    def grad_y(self, x, y):
        return self._grad_y(np.asarray(x, float), np.asarray(y, float))

    def cross_hessian(self, x, y):
        return self._cross(np.asarray(x, float), np.asarray(y, float))

    def hess_xx(self, x, y):
        return self._hess_xx(np.asarray(x, float), np.asarray(y, float))

    def third_xxy(self, x, y):
        """d^3 c / dx_i dx_j dy_r, shape (..., 2, 2, 2)."""
        if self._third_xxy is not None:
            return self._third_xxy(np.asarray(x, float), np.asarray(y, float))
        return _y_difference(self.hess_xx, x, y)

    def third_xyy(self, x, y):
        """d^3 c / dx_i dy_r dy_q, shape (..., 2, 2, 2)."""
        if self._third_xyy is not None:
            return self._third_xyy(np.asarray(x, float), np.asarray(y, float))
        return _y_difference(self.cross_hessian, x, y)

    def convexity_correction(self, side, x, y, tau, nu):
        """c^(r,l) c_(ij,r) tau^i tau^j nu^l at source x and target y: the
        cost's part of the convexity form of the ``side`` ("source" or
        "target") boundary, for tangents tau and that boundary's outward
        normal nu. The thirds differentiate twice (i, j) at the side's own
        point; C^{-1} keeps its (target, source) order, with nu on the side's
        own index. Both audit forms and ``dbetaF_closed``'s term1 read it."""
        cinv = nm.inv2(self.cross_hessian(x, y))
        if side == "source":
            thirds, sub = self.third_xxy(x, y), '...ijr'
        elif side == "target":
            thirds, sub = self.third_xyy(x, y), '...rij'
            cinv = nm.transpose2(cinv)
        else:
            raise ValueError("side must be 'source' or 'target'")
        w = nm.matvec2(cinv, nu)
        return np.einsum(sub + ',...i,...j,...r->...', thirds, tau, tau, w)

    # -- twist inversion --------------------------------------------------

    def invert_Y(self, x, p):
        """The closed-form solution y of grad_x c(x, y) = p."""
        return self._invert_y(np.asarray(x, float), np.asarray(p, float))

    def invert_X(self, q, y):
        """The closed-form solution x of grad_y c(x, y) = q."""
        return self._invert_x(np.asarray(q, float), np.asarray(y, float))

    # -- derived objects --------------------------------------------------

    def matrix_A(self, x, p):
        """A(x, p) = (D^2_x c)(x, Y(x, p))."""
        return self.hess_xx(x, self.invert_Y(x, p))

    def matrix_A_alt(self, x, p):
        """-(D_p Y)^{-1} D_x Y with both Jacobians of Y by central differences.

        Independent of :meth:`matrix_A`; kept for cross-validation.
        """
        x = np.asarray(x, float)
        p = np.asarray(p, float)
        h = H_FD
        shape = np.broadcast_shapes(x.shape, p.shape)
        dpY = np.empty(shape[:-1] + (2, 2))
        dxY = np.empty(shape[:-1] + (2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            dpY[..., :, k] = (self.invert_Y(x, p + e)
                              - self.invert_Y(x, p - e)) / (2 * h)
            dxY[..., :, k] = (self.invert_Y(x + e, p)
                              - self.invert_Y(x - e, p)) / (2 * h)
        return -nm.matmul2(nm.inv2(dpY), dxY)

    def cross_det(self, x, y):
        """|det D^2_{x,y} c(x, y)|; raises DegenerateCross where it falls
        below CROSS_DET_FLOOR."""
        det = np.abs(nm.det2(self.cross_hessian(x, y)))
        if np.min(det) < CROSS_DET_FLOOR:
            raise DegenerateCross(
                f"|det cross Hessian| = {np.min(det):.3e} below {CROSS_DET_FLOOR:g}")
        return det

    def scalar_B(self, rho, rho_star, x, p):
        """|det D^2_{x,y} c(x, Y)| * rho(x) / rho*(Y) > 0."""
        y = self.invert_Y(x, p)
        return self.cross_det(x, y) * rho(x) / rho_star(y)

    def boundary_G(self, target, x, p):
        """G(x, p) = h*(Y(x, p)); negative iff Y(x, p) is interior to the target."""
        return target.h(self.invert_Y(x, p))

    def oblique_beta(self, target, x, p, y=None):
        """grad_p G(x, p) = (D_p Y)^T grad h*(Y) with D_p Y = C^{-1}, the
        oblique direction; ``p`` is not read when ``y`` is given."""
        if y is None:
            y = self.invert_Y(x, p)
        if self.cross_identity:
            return target.h_grad(y)
        P = nm.inv2(self.cross_hessian(x, y))     # (target, source) index order
        return nm.matvec2(nm.transpose2(P), target.h_grad(y))

    def G_hessian_p(self, target, x, p, y=None):
        """p-Hessian of G: P^T (D^2 h* - sum_j beta_j d_yy grad_x c_j) P.

        Assembled from the implicit-differentiation identities for Y rather
        than finite differences; P = C^{-1}.
        """
        if y is None:
            y = self.invert_Y(x, p)
        x = np.asarray(x, float)
        C = self.cross_hessian(x, y)
        P = nm.inv2(C)
        beta = nm.matvec2(nm.transpose2(P), target.h_grad(y))
        t_xyy = self.third_xyy(x, y)              # [j, r, q]
        K = np.einsum('...j,...jrq->...rq', beta, t_xyy)
        core = target.h_hess(y) - K
        return nm.matmul2(nm.transpose2(P), nm.matmul2(core, P))

    def mtw_tensor(self, x, p, xi, eta, h=None):
        """D_{p_i p_j} A_{k l} xi^i xi^j eta^k eta^l with eta projected off xi.

        Second central difference of A along xi in p; the classical curvature
        form that is >= 0 for regular costs.
        """
        x = np.asarray(x, float)
        p = np.asarray(p, float)
        xi = np.asarray(xi, float)
        eta = np.asarray(eta, float)
        xin = nm.norm2(xi)
        if np.any(xin == 0):
            raise ValueError("mtw_tensor: xi must be nonzero")
        uxi = xi / xin[..., None]
        eta = eta - (eta[..., 0] * uxi[..., 0] + eta[..., 1] * uxi[..., 1])[..., None] * uxi
        h = H_FD if h is None else h
        step = h * uxi
        app = self.matrix_A(x, p + step)
        a00 = self.matrix_A(x, p)
        apm = self.matrix_A(x, p - step)
        d2a = (app - 2.0 * a00 + apm) / h ** 2
        return nm.quadform2(d2a, eta) * xin ** 2


def _y_difference(oracle, x, y):
    """Centered differences in y, step H_FD, of a (..., 2, 2) oracle, the
    difference index last: the fallback of both mixed thirds."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    out = np.empty(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (2, 2, 2))
    for q in range(2):
        e = np.zeros(2)
        e[q] = H_FD
        out[..., q] = (oracle(x, y + e) - oracle(x, y - e)) / (2 * H_FD)
    return out


# --- built-in costs -------------------------------------------------------

def _broadcast_copy(a, b):
    """A new array holding a broadcast against b; when a already has the
    broadcast shape, a copy in a's own memory order (a node-major view of
    component planes stays plane-major)."""
    a = np.asarray(a)
    shape = np.broadcast(a, b).shape
    if shape == a.shape:
        return a.copy(order="K")
    out = np.empty(shape, a.dtype)
    out[...] = a
    return out


def _constant_oracle(value):
    """An oracle (x, y) -> a new array holding ``value`` at every broadcast
    pair of points."""
    def oracle(x, y):
        shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        return np.broadcast_to(value, shape + value.shape).copy()
    return oracle


#: the cross Hessian and mixed thirds of both quadratic costs
_IDENTITY = _constant_oracle(np.eye(2))
_ZERO_THIRDS = _constant_oracle(np.zeros((2, 2, 2)))


def _inner_product():
    def ev(x, y):
        return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]

    def gx(x, y):
        return _broadcast_copy(y, x)

    def gy(x, y):
        return _broadcast_copy(x, y)

    # the twist maps are the identity, so each inverse is a gradient map:
    # Y(x, p) = p and X(q, y) = q
    return CostModel("inner_product", ev, gx, gy, _IDENTITY,
                     _constant_oracle(np.zeros((2, 2))), gx, gy,
                     _ZERO_THIRDS, _ZERO_THIRDS, thirds_vanish=True,
                     cross_identity=True, hess_xx_vanishes=True)


def _neg_half_sq_dist():
    def ev(x, y):
        d = x - y
        return -0.5 * (d[..., 0] ** 2 + d[..., 1] ** 2)

    def gx(x, y):
        return y - x

    def gy(x, y):
        return x - y

    # -np.eye(2) has -0.0 off the diagonal, and the oracle's bits keep it
    return CostModel("neg_half_sq_dist", ev, gx, gy, _IDENTITY,
                     _constant_oracle(-np.eye(2)),
                     lambda x, p: x + p, lambda q, y: y + q,
                     _ZERO_THIRDS, _ZERO_THIRDS, thirds_vanish=True,
                     cross_identity=True)


def _sqrt_one_plus_sq_dist():
    # c = s(d) with d = x - y, s = sqrt(1 + |d|^2). Every y-derivative is a
    # d-derivative with flipped sign, so all orders come from s's d-derivatives.
    def _ds(x, y):
        d = x - y
        return d, np.sqrt(1.0 + d[..., 0] ** 2 + d[..., 1] ** 2)

    def ev(x, y):
        return _ds(x, y)[1]

    def gx(x, y):
        d, s = _ds(x, y)
        return d / s[..., None]

    def gy(x, y):
        d, s = _ds(x, y)
        return -d / s[..., None]

    def _hess_d(d, s):
        # d^2 s / dd_i dd_j = delta_ij / s - d_i d_j / s^3
        eye = np.eye(2)
        return (eye / s[..., None, None]
                - d[..., :, None] * d[..., None, :] / s[..., None, None] ** 3)

    def hxx(x, y):
        d, s = _ds(x, y)
        return _hess_d(d, s)

    def cr(x, y):
        d, s = _ds(x, y)
        return -_hess_d(d, s)

    def _third_d(d, s):
        # d^3 s/ddddd: -(delta_ij d_r + delta_ir d_j + delta_jr d_i)/s^3 + 3 d_i d_j d_r / s^5
        eye = np.eye(2)
        di = d[..., :, None, None]
        dj = d[..., None, :, None]
        dr = d[..., None, None, :]
        s3 = s[..., None, None, None] ** 3
        s5 = s[..., None, None, None] ** 5
        sym = (eye[:, :, None] * dr + eye[:, None, :] * dj + eye[None, :, :] * di)
        return -sym / s3 + 3.0 * di * dj * dr / s5

    def t_xxy(x, y):
        # one y-derivative: flip sign of one d-derivative
        d, s = _ds(x, y)
        return -_third_d(d, s)

    def t_xyy(x, y):
        # two y-derivatives: sign flips twice
        d, s = _ds(x, y)
        return _third_d(d, s)

    def inv_y(x, p):
        # |p| < 1 always; d = p / sqrt(1 - |p|^2)
        p2 = p[..., 0] ** 2 + p[..., 1] ** 2
        d = p / np.sqrt(np.maximum(1.0 - p2, 1e-300))[..., None]
        return x - d

    def inv_x(q, y):
        q2 = q[..., 0] ** 2 + q[..., 1] ** 2
        d = -q / np.sqrt(np.maximum(1.0 - q2, 1e-300))[..., None]
        return y + d

    return CostModel("sqrt_one_plus_sq_dist", ev, gx, gy, cr, hxx, inv_y, inv_x,
                     t_xxy, t_xyy)


_REGISTRY = {
    "inner_product": _inner_product,
    "neg_half_sq_dist": _neg_half_sq_dist,
    "sqrt_one_plus_sq_dist": _sqrt_one_plus_sq_dist,
}


def make_cost(name):
    """The built-in cost ``name``."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown cost '{name}'; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]()


def available_costs():
    return sorted(_REGISTRY)
