"""Cost-function calculus for planar optimal transport.

A :class:`CostModel` bundles derivative oracles for a transport cost c(x, y)
on R^2 x R^2 together with the derived objects the flow needs: the twist
inverses Y(x, p) and X(q, y), the matrix A(x, p), the density ratio B, the
boundary function G = h*(Y) with its p-gradient beta and p-Hessian, and the
Ma-Trudinger-Wang form.

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
from .errors import DegenerateCross, NonConvergence, OutsideTarget

#: default step for finite-difference third/fourth derivative fallbacks
DEFAULT_H_FD = 1e-4

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
    third_xxy_fn, third_xyy_fn : callables or None
        Analytic mixed third derivatives; centered finite differences with
        step ``h_fd`` are used when absent.
    invert_y_fn, invert_x_fn : callables or None
        Closed-form twist inverses, used to seed (and usually to finish)
        the Newton inversion.
    sign_convention : {"maximization", "minimization"}
        Orientation of the transport objective this model represents.
    """

    def __init__(self, name, eval_fn, grad_x_fn, grad_y_fn, cross_fn, hess_xx_fn,
                 third_xxy_fn=None, third_xyy_fn=None,
                 invert_y_fn=None, invert_x_fn=None,
                 newton_tol=1e-12, newton_cap=50, h_fd=DEFAULT_H_FD,
                 sign_convention="maximization", thirds_vanish=False,
                 inverse_exact=False, cross_identity=False,
                 hess_xx_vanishes=False):
        self.name = name
        self._eval = eval_fn
        self._grad_x = grad_x_fn
        self._grad_y = grad_y_fn
        self._cross = cross_fn
        self._hess_xx = hess_xx_fn
        self._third_xxy = third_xxy_fn
        self._third_xyy = third_xyy_fn
        self._invert_y = invert_y_fn
        self._invert_x = invert_x_fn
        self.newton_tol = float(newton_tol)
        self.newton_cap = int(newton_cap)
        self.h_fd = float(h_fd)
        self.sign_convention = sign_convention
        self.thirds_vanish = bool(thirds_vanish)
        # fast-path declarations: the closed-form inverse solves the twist
        # equation to roundoff / the cross Hessian is the identity / A == 0
        self.inverse_exact = bool(inverse_exact)
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
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        out = np.empty(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (2, 2, 2))
        h = self.h_fd
        for r in range(2):
            e = np.zeros(2)
            e[r] = h
            out[..., r] = (self.hess_xx(x, y + e) - self.hess_xx(x, y - e)) / (2 * h)
        return out

    def third_xyy(self, x, y):
        """d^3 c / dx_i dy_r dy_q, shape (..., 2, 2, 2)."""
        if self._third_xyy is not None:
            return self._third_xyy(np.asarray(x, float), np.asarray(y, float))
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        out = np.empty(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (2, 2, 2))
        h = self.h_fd
        for q in range(2):
            e = np.zeros(2)
            e[q] = h
            out[..., q] = (self.cross_hessian(x, y + e)
                           - self.cross_hessian(x, y - e)) / (2 * h)
        return out

    def derivative_bundle(self, x, y):
        """All derivatives at a single (x, y), for audits and tests."""
        return DerivativeBundle(
            value=self.eval(x, y), grad_x=self.grad_x(x, y), grad_y=self.grad_y(x, y),
            hess_xx=self.hess_xx(x, y), cross=self.cross_hessian(x, y),
            third_xxy=self.third_xxy(x, y), third_xyy=self.third_xyy(x, y))

    def negated(self):
        """The same cost with flipped sign (minimization <-> maximization).

        The twist inverses survive negation because grad_x(-c)(x, y) = -p has
        the same solution set as grad_x(c)(x, y) = p with p negated. The
        cross Hessian becomes -C, so only ``cross_identity`` is dropped.
        """
        flip = "minimization" if self.sign_convention == "maximization" else "maximization"

        def neg3(f):
            return None if f is None else (lambda x, y: -f(x, y))

        inv_y = None if self._invert_y is None else (lambda x, p: self._invert_y(x, -np.asarray(p, float)))
        inv_x = None if self._invert_x is None else (lambda q, y: self._invert_x(-np.asarray(q, float), y))
        return CostModel(
            self.name + "_negated",
            lambda x, y: -self._eval(x, y), neg3(self._grad_x), neg3(self._grad_y),
            neg3(self._cross), neg3(self._hess_xx),
            neg3(self._third_xxy), neg3(self._third_xyy),
            invert_y_fn=inv_y, invert_x_fn=inv_x,
            newton_tol=self.newton_tol, newton_cap=self.newton_cap, h_fd=self.h_fd,
            sign_convention=flip, thirds_vanish=self.thirds_vanish,
            inverse_exact=self.inverse_exact,
            hess_xx_vanishes=self.hess_xx_vanishes)

    # -- twist inversion --------------------------------------------------

    def invert_Y(self, x, p, seed=None, target=None, outside_tol=1e-8):
        """Solve grad_x c(x, y) = p for y by damped Newton.

        ``seed`` defaults to the closed-form inverse when the cost provides
        one, else to the target's star center, else to x. When ``target`` is
        given, the converged point must satisfy h*(y) <= outside_tol.
        """
        x = np.asarray(x, float)
        p = np.asarray(p, float)
        if self._invert_y is not None and self.inverse_exact and target is None:
            return self._invert_y(x, p)
        if seed is None:
            if self._invert_y is not None:
                seed = self._invert_y(x, p)
            elif target is not None:
                seed = np.broadcast_to(target.star_center, np.broadcast_shapes(
                    x.shape, p.shape)).copy()
            else:
                seed = np.broadcast_to(x, np.broadcast_shapes(x.shape, p.shape)).copy()
        y = self._newton(lambda yy: self.grad_x(x, yy) - p,
                         lambda yy: self.cross_hessian(x, yy),
                         np.array(seed, float, copy=True), "invert_Y")
        if target is not None:
            worst = np.max(target.h(y))
            if worst > outside_tol:
                raise OutsideTarget(
                    f"invert_Y converged outside the target: max h* = {worst:.3e}")
        return y

    def invert_X(self, q, y, seed=None, source=None, outside_tol=1e-8):
        """Solve grad_y c(x, y) = q for x (mirror of invert_Y)."""
        q = np.asarray(q, float)
        y = np.asarray(y, float)
        if self._invert_x is not None and self.inverse_exact and source is None:
            return self._invert_x(q, y)
        if seed is None:
            if self._invert_x is not None:
                seed = self._invert_x(q, y)
            elif source is not None:
                seed = np.broadcast_to(source.star_center, np.broadcast_shapes(
                    q.shape, y.shape)).copy()
            else:
                seed = np.broadcast_to(y, np.broadcast_shapes(q.shape, y.shape)).copy()
        x = self._newton(lambda xx: self.grad_y(xx, y) - q,
                         lambda xx: nm.transpose2(self.cross_hessian(xx, y)),
                         np.array(seed, float, copy=True), "invert_X")
        if source is not None:
            worst = np.max(source.h(x))
            if worst > outside_tol:
                raise OutsideTarget(
                    f"invert_X converged outside the source: max h = {worst:.3e}")
        return x

    def _newton(self, residual, jacobian, z, label):
        res = residual(z)
        err = nm.norm2(res)
        tol = self.newton_tol
        for _ in range(self.newton_cap):
            if np.max(err) <= tol:
                return z
            step = nm.solve2(jacobian(z), res)
            scale = np.ones_like(err)
            # damped update: halve the step where the residual would grow
            for _ in range(8):
                cand = z - scale[..., None] * step
                cand_err = nm.norm2(residual(cand))
                worse = cand_err > err
                if not np.any(worse & (err > tol)):
                    break
                scale = np.where(worse, 0.5 * scale, scale)
            z = z - scale[..., None] * step
            res = residual(z)
            err = nm.norm2(res)
        if np.max(err) > tol:
            raise NonConvergence(
                f"{label}: Newton stalled at residual {np.max(err):.3e} "
                f"after {self.newton_cap} iterations")
        return z

    # -- derived objects --------------------------------------------------

    def matrix_A(self, x, p, y=None, **kw):
        """A(x, p) = (D^2_x c)(x, Y(x, p)); pass ``y`` to reuse a known inverse."""
        if y is None:
            y = self.invert_Y(x, p, **kw)
        return self.hess_xx(x, y)

    def matrix_A_alt(self, x, p, h=None, **kw):
        """-(D_p Y)^{-1} D_x Y with both Jacobians of Y by central differences.

        Independent of :meth:`matrix_A`; kept for cross-validation.
        """
        x = np.asarray(x, float)
        p = np.asarray(p, float)
        h = self.h_fd if h is None else h
        shape = np.broadcast_shapes(x.shape, p.shape)
        dpY = np.empty(shape[:-1] + (2, 2))
        dxY = np.empty(shape[:-1] + (2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            dpY[..., :, k] = (self.invert_Y(x, p + e, **kw)
                              - self.invert_Y(x, p - e, **kw)) / (2 * h)
            dxY[..., :, k] = (self.invert_Y(x + e, p, **kw)
                              - self.invert_Y(x - e, p, **kw)) / (2 * h)
        return -nm.matmul2(nm.inv2(dpY), dxY)

    def scalar_B(self, rho, rho_star, x, p, y=None, **kw):
        """|det D^2_{x,y} c(x, Y)| * rho(x) / rho*(Y) > 0."""
        if y is None:
            y = self.invert_Y(x, p, **kw)
        det = nm.det2(self.cross_hessian(x, y))
        if np.min(np.abs(det)) < CROSS_DET_FLOOR:
            raise DegenerateCross(
                f"|det cross Hessian| below {CROSS_DET_FLOOR:g} in scalar_B")
        return np.abs(det) * rho(x) / rho_star(y)

    def boundary_G(self, target, x, p, y=None, **kw):
        """G(x, p) = h*(Y(x, p)); negative iff Y(x, p) is interior to the target."""
        if y is None:
            y = self.invert_Y(x, p, **kw)
        return target.h(y)

    def oblique_beta(self, target, x, p, y=None, **kw):
        """grad_p G(x, p) = (D_p Y)^T grad h*(Y) with D_p Y = C^{-1}, the
        oblique direction; ``p`` is not read when ``y`` is given."""
        if y is None:
            y = self.invert_Y(x, p, **kw)
        if self.cross_identity:
            return target.h_grad(y)
        P = nm.inv2(self.cross_hessian(x, y))     # (target, source) index order
        return nm.matvec2(nm.transpose2(P), target.h_grad(y))

    def G_hessian_p(self, target, x, p, y=None, **kw):
        """p-Hessian of G: P^T (D^2 h* - sum_j beta_j d_yy grad_x c_j) P.

        Assembled from the implicit-differentiation identities for Y rather
        than finite differences; P = C^{-1}.
        """
        if y is None:
            y = self.invert_Y(x, p, **kw)
        x = np.asarray(x, float)
        C = self.cross_hessian(x, y)
        P = nm.inv2(C)
        beta = nm.matvec2(nm.transpose2(P), target.h_grad(y))
        t_xyy = self.third_xyy(x, y)              # [j, r, q]
        K = np.einsum('...j,...jrq->...rq', beta, t_xyy)
        core = target.h_hess(y) - K
        return nm.matmul2(nm.transpose2(P), nm.matmul2(core, P))

    def mtw_tensor(self, x, p, xi, eta, h=None, **kw):
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
        h = self.h_fd if h is None else h
        step = h * uxi
        app = self.matrix_A(x, p + step, **kw)
        a00 = self.matrix_A(x, p, **kw)
        apm = self.matrix_A(x, p - step, **kw)
        d2a = (app - 2.0 * a00 + apm) / h ** 2
        return nm.quadform2(d2a, eta) * xin ** 2


class DerivativeBundle:
    """Derivatives of a cost at one (x, y), with the symmetry facts attached."""

    def __init__(self, value, grad_x, grad_y, hess_xx, cross, third_xxy, third_xyy):
        self.value = value
        self.grad_x = grad_x
        self.grad_y = grad_y
        self.hess_xx = hess_xx
        self.cross = cross
        self.third_xxy = third_xxy
        self.third_xyy = third_xyy

    def hess_xx_asymmetry(self):
        return float(np.max(np.abs(self.hess_xx - nm.transpose2(self.hess_xx))))


# --- built-in costs -------------------------------------------------------

def _broadcast_copy(a, b):
    """A new array holding a broadcast against b."""
    a = np.asarray(a)
    out = np.empty(np.broadcast(a, b).shape, a.dtype)
    out[...] = a
    return out


def _inner_product(**params):
    def ev(x, y):
        return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]

    def gx(x, y):
        return _broadcast_copy(y, x)

    def gy(x, y):
        return _broadcast_copy(x, y)

    def cr(x, y):
        shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        return np.broadcast_to(np.eye(2), shape + (2, 2)).copy()

    def hxx(x, y):
        shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        return np.zeros(shape + (2, 2))

    def t3(x, y):
        shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        return np.zeros(shape + (2, 2, 2))

    # the twist maps are the identity, so each inverse is a gradient map:
    # Y(x, p) = p and X(q, y) = q
    return CostModel("inner_product", ev, gx, gy, cr, hxx, t3, t3,
                     invert_y_fn=gx, invert_x_fn=gy,
                     thirds_vanish=True, inverse_exact=True,
                     cross_identity=True, hess_xx_vanishes=True, **params)


def _neg_half_sq_dist(**params):
    def ev(x, y):
        d = x - y
        return -0.5 * (d[..., 0] ** 2 + d[..., 1] ** 2)

    def gx(x, y):
        return y - x

    def gy(x, y):
        return x - y

    def cr(x, y):
        shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        return np.broadcast_to(np.eye(2), shape + (2, 2)).copy()

    def hxx(x, y):
        shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        return np.broadcast_to(-np.eye(2), shape + (2, 2)).copy()

    def t3(x, y):
        shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        return np.zeros(shape + (2, 2, 2))

    return CostModel("neg_half_sq_dist", ev, gx, gy, cr, hxx, t3, t3,
                     invert_y_fn=lambda x, p: x + p,
                     invert_x_fn=lambda q, y: y + q,
                     thirds_vanish=True, inverse_exact=True,
                     cross_identity=True, **params)


def _sqrt_one_plus_sq_dist(**params):
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

    return CostModel("sqrt_one_plus_sq_dist", ev, gx, gy, cr, hxx, t_xxy, t_xyy,
                     invert_y_fn=inv_y, invert_x_fn=inv_x, inverse_exact=True,
                     **params)


_REGISTRY = {
    "inner_product": _inner_product,
    "neg_half_sq_dist": _neg_half_sq_dist,
    "sqrt_one_plus_sq_dist": _sqrt_one_plus_sq_dist,
}


def register_cost(name, factory):
    """Make a user cost addressable by name in scenario configs. The factory
    takes the solver keywords of a config's cost section (``newton_tol``,
    ``h_fd``) and forwards them to :class:`CostModel`."""
    _REGISTRY[name] = factory


def make_cost(name, **params):
    """The registered cost ``name``, built with the CostModel keywords
    ``params`` (for example newton_tol and h_fd)."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown cost '{name}'; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**params)


def available_costs():
    return sorted(_REGISTRY)
