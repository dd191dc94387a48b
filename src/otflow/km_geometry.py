"""Pseudo-metric geometry of the transport problem.

The product space carries the split pseudo-metric

    h = 1/2 [[0, C], [C^T, 0]],     C_ij = d^2 c / dx_i dy_j,

written here in terms of the maximization cost used by the rest of the
package (the construction classically uses the negated, minimization-form
cost; the two sign flips cancel in the off-diagonal blocks). Pulling h back
along x -> (x, T(x)) yields a Riemannian metric on the source whose
coefficients coincide with the flow's matrix W, which this module verifies.

The boundary curvature identity relates the second fundamental form of the
source boundary in the pullback metric to the Euclidean curvatures of the two
gradient-coordinate images of the boundaries:

    2 |beta|_w II^w(tau, tau) = |DT beta| II_im1(tau_hat, tau_hat)
                                + |beta| II_im2(taubar_hat, taubar_hat)

with tau_hat = C^T tau and taubar_hat = C DT tau, where im1 is the image of
the source boundary under x -> grad_y c(x, T(x0)) and im2 the image of the
target boundary under y -> grad_x c(x0, y), both oriented by their outward
normals. II^w is evaluated two independent ways (intrinsically through the
Christoffel symbols of w, and through the ambient connection of h along the
embedding) and cross-checked.

The target parameter of T(x0) is the closed form ``Domain.boundary_s``, each
image is oriented by sign det C (the image map's Jacobian is C^T or C), and
the 2x2 algebra is ``_numerics``'.

The same metric drives the weighted Laplacian: with weight
phi = log |det C(x,T)| - log rho*(T) - (1/2) log det W, the linearized flow
operator equals the phi-weighted Laplace-Beltrami operator of w minus the
time derivative, which ``verify_weighted_laplacian_identity`` measures on
node arrays.

The boundary evaluators (``verify_II_identity``, which reports both II^w
evaluations, and ``dbeta_gradnorm_boundary``) take an int array of boundary
nodes and return arrays, one entry per node, from one evaluation of the
ring's fields (beta, the transport Jacobian, the Christoffel symbols of w);
an image curve that degenerates at any node raises. The direct side of
``dbeta_gradnorm_boundary`` is the calculus kernel's boundary gradient
(``grid.directional_derivative_at_boundary``); it reads the gap series at
the state's time (``linearized.GapSeries.index_of``).
"""

from dataclasses import dataclass

import numpy as np

from . import _numerics as nm
from . import linearized
from .errors import DegenerateImage, MetricDegenerate
from .grid import directional_derivative_at_boundary

#: an image curve slower than this at the evaluation point is degenerate
VELOCITY_FLOOR = 1e-12


class KMMetric:
    """The split pseudo-metric on the product space and its connection."""

    def __init__(self, cost):
        self.cost = cost

    def metric(self, x, y):
        """h as a (..., 4, 4) symmetric array at (x, y)."""
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        C = self.cost.cross_hessian(x, y)
        out = np.zeros(C.shape[:-2] + (4, 4))
        out[..., :2, 2:] = 0.5 * C
        out[..., 2:, :2] = 0.5 * nm.transpose2(C)
        return out

    def metric_inverse(self, x, y):
        C = self.cost.cross_hessian(x, y)
        cinv = nm.inv2(C)
        out = np.zeros(C.shape[:-2] + (4, 4))
        out[..., :2, 2:] = 2.0 * nm.transpose2(cinv)
        out[..., 2:, :2] = 2.0 * cinv
        return out

    def metric_derivatives(self, x, y):
        """dh[gamma, mu, lam] = d h_(mu lam) / d X^gamma from the cost's
        analytic (or finite-difference) mixed third derivatives."""
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        t_xxy = self.cost.third_xxy(x, y)     # [i, a, j] = c_(ia, j)
        t_xyy = self.cost.third_xyy(x, y)     # [i, j, b] = c_(i, jb)
        shape = t_xxy.shape[:-3]
        dh = np.zeros(shape + (4, 4, 4))
        for a in range(2):
            dC = t_xxy[..., :, a, :]          # dC/dx_a
            dh[..., a, :2, 2:] = 0.5 * dC
            dh[..., a, 2:, :2] = 0.5 * nm.transpose2(dC)
        for b in range(2):
            dC = t_xyy[..., :, :, b]          # dC/dy_b
            dh[..., 2 + b, :2, 2:] = 0.5 * dC
            dh[..., 2 + b, 2:, :2] = 0.5 * nm.transpose2(dC)
        return dh

    def christoffel(self, x, y):
        """Gamma^delta_(gamma lam) of h at (x, y), shape (..., 4, 4, 4)."""
        hinv = self.metric_inverse(x, y)
        dh = self.metric_derivatives(x, y)
        # 1/2 h^(delta mu) (d_gamma h_(mu lam) + d_lam h_(mu gamma) - d_mu h_(gamma lam))
        sym = (np.einsum('...gml->...gml', dh)
               + np.einsum('...lmg->...gml', dh)
               - np.einsum('...mgl->...gml', dh))
        return 0.5 * np.einsum('...dm,...gml->...dgl', hinv, sym)


@dataclass
class PullbackMetric:
    """The pullback metric field with its weight and connection data."""

    w: np.ndarray            # (n_r, n_s, 2, 2) assembled via the pullback
    phi: np.ndarray          # weighted-Laplacian weight
    christoffel: np.ndarray  # (n_r, n_s, 2, 2, 2): Gamma^k_(ij) of w


def transport_jacobian(state):
    """DT by finite differences of the cached transport-map field."""
    grid = state.grid
    out = np.empty((grid.n_r, grid.n_s, 2, 2))
    for k in range(2):
        out[..., k, :] = grid.grad_values(state.tmap[..., k])
    return out


def pullback_metric(state):
    """Assemble the pullback of h along x -> (x, T(x)) plus the weight phi.

    The pullback of the split metric along the graph embedding is the
    symmetric part of C DT; its coefficients match the flow's W up to the
    finite-difference error in DT.
    """
    grid = state.grid
    spec = state.spec
    C = spec.cost.cross_hessian(grid.nodes, state.tmap)
    DT = transport_jacobian(state)
    M = nm.matmul2(C, DT)
    w = 0.5 * (M + nm.transpose2(M))
    lo, _ = nm.sym_eig_range2(w)
    if np.min(lo) <= 0:
        raise MetricDegenerate(
            f"pullback metric lost positivity (min eig {np.min(lo):.3e})")
    det_c = np.abs(nm.det2(C))
    rho_star_t = spec.rho_star(state.tmap)
    phi = np.log(det_c) - np.log(rho_star_t) - 0.5 * np.log(state.det_W)
    gamma = metric_christoffel(grid, state.W)
    return PullbackMetric(w=w, phi=phi, christoffel=gamma)


def metric_christoffel(grid, w_field):
    """Gamma^k_(ij) of a 2x2 metric field by differentiating its components
    with the grid calculus."""
    return _christoffel_algebra(w_field, _metric_gradient(grid, w_field))


def _metric_gradient(grid, w_field):
    """dw[..., i, j, l] = d_l w_ij of a symmetric 2x2 field on the grid."""
    dw = np.empty((grid.n_r, grid.n_s, 2, 2, 2))
    dw[..., 0, 0, :] = grid.grad_values(w_field[..., 0, 0])
    dw[..., 0, 1, :] = grid.grad_values(w_field[..., 0, 1])
    dw[..., 1, 0, :] = dw[..., 0, 1, :]
    dw[..., 1, 1, :] = grid.grad_values(w_field[..., 1, 1])
    return dw


def _christoffel_algebra(w, dw):
    """Gamma^k_(ij) from w and its gradient ``_metric_gradient``, node by
    node: any slice of the nodes gives the same slice of the field."""
    winv = nm.inv2(w)
    sym = (np.einsum('...lji->...ijl', dw)
           + np.einsum('...lij->...ijl', dw)
           - np.einsum('...ijl->...ijl', dw))
    return 0.5 * np.einsum('...kl,...ijl->...kij', winv, sym)


# --- second fundamental forms ---------------------------------------------------

@dataclass
class IIReport:
    """Both sides of the boundary curvature identity at each node of a node
    array: every field but ``grid_shape`` has one entry per node, and
    ``at(i)`` is entry i as a one-node report of plain numbers."""

    node: int
    lhs: float
    rhs: float
    term_source_image: float
    term_target_image: float
    ii_intrinsic: float
    ii_ambient: float
    rel_error: float
    grid_shape: tuple

    def as_dict(self):
        return {"node": self.node, "lhs": self.lhs, "rhs": self.rhs,
                "term_source_image": self.term_source_image,
                "term_target_image": self.term_target_image,
                "ii_intrinsic": self.ii_intrinsic,
                "ii_ambient": self.ii_ambient,
                "rel_error": self.rel_error,
                "grid": list(self.grid_shape)}

    def at(self, i):
        """The one-node report of entry i."""
        return IIReport(node=int(self.node[i]), lhs=float(self.lhs[i]),
                        rhs=float(self.rhs[i]),
                        term_source_image=float(self.term_source_image[i]),
                        term_target_image=float(self.term_target_image[i]),
                        ii_intrinsic=float(self.ii_intrinsic[i]),
                        ii_ambient=float(self.ii_ambient[i]),
                        rel_error=float(self.rel_error[i]),
                        grid_shape=self.grid_shape)


def _ring_w_data(state):
    grid = state.grid
    beta = state.ring_beta()
    W = state.W[-1]
    tau_e = grid.jac[-1, :, :, 1]                  # boundary velocity x_s
    norm_w = np.sqrt(nm.quadform2(W, tau_e))
    tau_unit = tau_e / norm_w[:, None]
    beta_w = np.sqrt(nm.quadform2(W, beta))
    return beta, W, tau_e, norm_w, tau_unit, beta_w


def _second_fundamental_form(state, j, ring, DT):
    """II^w(tau, tau) for the w-unit boundary tangent at the nodes j (an int
    array), from the ring data of ``_ring_w_data`` and the ring's transport
    Jacobian DT; (intrinsic, ambient), computed through the Christoffel
    symbols of w and through the ambient connection of the split metric."""
    grid = state.grid
    beta, W, tau_e, norm_w, tau_unit, beta_w = ring
    if np.min(beta_w) <= 0:
        raise MetricDegenerate("w-norm of beta vanished on the boundary")

    # intrinsic: II = w(nabla^w_tau nhat, tau)
    nhat = beta / beta_w[:, None]
    dnhat = grid.d_s_ring(nhat)
    gamma_w = _christoffel_algebra(W, _metric_gradient(grid, state.W)[-1])
    corr = np.einsum('...kab,...a,...b->...k', gamma_w[j], tau_e[j], nhat[j])
    cov = (dnhat[j] + corr) / norm_w[j][:, None]
    ii_intr = np.vecdot(cov, nm.matvec2(W[j], tau_unit[j]))

    # ambient: II = -|beta|_w^{-1} h(beta (+) DT beta, nabla^h_U V)
    V = np.concatenate([tau_unit, nm.matvec2(DT, tau_unit)], axis=-1)
    dV = grid.d_s_ring(V)
    x0 = grid.nodes[-1, j]
    y0 = state.tmap[-1, j]
    km = KMMetric(state.spec.cost)
    gam_h = km.christoffel(x0, y0)
    U4 = (np.concatenate([tau_e[j], nm.matvec2(DT[j], tau_e[j])], axis=-1)
          / norm_w[j][:, None])
    corr4 = np.einsum('...dgl,...g,...l->...d', gam_h, U4, V[j])
    cov4 = dV[j] / norm_w[j][:, None] + corr4
    beta4 = np.concatenate([beta[j], nm.matvec2(DT[j], beta[j])], axis=-1)
    flat = np.einsum('...ml,...l->...m', km.metric(x0, y0), beta4)
    ii_amb = -np.vecdot(flat, cov4) / beta_w[j]
    return ii_intr, ii_amb


def coordinate_domain_II(cost, which, anchor, boundary_domain, s_eval,
                         step=1e-4):
    """Euclidean second-fundamental-form curvature of a gradient-coordinate
    image boundary, oriented by the outward normal of the image region.

    which = 'source_image': the image of ``boundary_domain`` (the source)
    under x -> grad_y c(x, anchor); 'target_image': the image of
    ``boundary_domain`` (the target) under y -> grad_x c(anchor, y). Returns
    the signed curvature at parameter ``s_eval`` (the second fundamental form
    against a tangent vector v is curvature * |v|^2), an array of the shape
    the anchors (..., 2) and parameters broadcast to.

    The curvature is a centered difference at s_eval +- step. The image map
    has Jacobian C^T (source image) or C (target image), C the cross Hessian
    at the evaluation point; under the twist condition it keeps the
    counterclockwise orientation iff det C > 0, so sign det C orients it.
    """
    if which not in ("source_image", "target_image"):
        raise ValueError("which must be 'source_image' or 'target_image'")
    anchor = np.asarray(anchor, float)
    s_eval = np.asarray(s_eval, float)
    grad = cost.grad_y if which == "source_image" else cost.grad_x

    def pair(s):
        """The cost's (x, y) at boundary parameter(s) s."""
        b = boundary_domain.boundary_param(s)
        return (b, anchor) if which == "source_image" else (anchor, b)

    orient = np.sign(nm.det2(cost.cross_hessian(*pair(s_eval))))
    q_m, q_0, q_p = (grad(*pair(s_eval + d)) for d in (-step, 0.0, step))
    qp = (q_p - q_m) / (2 * step)
    qpp = (q_p - 2 * q_0 + q_m) / step ** 2
    speed = nm.norm2(qp)
    if np.any(speed < VELOCITY_FLOOR):
        raise DegenerateImage(
            f"image curve velocity {np.min(speed):.3e} below floor")
    return orient * nm.cross2(qp, qpp) / speed ** 3


def verify_II_identity(state, j):
    """Evaluate both sides of the boundary curvature identity at the
    boundary nodes j (an int array) and return the comparison report, its
    fields arrays, from one evaluation of the ring's and the grid's
    fields."""
    grid = state.grid
    spec = state.spec
    cost = spec.cost
    ring = _ring_w_data(state)
    beta, W, tau_e, norm_w, tau_unit, beta_w = ring
    DT_ring = transport_jacobian(state)[-1]
    ii_intr, ii_amb = _second_fundamental_form(state, j, ring, DT_ring)
    lhs = 2.0 * beta_w[j] * ii_intr

    x0 = grid.nodes[-1, j]
    y0 = state.tmap[-1, j]
    C = cost.cross_hessian(x0, y0)
    DT = DT_ring[j]
    tau = tau_unit[j]
    tau_hat = nm.matvec2(nm.transpose2(C), tau)
    taubar_hat = nm.matvec2(C, nm.matvec2(DT, tau))
    dt_beta = nm.matvec2(DT, beta[j])

    kappa_src = coordinate_domain_II(cost, "source_image", y0, spec.source,
                                     grid.s[j])
    kappa_tgt = coordinate_domain_II(cost, "target_image", x0, spec.target,
                                     spec.target.boundary_s(y0))
    term1 = nm.norm2(dt_beta) * kappa_src * np.vecdot(tau_hat, tau_hat)
    term2 = nm.norm2(beta[j]) * kappa_tgt * np.vecdot(taubar_hat, taubar_hat)
    rhs = term1 + term2
    rel = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)),
                                         1e-300)
    return IIReport(node=j, lhs=lhs, rhs=rhs, term_source_image=term1,
                    term_target_image=term2, ii_intrinsic=ii_intr,
                    ii_ambient=ii_amb, rel_error=rel,
                    grid_shape=(grid.n_r, grid.n_s))


def dbeta_gradnorm_boundary(series, state, j):
    """The boundary derivative along beta of |grad^w f|^2_w for the gap
    solution at the boundary nodes j (an int array) at the state's time, two
    ways: geometrically as -2 |beta|_w II^w(grad^w f, grad^w f) and directly,
    as the calculus kernel's boundary gradient of the scalar field contracted
    with beta. Returns (geometric, direct), arrays with one entry per node."""
    m = series.index_of(state)
    grid = state.grid
    ring = _ring_w_data(state)
    beta, W, tau_e, norm_w, tau_unit, beta_w = ring
    ii_intr = _second_fundamental_form(state, j, ring,
                                       transport_jacobian(state)[-1])[0]
    grad_f = series.grad_f[m]
    tau_f = nm.solve2(W[j], grad_f[-1, j])
    a = np.vecdot(tau_f, nm.matvec2(W[j], tau_unit[j]))
    geo = -2.0 * beta_w[j] * ii_intr * a ** 2
    winv = nm.inv2(state.W)
    q = nm.quadform2(winv, grad_f)
    direct = directional_derivative_at_boundary(grid, q, j, beta[j])
    return geo, direct


def verify_weighted_laplacian_identity(state, v_now, v_prev, dt):
    """Residual of the identity between the linearized operator and the
    phi-weighted Laplace-Beltrami operator of the pullback metric, an
    (n_r, n_s) node array from the node arrays v_now and v_prev on the
    state's grid.

    Both sides carry the same backward time difference, so it cancels and the
    residual is purely spatial: [w^{ij} v_ij + drift . grad v] -
    [Delta_w v - <grad^w phi, grad^w v>_w]. Meaningful on interior nodes.
    """
    grid = state.grid
    coeffs = linearized.build_coeffs(state)
    lv = linearized.apply_L(coeffs, grid, v_now, v_prev, dt)
    pm = pullback_metric(state)
    gx, hess = grid.scalar_calculus(v_now)
    winv = coeffs.winv
    lap = (winv[..., 0, 0] * hess[..., 0, 0]
           + winv[..., 0, 1] * hess[..., 0, 1]
           + winv[..., 1, 0] * hess[..., 1, 0]
           + winv[..., 1, 1] * hess[..., 1, 1])
    gam_contr = np.einsum('...ij,...kij->...k', winv, pm.christoffel)
    lap = lap - np.einsum('...k,...k->...', gam_contr, gx)
    grad_phi = grid.grad_values(pm.phi)
    drift_phi = np.einsum('...i,...ij,...j->...', grad_phi, winv, gx)
    delta_phi = lap - drift_phi
    dt_term = (v_now - v_prev) / dt
    return lv - (delta_phi - dt_term)


def map_chart_jacobian_check(cost, x0, y0):
    """Max deviation between the Jacobian of the product chart
    Phi(x, y) = (grad_x c(x0, y), grad_y c(x, y0)) at (x0, y0) and twice the
    split metric there; zero in exact arithmetic."""
    x0 = np.asarray(x0, float)
    y0 = np.asarray(y0, float)

    def phi(x, y):
        return np.concatenate([cost.grad_x(x0, y), cost.grad_y(x, y0)])

    step = 1e-6
    jac = np.zeros((4, 4))
    for g in range(4):
        e = np.zeros(4)
        e[g] = step
        xp, yp = x0 + e[:2], y0 + e[2:]
        xm, ym = x0 - e[:2], y0 - e[2:]
        jac[:, g] = (phi(xp, yp) - phi(xm, ym)) / (2 * step)
    h2 = 2.0 * KMMetric(cost).metric(x0, y0)
    return float(np.max(np.abs(jac - h2)))
