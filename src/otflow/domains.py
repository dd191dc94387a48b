"""Smooth bounded planar domains, densities, and standing-hypothesis audits.

A :class:`Domain` couples a normalized defining function h (h < 0 inside,
h = 0 on the boundary, grad h = outward unit normal on the boundary) with a
periodic boundary parametrization s in [0, 1) traversed counterclockwise.
The built-in library is disks, ellipses, and star-shaped cosine blobs
r(phi) = R (1 + eps cos(k phi)); all are C-infinity with analytic
parametrization derivatives.

The audits certify, by dense deterministic sampling with recorded witnesses,
the hypotheses the flow needs: invertibility of the cross Hessian on the
product of the closures, the two boundary convexity forms, density bounds,
and equality of total masses.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from . import _numerics as nm
from .errors import BitwistFailure, DensityOutOfBounds, MassImbalance


class Domain:
    """A smooth bounded star-shaped planar domain.

    Subclasses provide the defining function and the boundary parametrization;
    generic derivative fallbacks are centered finite differences. The defining
    function of a non-disk domain is normalized by |grad| of its raw form and
    is therefore singular at the star center; every consumer in this package
    evaluates it away from that point.
    """

    kind = "abstract"

    def __init__(self, star_center):
        self.star_center = np.asarray(star_center, float)

    # -- defining function --------------------------------------------------

    def h(self, x):
        raise NotImplementedError

    def h_grad(self, x, step=1e-6):
        x = np.asarray(x, float)
        g = np.empty(x.shape)
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            g[..., k] = (self.h(x + e) - self.h(x - e)) / (2 * step)
        return g

    def h_hess(self, x, step=1e-4):
        x = np.asarray(x, float)
        out = np.empty(x.shape[:-1] + (2, 2))
        h0 = self.h(x)
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            out[..., k, k] = (self.h(x + e) - 2 * h0 + self.h(x - e)) / step ** 2
        e0 = np.array([step, 0.0])
        e1 = np.array([0.0, step])
        cross = (self.h(x + e0 + e1) - self.h(x + e0 - e1)
                 - self.h(x - e0 + e1) + self.h(x - e0 - e1)) / (4 * step ** 2)
        out[..., 0, 1] = cross
        out[..., 1, 0] = cross
        return out

    # -- boundary parametrization -------------------------------------------

    def boundary_param(self, s):
        raise NotImplementedError

    def boundary_velocity(self, s):
        raise NotImplementedError

    def boundary_accel(self, s):
        raise NotImplementedError

    def boundary_tangent(self, s):
        v = self.boundary_velocity(s)
        return v / nm.norm2(v)[..., None]

    def outward_normal(self, s):
        # counterclockwise traversal: outward = tangent rotated by -90 degrees
        t = self.boundary_tangent(s)
        return np.stack([t[..., 1], -t[..., 0]], axis=-1)

    def curvature(self, s, step=1e-5):
        """Signed curvature from centered differences of the parametrization."""
        s = np.asarray(s, float)
        v = (self.boundary_param(s + step) - self.boundary_param(s - step)) / (2 * step)
        a = (self.boundary_param(s + step) - 2 * self.boundary_param(s)
             + self.boundary_param(s - step)) / step ** 2
        return nm.cross2(v, a) / nm.norm2(v) ** 3

    @property
    def area(self):
        raise NotImplementedError

    def describe(self):
        return {"kind": self.kind}


class Disk(Domain):
    kind = "disk"

    def __init__(self, radius=1.0, center=(0.0, 0.0)):
        super().__init__(center)
        self.radius = float(radius)
        self.center = np.asarray(center, float)

    def h(self, x):
        return nm.norm2(np.asarray(x, float) - self.center) - self.radius

    def h_grad(self, x, step=None):
        d = np.asarray(x, float) - self.center
        return d / nm.norm2(d)[..., None]

    def h_hess(self, x, step=None):
        d = np.asarray(x, float) - self.center
        r = nm.norm2(d)
        n = d / r[..., None]
        eye = np.eye(2)
        return (eye - n[..., :, None] * n[..., None, :]) / r[..., None, None]

    def boundary_param(self, s):
        ang = 2 * np.pi * np.asarray(s, float)
        return self.center + self.radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    def boundary_velocity(self, s):
        ang = 2 * np.pi * np.asarray(s, float)
        return 2 * np.pi * self.radius * np.stack([-np.sin(ang), np.cos(ang)], axis=-1)

    def boundary_accel(self, s):
        ang = 2 * np.pi * np.asarray(s, float)
        return -(2 * np.pi) ** 2 * self.radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    @property
    def area(self):
        return np.pi * self.radius ** 2

    def describe(self):
        return {"kind": "disk", "radius": self.radius, "center": self.center.tolist()}


class Ellipse(Domain):
    kind = "ellipse"

    def __init__(self, a=1.0, b=1.0, center=(0.0, 0.0)):
        super().__init__(center)
        self.a = float(a)
        self.b = float(b)
        self.center = np.asarray(center, float)

    def _raw(self, x):
        d = np.asarray(x, float) - self.center
        return (d[..., 0] / self.a) ** 2 + (d[..., 1] / self.b) ** 2 - 1.0

    def h(self, x):
        d = np.asarray(x, float) - self.center
        gn = 2.0 * np.sqrt((d[..., 0] / self.a ** 2) ** 2 + (d[..., 1] / self.b ** 2) ** 2)
        return self._raw(x) / np.maximum(gn, 1e-300)

    def boundary_param(self, s):
        ang = 2 * np.pi * np.asarray(s, float)
        return self.center + np.stack([self.a * np.cos(ang), self.b * np.sin(ang)], axis=-1)

    def boundary_velocity(self, s):
        ang = 2 * np.pi * np.asarray(s, float)
        return 2 * np.pi * np.stack([-self.a * np.sin(ang), self.b * np.cos(ang)], axis=-1)

    def boundary_accel(self, s):
        ang = 2 * np.pi * np.asarray(s, float)
        return -(2 * np.pi) ** 2 * np.stack([self.a * np.cos(ang), self.b * np.sin(ang)], axis=-1)

    @property
    def area(self):
        return np.pi * self.a * self.b

    def min_curvature(self):
        return min(self.a / self.b ** 2, self.b / self.a ** 2)

    def describe(self):
        return {"kind": "ellipse", "a": self.a, "b": self.b, "center": self.center.tolist()}


class CosineBlob(Domain):
    """Star-shaped domain with boundary radius R (1 + eps cos(k phi)).

    Nonconvex for k >= 2 and eps large enough; even k keeps the domain
    centrally symmetric about its center.
    """

    kind = "blob"

    def __init__(self, radius=1.0, eps=0.2, k=2, center=(0.0, 0.0)):
        if not 0 <= eps < 1:
            raise ValueError("blob eps must lie in [0, 1)")
        super().__init__(center)
        self.radius = float(radius)
        self.eps = float(eps)
        self.k = int(k)
        self.center = np.asarray(center, float)

    def _rb(self, phi):
        return self.radius * (1.0 + self.eps * np.cos(self.k * phi))

    def h(self, x):
        d = np.asarray(x, float) - self.center
        r = nm.norm2(d)
        phi = np.arctan2(d[..., 1], d[..., 0])
        raw = r - self._rb(phi)
        # normalize by |grad raw| so grad h is the unit normal on the boundary
        drb = -self.radius * self.eps * self.k * np.sin(self.k * phi)
        gn = np.sqrt(1.0 + (drb / np.maximum(r, 1e-300)) ** 2)
        return raw / gn

    def boundary_param(self, s):
        phi = 2 * np.pi * np.asarray(s, float)
        return self.center + self._rb(phi)[..., None] * np.stack(
            [np.cos(phi), np.sin(phi)], axis=-1)

    def boundary_velocity(self, s):
        phi = 2 * np.pi * np.asarray(s, float)
        rb = self._rb(phi)
        drb = -self.radius * self.eps * self.k * np.sin(self.k * phi)
        c, sn = np.cos(phi), np.sin(phi)
        return 2 * np.pi * np.stack([drb * c - rb * sn, drb * sn + rb * c], axis=-1)

    def boundary_accel(self, s):
        phi = 2 * np.pi * np.asarray(s, float)
        rb = self._rb(phi)
        drb = -self.radius * self.eps * self.k * np.sin(self.k * phi)
        d2rb = -self.radius * self.eps * self.k ** 2 * np.cos(self.k * phi)
        c, sn = np.cos(phi), np.sin(phi)
        return (2 * np.pi) ** 2 * np.stack(
            [(d2rb - rb) * c - 2 * drb * sn, (d2rb - rb) * sn + 2 * drb * c], axis=-1)

    @property
    def area(self):
        # 1/2 int r_b(phi)^2 dphi
        return np.pi * self.radius ** 2 * (1.0 + 0.5 * self.eps ** 2)

    def describe(self):
        return {"kind": "blob", "radius": self.radius, "eps": self.eps,
                "k": self.k, "center": self.center.tolist()}


_DOMAINS = {"disk": Disk, "ellipse": Ellipse, "blob": CosineBlob}


def make_domain(kind, **params):
    if kind not in _DOMAINS:
        raise KeyError(f"unknown domain kind '{kind}'; known: {sorted(_DOMAINS)}")
    return _DOMAINS[kind](**params)


def available_domains():
    return sorted(_DOMAINS)


# --- densities --------------------------------------------------------------

class Density:
    """Probability density on a domain with analytic log-gradient.

    ``scale`` multiplies the normalized density (used to build deliberately
    mass-imbalanced configurations in tests).
    """

    def __init__(self, name, domain, value_fn, grad_log_fn, lo, hi, params=None):
        self.name = name
        self.domain = domain
        self._value = value_fn
        self._grad_log = grad_log_fn
        self.lo = float(lo)
        self.hi = float(hi)
        self.params = dict(params or {})

    def __call__(self, y):
        return self._value(np.asarray(y, float))

    def grad_log(self, y):
        return self._grad_log(np.asarray(y, float))

    def describe(self):
        return {"name": self.name, **self.params}


def uniform_density(domain, scale=1.0):
    level = scale / domain.area

    def value(y):
        return np.full(y.shape[:-1], level)

    def grad_log(y):
        return np.zeros(y.shape)

    return Density("uniform", domain, value, grad_log, level, level,
                   {"scale": scale} if scale != 1.0 else {})


def cosine_bump_density(domain, eps=0.1, k=1, scale=1.0):
    """(1 + eps (r/R)^k cos(k angle)) / area: the smooth density whose angular
    modulation is a cosine of the angular coordinate.

    A bare cos(k angle) factor is discontinuous at the domain's center; the
    (r/R)^k radial factor is the minimal one making the modulation smooth (it
    turns it into the harmonic polynomial eps Re(((y-c)/R)^k)). The modulation
    is odd under rotation by pi/k, so it integrates to zero on the library
    domains and the normalization constant stays the plain area. R is the
    domain's radius scale, so the modulation amplitude reaches eps at the
    boundary of a disk.
    """
    if not 0 <= eps < 1:
        raise ValueError("cosine_bump eps must lie in [0, 1)")
    center = domain.star_center
    area = domain.area
    if domain.kind == "disk":
        r_ref = domain.radius
    elif domain.kind == "ellipse":
        r_ref = max(domain.a, domain.b)
    else:
        r_ref = domain.radius * (1 + domain.eps)

    def _zhat(y):
        d = y - center
        return (d[..., 0] + 1j * d[..., 1]) / r_ref

    if k == 1:
        def value(y):
            return scale * (1.0 + (eps / r_ref) * (y[..., 0] - center[0])) / area

        def grad_log(y):
            g = np.zeros(y.shape)
            g[..., 0] = eps / r_ref
            return g / (1.0 + (eps / r_ref) * (y[..., 0] - center[0]))[..., None]
    else:
        def value(y):
            return scale * (1.0 + eps * np.real(_zhat(y) ** k)) / area

        def grad_log(y):
            z = _zhat(y)
            dz = k * z ** (k - 1) / r_ref
            grad_mod = eps * np.stack([np.real(dz), -np.imag(dz)], axis=-1)
            return grad_mod / (1.0 + eps * np.real(z ** k))[..., None]

    return Density("cosine_bump", domain, value, grad_log,
                   scale * (1 - eps) / area, scale * (1 + eps) / area,
                   {"eps": eps, "k": k})


_DENSITIES = {"uniform": uniform_density, "cosine_bump": cosine_bump_density}


def make_density(name, domain, **params):
    if name not in _DENSITIES:
        raise KeyError(f"unknown density '{name}'; known: {sorted(_DENSITIES)}")
    return _DENSITIES[name](domain, **params)


def available_densities():
    return sorted(_DENSITIES)


# --- problem specification ---------------------------------------------------

@dataclass
class ProblemSpec:
    """A full transport problem: domains, cost, densities, and tolerances."""

    source: Domain
    target: Domain
    cost: object
    rho: Density
    rho_star: Density
    mass_tol: float = 1e-3
    bitwist_margin: float = 1e-8
    validation_grid: tuple = (96, 192)

    def masses(self):
        """Quadrature masses of both densities on validation grids."""
        from .grid import CurvilinearGrid, integrate
        gs = CurvilinearGrid(self.source, *self.validation_grid)
        gt = CurvilinearGrid(self.target, *self.validation_grid)
        m_src = integrate(gs, gs.scalar(self.rho(gs.nodes)))
        m_tgt = integrate(gt, gt.scalar(self.rho_star(gt.nodes)))
        return m_src, m_tgt


@dataclass
class ConvexityReport:
    """Sampled lower envelope of a boundary convexity form with its witness."""

    min_value: float
    argmin_x: np.ndarray
    argmin_y: np.ndarray
    argmin_tau: np.ndarray
    argmin_s: float
    n_boundary: int
    n_other: int
    y_variance: float
    delta: float = field(init=False)

    def __post_init__(self):
        self.delta = self.min_value


@dataclass
class BitwistReport:
    min_abs_det: float
    argmin_x: np.ndarray
    argmin_y: np.ndarray
    n_samples: int
    margin: float

    @property
    def ok(self):
        return self.min_abs_det > self.margin


def _sample_interior(domain, n, seed, dim_offset=0):
    """First n Sobol points of the bounding box that land inside the domain.

    The unscrambled Sobol sequence is drawn deterministically, so a larger n
    extends (never reshuffles) a smaller sample: audit minima are monotone
    under sample growth.
    """
    lo = domain.star_center - 4.0
    hi = domain.star_center + 4.0
    if domain.kind == "disk":
        lo = domain.center - domain.radius
        hi = domain.center + domain.radius
    elif domain.kind == "ellipse":
        lo = domain.center - np.array([domain.a, domain.b])
        hi = domain.center + np.array([domain.a, domain.b])
    elif domain.kind == "blob":
        r = domain.radius * (1 + domain.eps)
        lo = domain.center - r
        hi = domain.center + r
    eng = qmc.Sobol(d=2, scramble=False, seed=seed)
    pts = []
    got = 0
    while got < n:
        raw = eng.random(max(64, n))
        cand = lo + raw * (hi - lo)
        inside = domain.h(cand) < 0
        pts.append(cand[inside])
        got += int(np.count_nonzero(inside))
    return np.concatenate(pts, axis=0)[:n]


def check_bitwist(spec, n_samples=4096, seed=0):
    """Minimum |det cross Hessian| over a quasi-random sweep of both closures.

    Boundary-boundary pairs are included on a lattice since extremes of the
    determinant often sit on the product boundary.
    """
    nin = max(16, n_samples)
    xs = _sample_interior(spec.source, nin // 2, seed)
    ys = _sample_interior(spec.target, nin // 2, seed + 1)
    # power-of-two lattice so sweeps with more samples contain smaller ones
    nb = max(16, 2 ** int(np.log2(max(np.sqrt(n_samples), 1))))
    sb = np.arange(nb) / nb
    xs = np.concatenate([xs, spec.source.boundary_param(sb)], axis=0)
    ys = np.concatenate([ys, spec.target.boundary_param(sb)], axis=0)
    det = np.abs(nm.det2(spec.cost.cross_hessian(xs[:, None, :], ys[None, :, :])))
    flat = np.argmin(det)
    i, j = np.unravel_index(flat, det.shape)
    return BitwistReport(float(det[i, j]), xs[i].copy(), ys[j].copy(),
                         det.size, spec.bitwist_margin)


def c_convexity_form(spec, s, y):
    """The source boundary convexity form at boundary parameter(s) s against
    target point(s) y, contracted with the unit tangent.

    Broadcasts s (shape S) against y (shape Y x 2) to an (S, Y) array when
    both are batched.
    """
    s = np.atleast_1d(np.asarray(s, float))
    y = np.atleast_2d(np.asarray(y, float))
    x = spec.source.boundary_param(s)
    tau = spec.source.boundary_tangent(s)
    nu = spec.source.outward_normal(s)
    kappa = spec.source.curvature(s)
    if getattr(spec.cost, "thirds_vanish", False):
        return np.broadcast_to(kappa[:, None], (s.shape[0], y.shape[0])).copy()
    xb = x[:, None, :]
    yb = y[None, :, :]
    thirds = spec.cost.third_xxy(xb, yb)                  # [i, j, l]
    cinv = nm.inv2(spec.cost.cross_hessian(xb, yb))       # [l, k]
    w = np.einsum('ablk,ak->abl', cinv, nu)
    corr = np.einsum('abijl,ai,aj,abl->ab', thirds, tau, tau, w)
    return kappa[:, None] - corr


def cstar_convexity_form(spec, s, x):
    """Mirror form on the target boundary against source point(s) x."""
    s = np.atleast_1d(np.asarray(s, float))
    x = np.atleast_2d(np.asarray(x, float))
    y = spec.target.boundary_param(s)
    tau = spec.target.boundary_tangent(s)
    nu = spec.target.outward_normal(s)
    kappa = spec.target.curvature(s)
    if getattr(spec.cost, "thirds_vanish", False):
        return np.broadcast_to(kappa[:, None], (s.shape[0], x.shape[0])).copy()
    yb = y[:, None, :]
    xb = x[None, :, :]
    thirds = spec.cost.third_xyy(xb, yb)                  # [l, i, j]
    cinv = nm.inv2(spec.cost.cross_hessian(xb, yb))       # [k, l]
    w = np.einsum('abkl,ak->abl', cinv, nu)
    corr = np.einsum('ablij,ai,aj,abl->ab', thirds, tau, tau, w)
    return kappa[:, None] - corr


def _convexity_report(form_values, domain, s, other_pts, n_other):
    i, j = np.unravel_index(np.argmin(form_values), form_values.shape)
    y_var = float(np.max(np.ptp(form_values, axis=1)))
    return ConvexityReport(
        min_value=float(form_values[i, j]),
        argmin_x=domain.boundary_param(s[i]),
        argmin_y=other_pts[j].copy(),
        argmin_tau=domain.boundary_tangent(s[i]),
        argmin_s=float(s[i]),
        n_boundary=len(s), n_other=n_other, y_variance=y_var)


def check_c_convexity(spec, n_boundary=128, n_target=64, seed=0):
    s = np.arange(n_boundary) / n_boundary
    ys = _sample_interior(spec.target, max(1, n_target // 2), seed + 7)
    sb = np.arange(max(8, n_target // 2)) / max(8, n_target // 2)
    ys = np.concatenate([ys, spec.target.boundary_param(sb)], axis=0)
    vals = c_convexity_form(spec, s, ys)
    rep = _convexity_report(vals, spec.source, s, ys, n_target)
    return rep


def check_cstar_convexity(spec, n_boundary=128, n_source=64, seed=0):
    s = np.arange(n_boundary) / n_boundary
    xs = _sample_interior(spec.source, max(1, n_source // 2), seed + 11)
    sb = np.arange(max(8, n_source // 2)) / max(8, n_source // 2)
    xs = np.concatenate([xs, spec.source.boundary_param(sb)], axis=0)
    vals = cstar_convexity_form(spec, s, xs)
    return _convexity_report(vals, spec.target, s, xs, n_source)


def validate_spec(spec, n_sweep=2048, seed=0):
    """Run the standing-hypothesis audits; returns a list of violations.

    An empty list means the spec passed the density-bound sweep, the mass
    balance quadrature, and the cross-Hessian invertibility sweep.
    """
    problems = []
    pts_s = _sample_interior(spec.source, n_sweep // 2, seed + 3)
    pts_t = _sample_interior(spec.target, n_sweep // 2, seed + 4)
    rho_v = spec.rho(pts_s)
    rho_t = spec.rho_star(pts_t)
    slack = 1e-12
    if np.any(rho_v < spec.rho.lo - slack) or np.any(rho_v > spec.rho.hi + slack) \
            or np.any(rho_v <= 0):
        problems.append(DensityOutOfBounds(
            f"source density leaves [{spec.rho.lo:g}, {spec.rho.hi:g}]"))
    if np.any(rho_t < spec.rho_star.lo - slack) or np.any(rho_t > spec.rho_star.hi + slack) \
            or np.any(rho_t <= 0):
        problems.append(DensityOutOfBounds(
            f"target density leaves [{spec.rho_star.lo:g}, {spec.rho_star.hi:g}]"))

    m_src, m_tgt = spec.masses()
    if abs(m_src - m_tgt) > spec.mass_tol:
        problems.append(MassImbalance(
            f"source mass {m_src:.6f} vs target mass {m_tgt:.6f} "
            f"(|diff| = {abs(m_src - m_tgt):.3e} > {spec.mass_tol:g})"))

    bit = check_bitwist(spec, n_samples=n_sweep, seed=seed)
    if not bit.ok:
        problems.append(BitwistFailure(
            f"min |det cross Hessian| = {bit.min_abs_det:.3e} "
            f"<= margin {bit.margin:g}"))
    return problems
