"""Smooth bounded planar domains, densities, and standing-hypothesis audits.

A :class:`Domain` couples a normalized defining function h (h < 0 inside,
h = 0 on the boundary, grad h = outward unit normal on the boundary) with a
periodic boundary parametrization s in [0, 1) traversed counterclockwise.
The built-in library is disks, ellipses, and star-shaped cosine blobs
r(phi) = R (1 + eps cos(k phi)); all are C-infinity with analytic
parametrization derivatives and a closed-form inverse ``boundary_s``, which
the curvature-identity audit reads for the target parameter of T(x0).

The audits certify, by dense deterministic sampling with recorded witnesses,
the hypotheses the flow needs: invertibility of the cross Hessian on the
product of the closures, the two boundary convexity forms, density bounds,
and equality of total masses. Every sweep samples a domain through
``_audit_points``. Both convexity forms are ``convexity_form(spec, side,
...)``: the curvature minus ``CostModel.convexity_correction``.

The total masses (``ProblemSpec.masses``) are integrated with the nodes and
weights of ``grid.quadrature`` on VALIDATION_GRID, without the calculus
tables of a CurvilinearGrid. ``validate_spec`` reads both; every
``flow.FlowContext`` reads the target mass, against which each accepted
step's mass error is measured.

Of the post-run readers in ``linearized``, the gap series and its Harnack
ratios read nothing here; the closed-form boundary derivative of the
Li-Yau quantity F reads the source boundary's tangent and curvature
(``Domain.curvature``) and, through the cost, the target's h*; its term1
reads the same correction as the source side of ``convexity_form``.
"""

from dataclasses import dataclass

import numpy as np

from . import _numerics as nm
from .errors import BitwistFailure, DensityOutOfBounds, MassImbalance

#: steps of the centered-difference fallbacks for grad h and the Hessian of h
H_GRAD_STEP = 1e-6
H_HESS_STEP = 1e-4

#: largest |source mass - target mass| that ``validate_spec`` accepts
MASS_TOL = 1e-3
#: the bi-twist sweep passes when its min |det cross Hessian| exceeds this
BITWIST_MARGIN = 1e-8
#: (n_r, n_s) of the quadrature grids of ``ProblemSpec.masses``
VALIDATION_GRID = (96, 192)
#: a sampled convexity form within this relative distance of the minimum
#: ties with it; roundoff differences are about 1e-16, sampled neighbours
#: of a true minimum differ by about 1e-3
WITNESS_RTOL = 1e-12


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
        center = np.asarray(star_center)
        if not (center.shape == (2,) and center.dtype.kind in "iuf"
                and np.all(np.isfinite(center))):
            raise ValueError(f"domain center must be two finite numbers, "
                             f"got {star_center!r}")
        self.star_center = center.astype(float)

    # -- defining function --------------------------------------------------

    def h(self, x):
        raise NotImplementedError

    def h_grad(self, x):
        x = np.asarray(x, float)
        step = H_GRAD_STEP
        g = np.empty(x.shape)
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            g[..., k] = (self.h(x + e) - self.h(x - e)) / (2 * step)
        return g

    def h_hess(self, x):
        x = np.asarray(x, float)
        step = H_HESS_STEP
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

    def boundary_s(self, y):
        """The boundary parameter of boundary point(s) y (..., 2): the polar
        angle of y about ``star_center`` over 2 pi, mod 1. It inverts the
        radial parametrizations (a point at polar angle 2 pi s); a domain
        with another parametrization overrides it."""
        d = np.asarray(y, float) - self.star_center
        return (np.arctan2(d[..., 1], d[..., 0]) / (2 * np.pi)) % 1.0

    def boundary_tangent(self, s):
        v = self.boundary_velocity(s)
        return v / nm.norm2(v)[..., None]

    def outward_normal(self, s):
        # counterclockwise traversal: outward = tangent rotated by -90 degrees
        t = self.boundary_tangent(s)
        return np.stack([t[..., 1], -t[..., 0]], axis=-1)

    def curvature(self, s):
        """Signed curvature cross(v', v'') / |v'|^3 from the analytic
        boundary velocity and acceleration."""
        v = self.boundary_velocity(s)
        return nm.cross2(v, self.boundary_accel(s)) / nm.norm2(v) ** 3

    @property
    def area(self):
        raise NotImplementedError

    def half_widths(self):
        """(hx, hy) of the box star_center +- (hx, hy) that holds the closed
        domain: its extent for a disk and an ellipse, the largest boundary
        radius on both axes for a blob. The audits sample in this box and
        the densities scale by its larger side."""
        raise NotImplementedError

    def describe(self):
        return {"kind": self.kind}


class Disk(Domain):
    kind = "disk"

    def __init__(self, radius=1.0, center=(0.0, 0.0)):
        if not 0 < radius < np.inf:
            raise ValueError("disk radius must be positive and finite")
        super().__init__(center)
        self.radius = float(radius)
        self.center = np.asarray(center, float)

    def h(self, x):
        return nm.norm2(np.asarray(x, float) - self.center) - self.radius

    def h_grad(self, x):
        d = np.asarray(x, float) - self.center
        return d / nm.norm2(d)[..., None]

    def h_hess(self, x):
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

    def half_widths(self):
        return self.radius, self.radius

    def describe(self):
        return {"kind": "disk", "radius": self.radius, "center": self.center.tolist()}


class Ellipse(Domain):
    kind = "ellipse"

    def __init__(self, a=1.0, b=1.0, center=(0.0, 0.0)):
        if not (0 < a < np.inf and 0 < b < np.inf):
            raise ValueError("ellipse semi-axes must be positive and finite")
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

    def boundary_s(self, y):
        """The eccentric anomaly of y (..., 2) over 2 pi, mod 1: the polar
        angle of (y - center) / (a, b), which inverts ``boundary_param``."""
        d = (np.asarray(y, float) - self.center) / np.array([self.a, self.b])
        return (np.arctan2(d[..., 1], d[..., 0]) / (2 * np.pi)) % 1.0

    @property
    def area(self):
        return np.pi * self.a * self.b

    def half_widths(self):
        return self.a, self.b

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
        if not 0 < radius < np.inf:
            raise ValueError("blob radius must be positive and finite")
        _check_int("blob k", k)
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

    def half_widths(self):
        r = self.radius * (1 + self.eps)
        return r, r

    def describe(self):
        return {"kind": "blob", "radius": self.radius, "eps": self.eps,
                "k": self.k, "center": self.center.tolist()}


def _check_int(what, value):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")


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

    def __init__(self, name, domain, value_fn, grad_log_fn, lo, hi):
        self.name = name
        self.domain = domain
        self._value = value_fn
        self._grad_log = grad_log_fn
        self.lo = float(lo)
        self.hi = float(hi)

    def __call__(self, y):
        return self._value(np.asarray(y, float))

    def grad_log(self, y):
        return self._grad_log(np.asarray(y, float))


def uniform_density(domain, scale=1.0):
    level = scale / domain.area

    def value(y):
        return np.full(y.shape[:-1], level)

    def grad_log(y):
        return np.zeros(y.shape)

    return Density("uniform", domain, value, grad_log, level, level)


def cosine_bump_density(domain, eps=0.1, k=1, scale=1.0):
    """(1 + eps (r/R)^k cos(k angle)) / area: the smooth density whose angular
    modulation is a cosine of the angular coordinate.

    A bare cos(k angle) factor is discontinuous at the domain's center; the
    (r/R)^k radial factor is the minimal one making the modulation smooth (it
    turns it into the harmonic polynomial eps Re(((y-c)/R)^k)). The modulation
    is odd under rotation by pi/k, so it integrates to zero on the library
    domains and the normalization constant stays the plain area. R is the
    larger of the domain's half-widths, so the modulation amplitude reaches
    eps at the boundary of a disk.
    """
    if not 0 <= eps < 1:
        raise ValueError("cosine_bump eps must lie in [0, 1)")
    _check_int("cosine_bump k", k)
    center = domain.star_center
    area = domain.area
    r_ref = max(domain.half_widths())

    def _zhat(y):
        d = y - center
        return (d[..., 0] + 1j * d[..., 1]) / r_ref

    # k = 1 in real arithmetic: flow.build_state evaluates the target
    # density at every stage, and the complex power costs about 5x as much
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
                   scale * (1 - eps) / area, scale * (1 + eps) / area)


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
    """A full transport problem: domains, cost and densities."""

    source: Domain
    target: Domain
    cost: object
    rho: Density
    rho_star: Density

    def masses(self):
        """Quadrature masses of both densities on VALIDATION_GRID grids:
        ``grid.integrate`` on a CurvilinearGrid of each domain, bit for bit,
        from the quadrature's nodes and weights alone."""
        return _quadrature_mass(self.source, self.rho), self.target_mass()

    def target_mass(self):
        """The target half of ``masses()``, without integrating the source."""
        return _quadrature_mass(self.target, self.rho_star)


def _quadrature_mass(domain, density):
    from .grid import quadrature
    nodes, weights = quadrature(domain, *VALIDATION_GRID)
    return float(np.sum(weights * density(nodes)))


@dataclass
class ConvexityReport:
    """Sampled lower envelope of a boundary convexity form with its witness:
    the first (s, y) sample in row-major order that ties with the minimum
    (see WITNESS_RTOL). ``ties`` counts the tied samples."""

    min_value: float
    argmin_x: np.ndarray
    argmin_y: np.ndarray
    argmin_tau: np.ndarray
    argmin_s: float
    y_variance: float
    ties: int


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


#: bits of the Sobol direction numbers (points are multiples of 2^-30)
_SOBOL_BITS = 30


def _sobol_directions():
    """(bits, 2) direction numbers of the first two Sobol dimensions: the
    van der Corput sequence, and the primitive polynomial x + 1 with
    m_1 = 1."""
    v = np.empty((_SOBOL_BITS, 2), np.int64)
    v[:, 0] = 1 << (_SOBOL_BITS - 1 - np.arange(_SOBOL_BITS))
    v[0, 1] = 1 << (_SOBOL_BITS - 1)
    for k in range(1, _SOBOL_BITS):
        v[k, 1] = v[k - 1, 1] ^ (v[k - 1, 1] >> 1)
    return v


_SOBOL_V = _sobol_directions()


def _sobol_points(start, n):
    """Points start, ..., start + n - 1 of the unscrambled 2-D Sobol
    sequence (point 0 is the origin), shape (n, 2).

    Point i is the XOR of the direction numbers over the set bits of its
    Gray code i ^ (i >> 1), divided by 2^30; this is the sequence of
    ``scipy.stats.qmc.Sobol(d=2, scramble=False)``, bit for bit, without
    importing ``scipy.stats``.
    """
    i = np.arange(start, start + n, dtype=np.int64)
    gray = i ^ (i >> 1)
    out = np.zeros((n, 2), np.int64)
    for k in range(int(start + n).bit_length()):
        out ^= ((gray >> k) & 1)[:, None] * _SOBOL_V[k]
    return out / float(1 << _SOBOL_BITS)


def _sample_interior(domain, n):
    """First n Sobol points of the bounding box that land inside the domain.

    The unscrambled Sobol sequence (:func:`_sobol_points`) is fixed, so every
    audit draws the same points and a larger n extends (never reshuffles) a
    smaller sample: audit minima are monotone under sample growth. The
    points are drawn in blocks of max(64, n), each continuing the sequence
    where the last stopped, until n lie inside.
    """
    half = np.array(domain.half_widths())
    lo = domain.star_center - half
    hi = domain.star_center + half
    pts = []
    got = drawn = 0
    while got < n:
        raw = _sobol_points(drawn, max(64, n))
        drawn += len(raw)
        cand = lo + raw * (hi - lo)
        inside = domain.h(cand) < 0
        pts.append(cand[inside])
        got += int(np.count_nonzero(inside))
    return np.concatenate(pts, axis=0)[:n]


def _audit_points(domain, n_interior, n_lattice):
    """The sample set of the audit sweeps: the first n_interior Sobol points
    inside the domain (``_sample_interior``), then the boundary at the
    lattice s = k / n_lattice."""
    s = np.arange(n_lattice) / n_lattice
    return np.concatenate([_sample_interior(domain, n_interior),
                           domain.boundary_param(s)], axis=0)


def check_bitwist(spec, n_samples=4096):
    """Minimum |det cross Hessian| over a quasi-random sweep of both closures.

    Boundary-boundary pairs are included on a lattice since extremes of the
    determinant often sit on the product boundary. The sweep scans one x
    against all ys at a time; the witness is the first minimum in row-major
    order over the (x, y) pairs, or the first NaN, which fails the check.
    A ``cross_identity`` cost skips the sweep: its report is the sweep's.
    """
    nin = max(16, n_samples) // 2
    # power-of-two lattice so sweeps with more samples contain smaller ones
    nb = max(16, 2 ** int(np.log2(max(np.sqrt(n_samples), 1))))
    xs = _audit_points(spec.source, nin, nb)
    ys = _audit_points(spec.target, nin, nb)
    if spec.cost.cross_identity:
        # |det I| is exactly 1 at every pair: the first pair is the witness
        return BitwistReport(1.0, xs[0].copy(), ys[0].copy(),
                             len(xs) * len(ys), BITWIST_MARGIN)
    best, best_i, best_j = np.inf, 0, 0
    for i, x in enumerate(xs):
        det = np.abs(nm.det2(spec.cost.cross_hessian(x, ys)))
        j = int(np.argmin(det))             # the row's first NaN, if any
        if det[j] < best or np.isnan(det[j]):
            best, best_i, best_j = det[j], i, j
            if np.isnan(best):
                break
    return BitwistReport(float(best), xs[best_i].copy(), ys[best_j].copy(),
                         len(xs) * len(ys), BITWIST_MARGIN)


def convexity_form(spec, side, s, other):
    """The convexity form of the ``side`` ("source" or "target") boundary at
    parameter(s) s against point(s) of the other domain, contracted with the
    unit tangent: the curvature kappa minus the cost's
    ``convexity_correction``, which ``thirds_vanish`` skips. Broadcasts s
    (shape S) against other (shape O x 2) to an (S, O) array."""
    domain = getattr(spec, side)
    s = np.atleast_1d(np.asarray(s, float))
    other = np.atleast_2d(np.asarray(other, float))
    kappa = domain.curvature(s)[:, None]
    # fast path: a 32x64 convexity audit takes 3.3 ms, 6.2 ms without (2-vCPU Xeon)
    if spec.cost.thirds_vanish:
        return np.broadcast_to(kappa, (s.shape[0], other.shape[0])).copy()
    own = domain.boundary_param(s)[:, None]
    x, y = (own, other[None]) if side == "source" else (other[None], own)
    corr = spec.cost.convexity_correction(
        side, x, y, domain.boundary_tangent(s)[:, None],
        domain.outward_normal(s)[:, None])
    return kappa - corr


def _convexity_report(form_values, domain, s, other_pts):
    lo = float(np.min(form_values))
    # a NaN minimum ties with the NaN samples
    ties = (form_values <= lo + WITNESS_RTOL * abs(lo)) | np.isnan(form_values)
    i, j = np.unravel_index(np.argmax(ties), ties.shape)
    y_var = float(np.max(np.ptp(form_values, axis=1)))
    return ConvexityReport(
        min_value=lo,
        argmin_x=domain.boundary_param(s[i]),
        argmin_y=other_pts[j].copy(),
        argmin_tau=domain.boundary_tangent(s[i]),
        argmin_s=float(s[i]),
        y_variance=y_var,
        ties=int(np.count_nonzero(ties)))


def _convexity_sweep(spec, side, n_boundary, n_other):
    """The ``side`` form on a lattice of n_boundary boundary parameters
    against n_other // 2 Sobol points of the other domain and a boundary
    lattice of max(8, n_other // 2) on it."""
    other = spec.target if side == "source" else spec.source
    s = np.arange(n_boundary) / n_boundary
    pts = _audit_points(other, max(1, n_other // 2), max(8, n_other // 2))
    return _convexity_report(convexity_form(spec, side, s, pts),
                             getattr(spec, side), s, pts)


def check_c_convexity(spec, n_boundary=128, n_target=64):
    """The source boundary's c-convexity sweep against target points."""
    return _convexity_sweep(spec, "source", n_boundary, n_target)


def check_cstar_convexity(spec, n_boundary=128, n_source=64):
    """The target boundary's c*-convexity sweep against source points."""
    return _convexity_sweep(spec, "target", n_boundary, n_source)


def validate_spec(spec):
    """Run the standing-hypothesis audits; returns a list of violations.

    An empty list means the spec passed the density-bound sweep, the mass
    balance quadrature, and the cross-Hessian invertibility sweep.
    """
    problems = []
    slack = 1e-12
    for side, density in (("source", spec.rho), ("target", spec.rho_star)):
        vals = density(_sample_interior(getattr(spec, side), 1024))
        if np.any(vals < density.lo - slack) or np.any(vals > density.hi + slack) \
                or np.any(vals <= 0):
            problems.append(DensityOutOfBounds(
                f"{side} density leaves [{density.lo:g}, {density.hi:g}]"))

    m_src, m_tgt = spec.masses()
    if abs(m_src - m_tgt) > MASS_TOL:
        problems.append(MassImbalance(
            f"source mass {m_src:.6f} vs target mass {m_tgt:.6f} "
            f"(|diff| = {abs(m_src - m_tgt):.3e} > {MASS_TOL:g})"))

    bit = check_bitwist(spec, n_samples=2048)
    if not bit.ok:
        problems.append(BitwistFailure(
            f"min |det cross Hessian| = {bit.min_abs_det:.3e} "
            f"<= margin {bit.margin:g}"))
    return problems
