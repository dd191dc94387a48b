"""Small vectorized helpers for 2x2 linear algebra.

All matrix arguments have shape (..., 2, 2) and vectors (..., 2); operations
broadcast over the leading axes. Written out by component so the hot loops
avoid einsum/linalg dispatch overhead. The step pipeline and the boundary
audits share these helpers; the package has no other 2x2 algebra.
"""

import numpy as np


def det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def inv2(m):
    out = np.empty_like(m)
    d = det2(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out / d[..., None, None]


def solve2(m, b):
    """Solve m @ x = b by Cramer's rule."""
    d = det2(m)
    x = np.empty_like(b)
    x[..., 0] = (b[..., 0] * m[..., 1, 1] - b[..., 1] * m[..., 0, 1]) / d
    x[..., 1] = (b[..., 1] * m[..., 0, 0] - b[..., 0] * m[..., 1, 0]) / d
    return x


def matvec2(m, v):
    out = np.empty(np.broadcast_shapes(m.shape[:-2], v.shape[:-1]) + (2,))
    out[..., 0] = m[..., 0, 0] * v[..., 0] + m[..., 0, 1] * v[..., 1]
    out[..., 1] = m[..., 1, 0] * v[..., 0] + m[..., 1, 1] * v[..., 1]
    return out


def matmul2(a, b):
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (2, 2))
    for i in range(2):
        for j in range(2):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def transpose2(m):
    return np.swapaxes(m, -1, -2)


def sym_eig_range2(m):
    """(lambda_min, lambda_max) of symmetric 2x2 matrices."""
    half_tr = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    gap = np.sqrt((0.5 * (m[..., 0, 0] - m[..., 1, 1])) ** 2
                  + (0.5 * (m[..., 0, 1] + m[..., 1, 0])) ** 2)
    return half_tr - gap, half_tr + gap


def quadform2(m, u):
    """u^T m u."""
    return (m[..., 0, 0] * u[..., 0] * u[..., 0]
            + m[..., 0, 1] * u[..., 0] * u[..., 1]
            + m[..., 1, 0] * u[..., 1] * u[..., 0]
            + m[..., 1, 1] * u[..., 1] * u[..., 1])


def cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def norm2(v):
    return np.sqrt(v[..., 0] ** 2 + v[..., 1] ** 2)


def sym2(planes):
    """The C-contiguous symmetric (..., 2, 2) matrices whose entries (0, 0),
    (0, 1) = (1, 0) and (1, 1) are the three planes of ``planes``, shape
    (3, ...)."""
    xx, xy, yy = planes
    return np.stack((xx, xy, xy, yy), axis=-1).reshape(xx.shape + (2, 2))
