"""Finite-difference derivatives on sampled grids, and the two-column
least-squares fit that the elastica fits solve with them.

Uniform grids get centered 4th-order stencils in the interior (the
outermost two samples fall back to lower order); non-uniform grids fall
back to ``np.gradient``.  The ``interior`` slice trims the samples whose
stencil does not fit, which is where callers should read values they
hold to tight tolerances.
"""

import math

import numpy as np

# relative cutoff of the smaller singular value in affine_lstsq, as the
# rcond of np.linalg.lstsq: it truncates the noise-level singular
# direction of constant-curvature input to the minimum-norm solution
_RCOND = 1e-6


def is_uniform(t):
    """True if the grid spacing is constant to a relative 1e-8."""
    t = np.asarray(t, dtype=float)
    if t.size < 2:
        return False
    dt = np.diff(t)
    h = dt[0]
    return h > 0 and np.all(np.abs(dt - h) <= 1e-8 * abs(h))


def deriv1_uniform(y, h):
    """First derivative of samples y on a uniform grid of spacing h."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 5:
        return np.gradient(y, h, axis=0)
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    d[1] = (y[2] - y[0]) / (2.0 * h)
    d[-2] = (y[-1] - y[-3]) / (2.0 * h)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return d


def deriv2_uniform(y, h):
    """Second derivative of samples y on a uniform grid of spacing h."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    h2 = h * h
    if n < 5:
        d1 = np.gradient(y, h, axis=0)
        return np.gradient(d1, h, axis=0)
    d = np.empty_like(y)
    d[2:-2] = (
        -y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2] + 16.0 * y[3:-1] - y[4:]
    ) / (12.0 * h2)
    d[0] = (y[0] - 2.0 * y[1] + y[2]) / h2
    d[1] = (y[0] - 2.0 * y[1] + y[2]) / h2
    d[-2] = (y[-3] - 2.0 * y[-2] + y[-1]) / h2
    d[-1] = (y[-3] - 2.0 * y[-2] + y[-1]) / h2
    return d


def deriv1(y, t):
    """First derivative d y / d t, dispatching on grid uniformity."""
    t = np.asarray(t, dtype=float)
    if is_uniform(t):
        return deriv1_uniform(y, t[1] - t[0])
    return np.gradient(np.asarray(y, dtype=float), t, axis=0)


def deriv2(y, t):
    """Second derivative d^2 y / d t^2, dispatching on grid uniformity."""
    t = np.asarray(t, dtype=float)
    if is_uniform(t):
        return deriv2_uniform(y, t[1] - t[0])
    d1 = np.gradient(np.asarray(y, dtype=float), t, axis=0)
    return np.gradient(d1, t, axis=0)


def cumulative_trapezoid(y, t):
    """Running trapezoid-rule integral of samples y over t, 0 at t[0]."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))])


def interior(n, margin=2):
    """Slice selecting samples whose centered stencil fits entirely."""
    if n <= 2 * margin:
        return slice(0, 0)
    return slice(margin, n - margin)


def curvature_from_track(points, t):
    """Signed curvature of a sampled plane curve.

    points : (n, 2) positions, t : (n,) parameter.  Uses
    kappa = (x' y'' - y' x'') / |c'|^3, so the parametrization need not
    be arc length.
    """
    points = np.asarray(points, dtype=float)
    d1 = deriv1(points, t)
    d2 = deriv2(points, t)
    speed2 = d1[:, 0] ** 2 + d1[:, 1] ** 2
    num = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    return num / speed2**1.5


def affine_lstsq(x, rhs):
    """Least-squares (A, B) with rhs ~ A x - B, in closed form.

    Gives what np.linalg.lstsq gives for the columns [x, -1] with
    rcond = 1e-6.  Their 2x2 Gram matrix [[sum x^2, -sum x], [-sum x, n]]
    has determinant n Sxx, Sxx the centered sum of squares, so its
    eigenvalues lam1 >= lam2 = n Sxx / lam1 are the squared singular
    values.  Where sqrt(lam2 / lam1) > 1e-6 the fit is the centered
    one, A = Sxr / Sxx and B = A mean(x) - mean(rhs).  Otherwise, as in
    lstsq, the smaller singular value counts as zero and the
    minimum-norm solution along the unit top eigenvector v of the Gram
    matrix is returned, v (v . [x, -1]^T rhs) / lam1; for constant
    x = c that is (c, -1) mean(rhs) / (c^2 + 1).
    """
    x = np.asarray(x, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = x.size
    xm, rm = float(x.mean()), float(rhs.mean())
    dx = x - xm
    sxx = float(dx @ dx)
    g11, g12 = sxx + n * xm * xm, -n * xm
    half = 0.5 * (g11 + n)
    lam1 = half + math.sqrt(max(half * half - n * sxx, 0.0))
    if n * sxx > (_RCOND * lam1) ** 2:
        A = float(dx @ (rhs - rm)) / sxx
        return A, A * xm - rm
    # of the two forms of the top eigenvector, the longer one
    v = (g12, lam1 - g11)
    if abs(lam1 - n) > abs(v[1]):
        v = (lam1 - n, g12)
    scale = (v[0] * float(x @ rhs) - v[1] * n * rm) / (lam1 * (v[0] ** 2 + v[1] ** 2))
    return v[0] * scale, v[1] * scale
