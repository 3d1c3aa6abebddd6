"""Finite-difference derivatives on sampled grids, and the two-column
least-squares fit that the elastica fits solve with them.

Uniform grids get centered 4th-order stencils in the interior (the
outermost two samples fall back to lower order); non-uniform grids, and
grids too short for the stencils, go through :func:`gradient`, which is
``np.gradient`` along axis 0 bit for bit, one column at a time: an
(n, 2) ``np.gradient`` runs a two-element inner loop per row.  Its
spacing terms are formed once per grid (:func:`spacing`) and can be
shared by every array sampled on that grid.  The ``interior`` slice
trims the samples whose stencil does not fit, which is where callers
should read values they hold to tight tolerances.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError

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


class Spacing(NamedTuple):
    """The terms ``np.gradient`` forms from a grid: the first and last
    steps, and the three interior weights, or None where the grid is
    exactly uniform and the interior is a centered difference over
    twice the first step.  size is the grid's sample count, None for a
    bare step."""

    size: int | None
    first: float
    last: float
    weights: tuple | None


def spacing(t):
    """:class:`Spacing` of a grid of samples t, or of a scalar step t.

    A grid is uniform where all its steps are exactly equal, as in
    ``np.gradient``; a grid of fewer than 2 samples raises ValueError.
    A Spacing is returned as it is.
    """
    if isinstance(t, Spacing):
        return t
    if np.ndim(t) == 0:
        return Spacing(None, t, t, None)
    dx = np.diff(np.asarray(t, dtype=float))
    if dx.size == 0:
        raise ValueError("a gradient needs a grid of at least 2 samples")
    if (dx == dx[0]).all():
        return Spacing(dx.size + 1, dx[0], dx[0], None)
    dx1, dx2 = dx[:-1], dx[1:]
    weights = (-dx2 / (dx1 * (dx1 + dx2)), (dx2 - dx1) / (dx1 * dx2),
               dx1 / (dx2 * (dx1 + dx2)))
    return Spacing(dx.size + 1, dx[0], dx[-1], weights)


def gradient(y, t):
    """``np.gradient(y, t, axis=0)``, bitwise, for y of shape (n, ...):
    centered differences inside, one-sided ones at the ends.

    t is the grid of samples, a scalar step or its :func:`spacing`.
    Each column is differenced as a strided 1-D view, in NumPy's order
    (a f[i-1] + b f[i]) + c f[i+1].  Fewer than 2 samples, or a grid of
    another length, raise ValueError.
    """
    y = np.asarray(y, dtype=float)
    sp = spacing(t)
    n = y.shape[0] if y.ndim else 0
    if n < 2:
        raise ValueError(f"a gradient needs at least 2 samples, got {n}")
    if sp.size not in (None, n):
        raise ValueError(f"{n} samples on a grid of {sp.size}")
    out = np.empty(y.shape)
    tmp = np.empty(n - 2) if sp.weights is not None else None
    for f, d in zip(y.reshape(n, -1).T, out.reshape(n, -1).T):
        inner = d[1:-1]
        if sp.weights is None:
            np.subtract(f[2:], f[:-2], out=inner)
            inner /= 2.0 * sp.first
        else:
            a, b, c = sp.weights
            np.multiply(a, f[:-2], out=inner)
            inner += np.multiply(b, f[1:-1], out=tmp)
            inner += np.multiply(c, f[2:], out=tmp)
        d[0] = (f[1] - f[0]) / sp.first
        d[-1] = (f[-1] - f[-2]) / sp.last
    return out


def deriv1_uniform(y, h):
    """First derivative of samples y on a uniform grid of spacing h."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 5:
        return gradient(y, h)
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
        return gradient(gradient(y, h), h)
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
    return gradient(y, t)


def deriv2(y, t):
    """Second derivative d^2 y / d t^2, dispatching on grid uniformity."""
    t = np.asarray(t, dtype=float)
    if is_uniform(t):
        return deriv2_uniform(y, t[1] - t[0])
    sp = spacing(t)
    return gradient(gradient(y, sp), sp)


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
    be arc length.  The grid's uniformity is decided once; on a
    non-uniform grid the second derivative is the gradient of the first,
    as in :func:`deriv2`.
    """
    points = np.asarray(points, dtype=float)
    t = np.asarray(t, dtype=float)
    if is_uniform(t):
        h = t[1] - t[0]
        d1, d2 = deriv1_uniform(points, h), deriv2_uniform(points, h)
    else:
        sp = spacing(t)
        d1 = gradient(points, sp)
        d2 = gradient(d1, sp)
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

    A sum or a coefficient that is not finite raises
    DegenerateInputError: past the float range the fit is NaN, or 0
    over an infinite divisor.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            fit = _affine_lstsq(np.asarray(x, dtype=float),
                                np.asarray(rhs, dtype=float))
    except OverflowError:  # float ** raises where * returns inf
        fit = (math.inf,)
    if not all(map(math.isfinite, fit)):
        raise DegenerateInputError("the least-squares sums overflow a float")
    return fit[:2]


def _affine_lstsq(x, rhs):
    """:func:`affine_lstsq`'s (A, B), then the divisor of the fit."""
    n = x.size
    xm, rm = float(x.mean()), float(rhs.mean())
    dx = x - xm
    sxx = float(dx @ dx)
    g11, g12 = sxx + n * xm * xm, -n * xm
    half = 0.5 * (g11 + n)
    lam1 = half + math.sqrt(max(half * half - n * sxx, 0.0))
    if n * sxx > (_RCOND * lam1) ** 2:
        A = float(dx @ (rhs - rm)) / sxx
        return A, A * xm - rm, sxx
    # of the two forms of the top eigenvector, the longer one
    v = (g12, lam1 - g11)
    if abs(lam1 - n) > abs(v[1]):
        v = (lam1 - n, g12)
    den = lam1 * (v[0] ** 2 + v[1] ** 2)
    scale = (v[0] * float(x @ rhs) - v[1] * n * rm) / den
    return v[0] * scale, v[1] * scale, den
