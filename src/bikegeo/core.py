"""Configuration-space primitives for bicycle paths.

A placement of the bike is the point (x, y, theta): front wheel at
(x, y), frame angle theta, back wheel one frame length behind the front
along the frame direction.  The frame length is carried explicitly so
that rescaling stays a testable property rather than a convention.

The module provides the plane-isometry action on placements and sampled
paths, the frame flip about the back wheel, the conversion to the
back-wheel/unit-tangent model of the same space, and arc-length-sampled
horizontal paths together with their no-skid diagnostics.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .errors import DegenerateInputError, HorizontalityError

TAU = 2.0 * math.pi


def normalize_angle(theta):
    """Map an angle to the interval (-pi, pi]."""
    return float(np.pi - np.mod(np.pi - theta, TAU))


def normalize_angles(theta):
    """Vectorized :func:`normalize_angle`."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), TAU)


def angle_difference(a, b):
    """Signed difference a - b wrapped to (-pi, pi]."""
    return normalize_angles(np.asarray(a, dtype=float) - b)


@dataclass(frozen=True)
class BikeLength:
    """Frame length of the bike; strictly positive, defaults to 1."""

    ell: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "ell", _ell_value(self.ell))

    def __float__(self):
        return self.ell


def _ell_value(ell):
    """Accept a BikeLength or a bare positive float."""
    value = float(ell)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"frame length must be positive, got {value}")
    return value


@dataclass(frozen=True)
class ConfigPoint:
    """A bike placement: front wheel position and frame angle.

    theta is normalized to (-pi, pi] on construction.  The back wheel is
    never stored; it is derived as front - ell * (cos theta, sin theta),
    which keeps the frame length constraint exact by construction.
    """

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    @property
    def front(self):
        return np.array([self.x, self.y])

    @property
    def frame_dir(self):
        return np.array([math.cos(self.theta), math.sin(self.theta)])

    def back(self, ell=1.0):
        return self.front - _ell_value(ell) * self.frame_dir

    def gap(self, other, scale=1.0):
        """Largest of |dx|/scale, |dy|/scale and the wrapped |dtheta| to other."""
        dx, dy = abs(self.x - other.x), abs(self.y - other.y)
        return max(dx / scale, dy / scale,
                   abs(normalize_angle(self.theta - other.theta)))


@dataclass(frozen=True)
class RigidMotion:
    """A plane isometry z -> R(rotation) M z + translation.

    M is the identity for orientation +1 and the reflection about the
    x-axis for orientation -1, so every element of the full isometry
    group (including reflections) is representable.  Orientation
    multiplies under composition.
    """

    rotation: float = 0.0
    translation: tuple = (0.0, 0.0)
    orientation: int = 1

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        tx, ty = self.translation
        object.__setattr__(self, "rotation", float(self.rotation))
        object.__setattr__(self, "translation", (float(tx), float(ty)))

    @classmethod
    def translation_by(cls, v):
        return cls(0.0, (float(v[0]), float(v[1])))

    @classmethod
    def reflection_x(cls):
        """Reflection about the x-axis."""
        return cls(0.0, (0.0, 0.0), -1)

    @property
    def linear_matrix(self):
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        if self.orientation == 1:
            return np.array([[c, -s], [s, c]])
        return np.array([[c, s], [s, -c]])

    def apply_point(self, p):
        """Apply to a point or an (..., 2) array of points."""
        p = np.asarray(p, dtype=float)
        return p @ self.linear_matrix.T + np.asarray(self.translation)

    def compose(self, other):
        """self after other: (self.compose(other))(p) = self(other(p))."""
        rot = self.rotation + self.orientation * other.rotation
        trans = self.apply_point(np.asarray(other.translation))
        return RigidMotion(rot, (trans[0], trans[1]), self.orientation * other.orientation)

    def __matmul__(self, other):
        return self.compose(other)

    def inverse(self):
        w = np.linalg.solve(self.linear_matrix, np.asarray(self.translation))
        return RigidMotion(-self.orientation * self.rotation, (-w[0], -w[1]), self.orientation)


@dataclass(frozen=True, eq=False)
class SampledBikePath:
    """A horizontal path sampled along the front-track arc length.

    t       : (n,) strictly increasing arc-length parameter
    front   : (n, 2) front wheel positions
    theta   : (n,) frame angle, kept continuous (not wrapped) so that
              finite differences of theta are meaningful
    kappa   : (n,) signed curvature of the front track
    ell     : frame length
    drift   : optional conserved-quantity drift reported by an integrator

    Arrays are copied and frozen; the type is an immutable value, equal
    to another path with equal arrays, frame length and drift.
    """

    t: np.ndarray
    front: np.ndarray
    theta: np.ndarray
    kappa: np.ndarray
    ell: float = 1.0
    drift: float | None = None

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        front = np.array(self.front, dtype=float)
        theta = np.array(self.theta, dtype=float)
        kappa = np.array(self.kappa, dtype=float)
        if t.ndim != 1 or front.shape != (t.size, 2):
            raise ValueError("t must be (n,), front must be (n, 2)")
        if theta.shape != t.shape or kappa.shape != t.shape:
            raise ValueError("theta and kappa must match t in shape")
        if not all(np.all(np.isfinite(arr)) for arr in (t, front, theta, kappa)):
            raise ValueError("t, front, theta and kappa must be finite")
        if t.size >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("t must be strictly increasing")
        for arr in (t, front, theta, kappa):
            arr.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "front", front)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "ell", _ell_value(self.ell))

    def __eq__(self, other):
        if not isinstance(other, SampledBikePath):
            return NotImplemented
        return (self.ell == other.ell and self.drift == other.drift
                and all(np.array_equal(getattr(self, k), getattr(other, k))
                        for k in ("t", "front", "theta", "kappa")))

    def __len__(self):
        return self.t.size

    @property
    def back(self):
        """Back track, derived from front, theta and the frame length."""
        v = np.stack([np.cos(self.theta), np.sin(self.theta)], axis=1)
        return self.front - self.ell * v

    def config(self, i):
        """Placement at sample i."""
        return ConfigPoint(self.front[i, 0], self.front[i, 1], self.theta[i])

    def front_at(self, tq):
        """Front position at parameter tq by linear interpolation."""
        tq = np.asarray(tq, dtype=float)
        fx = np.interp(tq, self.t, self.front[:, 0])
        fy = np.interp(tq, self.t, self.front[:, 1])
        return np.stack([fx, fy], axis=-1)


def to_st_model(p, ell=1.0):
    """Convert a placement to the back-wheel/unit-tangent model.

    Returns (back, v) with back = front - ell * v and v the unit frame
    direction; the inverse is :func:`from_st_model`.
    """
    ell = _ell_value(ell)
    v = p.frame_dir
    return p.front - ell * v, v


def from_st_model(back, v, ell=1.0):
    """Inverse of :func:`to_st_model`."""
    ell = _ell_value(ell)
    back = np.asarray(back, dtype=float)
    v = np.asarray(v, dtype=float)
    front = back + ell * v
    return ConfigPoint(front[0], front[1], math.atan2(v[1], v[0]))


def flip(p, ell=1.0):
    """Flip the frame by half a turn about the back wheel.

    The back wheel stays fixed, the front wheel maps to 2 b - f, and the
    frame angle shifts by pi.  The map is an involution and a global
    isometry of the configuration space.
    """
    ell = _ell_value(ell)
    b = p.back(ell)
    return ConfigPoint(2.0 * b[0] - p.x, 2.0 * b[1] - p.y, p.theta + math.pi)


def act(g, obj):
    """Apply a rigid motion to a placement or a path.

    On placements the frame angle transforms as theta -> theta + rotation
    for direct motions and theta -> -theta + rotation for reflections;
    this is the unique law under which the derived back wheel maps by g
    as a plane point.  Raw points raise TypeError: use g.apply_point.
    """
    if isinstance(obj, ConfigPoint):
        f = g.apply_point(obj.front)
        theta = g.orientation * obj.theta + g.rotation
        return ConfigPoint(f[0], f[1], theta)
    if isinstance(obj, SampledBikePath):
        front = g.apply_point(obj.front)
        theta = g.orientation * obj.theta + g.rotation
        kappa = g.orientation * obj.kappa
        return SampledBikePath(obj.t, front, theta, kappa, obj.ell, obj.drift)
    raise TypeError(f"act takes a ConfigPoint or a SampledBikePath, not "
                    f"{type(obj).__name__}; use RigidMotion.apply_point for points")


def path_length(path):
    """Euclidean length of the front track (sum of chord lengths)."""
    if len(path) < 2:
        raise DegenerateInputError("path needs at least 2 samples")
    chords = np.diff(path.front, axis=0)
    return float(np.sum(np.hypot(chords[:, 0], chords[:, 1])))


def horizontality_residuals(path):
    """No-skid residual ell*theta' - cos(theta)*y' + sin(theta)*x'.

    Derivatives are centered 2nd-order finite differences; the residual
    at a sample uses the frame angle at that sample, which makes the
    check exact (to rounding) across tangent corners of the front track.
    Returns the absolute residual at interior samples.
    """
    return _no_skid_residuals(path, np.cos(path.theta), np.sin(path.theta))


def _no_skid_residuals(path, c, s):
    """:func:`horizontality_residuals` from c, s = cos, sin of path.theta."""
    if len(path) < 3:
        raise DegenerateInputError("need at least 3 samples for residuals")
    dxy = np.gradient(path.front, path.t, axis=0)
    dth = np.gradient(path.theta, path.t)
    res = path.ell * dth - c * dxy[:, 1] + s * dxy[:, 0]
    return np.abs(res[1:-1])


def speed_errors(path):
    """Deviation of the front-track speed from 1 at interior samples."""
    if len(path) < 3:
        raise DegenerateInputError("need at least 3 samples for residuals")
    dxy = np.gradient(path.front, path.t, axis=0)
    speed = np.hypot(dxy[:, 0], dxy[:, 1])
    return np.abs(speed - 1.0)[1:-1]


def default_horizontality_tol(path):
    """Sampling-dependent tolerance for the no-skid residual.

    Second-order differences leave a residual O(h^2) scaled by third
    derivatives of the state, which grow like (1 + kappa_max)^2.
    """
    h = float(np.median(np.diff(path.t)))
    kmax = float(np.max(np.abs(path.kappa))) if len(path) else 0.0
    return max(1e-12, 25.0 * max(1.0, path.ell) * (1.0 + kmax) ** 2 * h * h)


def validate_path(path):
    """Check the horizontality and unit-speed invariants, both against
    :func:`default_horizontality_tol`.

    Raises HorizontalityError naming the worst residual on failure.
    Returns (max horizontality residual, max speed error).
    """
    tol = default_horizontality_tol(path)
    res = horizontality_residuals(path)
    worst = float(res.max()) if res.size else 0.0
    if worst > tol:
        raise HorizontalityError(
            f"no-skid residual {worst:.3e} exceeds tolerance {tol:.3e}")
    sp = speed_errors(path)
    smax = float(sp.max()) if sp.size else 0.0
    if smax > tol:
        raise HorizontalityError(
            f"front speed deviates from 1 by {smax:.3e} (tol {tol:.3e})")
    return worst, smax


def flip_path(path):
    """Flip every placement of a path about its back wheel.

    The result shares its back track with the input, and the front track
    curvature is recomputed from the flipped track.  The input must
    satisfy the no-skid invariant; the flipped output is checked against
    twice the input residual (plus the finite-difference floor).
    """
    c, s = np.cos(path.theta), np.sin(path.theta)
    res_in = _no_skid_residuals(path, c, s)
    tol = default_horizontality_tol(path)
    worst_in = float(res_in.max())
    if worst_in > tol:
        raise HorizontalityError(
            f"input path violates the no-skid invariant ({worst_in:.3e})")
    front = path.front - 2.0 * path.ell * np.stack([c, s], axis=1)
    theta = path.theta + math.pi
    kappa = numdiff.curvature_from_track(front, path.t)
    flipped = SampledBikePath(path.t, front, theta, kappa, path.ell)
    res_out = horizontality_residuals(flipped)
    worst_out = float(res_out.max())
    if worst_out > 2.0 * worst_in + tol:
        raise HorizontalityError(
            f"flipped path residual {worst_out:.3e} exceeds slack bound")
    return flipped


def dilate_path(path, lam):
    """Scale a path by lam: positions and frame length by lam,
    curvature by 1/lam, arc length by lam; angles are unchanged."""
    lam = float(lam)
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("dilation factor must be positive")
    return SampledBikePath(lam * path.t, lam * path.front, path.theta,
                           path.kappa / lam, lam * path.ell)


def st_horizontality_residuals(path):
    """No-skid residual in the back-wheel/unit-tangent model.

    The same constraint expressed in the other coordinates:
    sin(theta) * xb' - cos(theta) * yb' = 0 along horizontal paths.
    Useful as an independent cross-check of ``horizontality_residuals``.
    """
    if len(path) < 3:
        raise DegenerateInputError("need at least 3 samples for residuals")
    db = np.gradient(path.back, path.t, axis=0)
    res = np.sin(path.theta) * db[:, 0] - np.cos(path.theta) * db[:, 1]
    return np.abs(res[1:-1])
