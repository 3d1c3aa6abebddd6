"""Parallel transport of the frame angle and bicycle correspondence.

Riding the front wheel along a fixed plane curve transports the frame
angle: the map from initial to final angle is a diffeomorphism of the
fiber circle, and it is a linear fractional (Moebius) transformation in
the half-angle chart u = tan(theta/2).  The lift in `integrate` computes
the transport as a product of real 2x2 matrices acting on the vector
(sin(theta/2), cos(theta/2)), and :class:`MobiusMap` is such a matrix;
this module reads transports off the lift, fits a Moebius map through
fiber samples (for samples read off that product the fit holds by
construction, so the verification suites feed it samples of an
independent theta integrator), builds bicycle correspondents
(front tracks sharing a back track, obtained by flipping a lift), and
fits the pressurized elastica equation

    kappa'' + kappa^3 / 2 + A kappa = C

that circle correspondents satisfy with C != 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .core import SampledBikePath, flip_path, normalize_angles
from .errors import DegenerateInputError, RankDeficiencyError
from .integrate import DEFAULT_STEP, horizontal_lift, lift_frame_angles

@dataclass(frozen=True)
class TransportSample:
    """One fiber sample of a parallel transport map."""

    theta_in: float
    theta_out: float


@dataclass(frozen=True, eq=False)
class MobiusMap:
    """A linear fractional transformation of the fiber circle, stored as
    the real 2x2 matrix acting on (sin(theta/2), cos(theta/2)), the chart
    of the lift's transport product, scaled to |det| = 1 with the sign
    of det kept.  Maps are equal when their stored matrices are."""

    chart_matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.chart_matrix, dtype=float)
        if m.shape != (2, 2) or not np.isfinite(m).all():
            raise ValueError("chart matrix must be a finite 2x2 matrix")
        # scaled to a largest |entry| of 1 first, so det cannot overflow
        m /= max(float(np.abs(m).max()), 1e-300)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if not abs(det) >= 1e-300:
            raise ValueError("chart matrix must be invertible")
        m /= math.sqrt(abs(det))
        m.setflags(write=False)
        object.__setattr__(self, "chart_matrix", m)

    def __eq__(self, other):
        if not isinstance(other, MobiusMap):
            return NotImplemented
        return np.array_equal(self.chart_matrix, other.chart_matrix)

    def apply(self, theta):
        """Image angle(s) of theta, wrapped to (-pi, pi]."""
        half = 0.5 * np.asarray(theta, dtype=float)
        s, c = np.sin(half), np.cos(half)
        (m00, m01), (m10, m11) = self.chart_matrix
        return normalize_angles(2.0 * np.arctan2(m00 * s + m01 * c,
                                                 m10 * s + m11 * c))


def transport(track, theta0, ell=1.0, step=DEFAULT_STEP):
    """Final frame angle after riding the front wheel along the track.

    Returns the continuous (unwrapped) final angle of the horizontal
    lift started at theta0; reduce mod 2*pi for the fiber point.
    """
    _t, th = lift_frame_angles(track, float(theta0), ell, step)
    return float(th[-1])


def transport_samples(track, theta_in, ell=1.0, step=DEFAULT_STEP):
    """Transport a whole batch of fiber angles along one track."""
    theta_in = np.asarray(theta_in, dtype=float)
    _t, th = lift_frame_angles(track, theta_in, ell, step)
    return [TransportSample(float(a), float(b)) for a, b in zip(theta_in, th[-1])]


def _distinct_on_circle(theta):
    """Number of fiber points among the angles theta, split where a gap
    of the sorted wrapped angles, the wrap-around one included, exceeds
    1e-12: pi and -pi + 1e-15 are one point."""
    wrapped = np.sort(normalize_angles(theta))
    gaps = np.diff(wrapped, append=wrapped[0] + 2.0 * math.pi)
    return int(np.count_nonzero(gaps > 1e-12))


def fit_mobius(samples):
    """Least-squares Moebius map through transport samples.

    Works in homogeneous half-angle coordinates
    (sin(theta/2), cos(theta/2)), which keep every row bounded (the
    theta = pi fiber point included), and solves the homogeneous system
    by SVD.  Returns (map, residual) with residual the worst angular
    discrepancy over the samples.

    Raises RankDeficiencyError when the sample set does not pin the map
    down (fewer than three distinct fiber points in general position).
    """
    if len(samples) < 6:
        raise DegenerateInputError("need at least 6 transport samples")
    th_in = np.array([s.theta_in for s in samples], dtype=float)
    th_out = np.array([s.theta_out for s in samples], dtype=float)
    if not (np.all(np.isfinite(th_in)) and np.all(np.isfinite(th_out))):
        raise ValueError("transport sample angles must be finite")
    if _distinct_on_circle(th_in) < 6:
        raise DegenerateInputError("need at least 6 distinct fiber angles")

    s, c = np.sin(th_in / 2.0), np.cos(th_in / 2.0)
    sp, cp = np.sin(th_out / 2.0), np.cos(th_out / 2.0)
    rows = np.stack([-cp * s, -cp * c, sp * s, sp * c], axis=1)
    _u, sv, vt = np.linalg.svd(rows)
    if sv[-2] < 1e-10 * sv[0]:
        raise RankDeficiencyError("transport samples do not determine the map")
    m = vt[-1].reshape(2, 2)
    if abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) < 1e-14:
        raise RankDeficiencyError("fitted chart matrix is singular")
    mob = MobiusMap(m)
    pred = mob.apply(th_in)
    residual = float(np.max(np.abs(normalize_angles(pred - th_out))))
    return mob, residual


def cross_ratio(u):
    """Cross ratio (u0-u2)(u1-u3) / ((u0-u3)(u1-u2)) of four reals."""
    u0, u1, u2, u3 = u
    return ((u0 - u2) * (u1 - u3)) / ((u0 - u3) * (u1 - u2))


def cross_ratio_angles(thetas):
    """Cross ratio of four fiber angles in the tan(theta/2) chart.

    Raises ValueError unless exactly four finite angles are given, and
    DegenerateInputError unless they are four distinct fiber points.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape != (4,) or not np.isfinite(thetas).all():
        raise ValueError("need exactly four finite angles")
    if _distinct_on_circle(thetas) < 4:
        raise DegenerateInputError("the four angles must be distinct on the circle")
    return cross_ratio(np.tan(thetas / 2.0))


def correspondent(track, theta0, ell=1.0, step=DEFAULT_STEP):
    """Bicycle correspondent of a front track.

    Lifts the track from theta0, flips the frame about the back wheel,
    and returns the flipped path: its front track is 2b - f and it
    shares the back track b with the lift.  Lines map to solitons (for
    generic theta0); circle correspondents are pressurized elasticae.
    """
    lift = horizontal_lift(track, theta0, ell, step)
    return flip_path(lift)


#: differentiation spacing for the pressurized fit; double numerical
#: differentiation amplifies roundoff like eps/h^2, so the fit resamples
#: the curve coarser than integration steps
FIT_SPACING = 0.02


def pressurized_fit(front, t=None, spacing=FIT_SPACING):
    """Least-squares fit of kappa'' + kappa^3/2 + A*kappa = C.

    front : a SampledBikePath, whose front track is fitted against its
    arc length t, or an (n, 2) arc-length-sampled plane curve with its
    arc lengths t, which an array front must supply.  Returns
    (A, C, residual) with residual the worst absolute defect over
    interior samples.

    Curvature and its second derivative come from finite differences on
    a grid no finer than ``spacing``, and (A, C) from the closed-form
    two-column least squares :func:`numdiff.affine_lstsq` (the
    np.linalg.lstsq solution with rcond = 1e-6); constant-curvature
    input leaves (A, C) underdetermined and the minimum-norm solution
    is returned.
    A non-finite front or t, a missing t or one of another length, a t
    given with a path, or a t that is not strictly increasing raises
    ValueError.
    """
    if isinstance(front, SampledBikePath):
        if t is not None:
            raise ValueError("t is given only with an array front")
        t = front.t
        front = front.front
    front = np.asarray(front, dtype=float)
    if front.ndim != 2 or front.shape[1] != 2:
        raise ValueError("front must be an (n, 2) array")
    if not np.isfinite(front).all():
        raise ValueError("front must be finite")
    t = np.asarray(t, dtype=float)
    if t.shape != front.shape[:1] or not np.isfinite(t).all():
        raise ValueError(f"t must be finite, one value per front sample "
                         f"({front.shape[0]}), got shape {t.shape}")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("t must be strictly increasing")
    if front.shape[0] < 9:
        raise DegenerateInputError("need at least 9 samples for the fit")

    dt = float(np.median(np.diff(t)))
    stride = max(1, int(round(spacing / dt)))
    f = front[::stride]
    tt = t[::stride]
    if f.shape[0] < 9:
        raise DegenerateInputError(
            "need at least 9 samples at the differentiation spacing")

    kappa = numdiff.curvature_from_track(f, tt)
    kdd = numdiff.deriv2(kappa, tt)
    sl = numdiff.interior(f.shape[0], 5)
    k = kappa[sl]
    A, C = numdiff.affine_lstsq(k, -(kdd[sl] + 0.5 * k**3))
    defect = np.abs(kdd[sl] + 0.5 * k**3 + A * k - C)
    return A, C, float(np.max(defect))
