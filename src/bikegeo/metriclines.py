"""Shortcut construction showing when geodesics stop minimizing.

A periodic front track advances L along its directrix per curvature
period T, with L < T.  Starting and ending at maximum-curvature
vertices, the same endpoints in configuration space are joined by a
competitor: spin the frame a quarter turn about the stationary back
wheel, ride straight for N*L, spin a quarter turn back.  That path has
length pi*ell + N*L, which beats the geodesic's N*T as soon as
N > pi*ell / (T - L).  Only straight lines and solitons escape, because
neither has a curvature period: the soliton is the limit a -> 1, where T
diverges (while T - L tends to 4*ell), so no two vertices lie a period
apart.  This is exactly the metric-line dichotomy.  T - L tends to 0
only in the line limit a -> infinity, where N grows without bound.  The
geodesic is sampled from the elliptic closed form, up to its phase bound
near a = 2.7e9; RK4 lands on the shortcut only in the checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import LINE, SOLITON, ElasticaClass
# unused here; bound so that bench/spans.py can wrap them at this module
from .analysis import canonical_orient, period_and_advance  # noqa: F401
from .closed_forms import elliptic_period_advance
from .core import SampledBikePath, _ell_value
from .errors import EndpointMismatchError, InvalidPeriodError
from .integrate import DEFAULT_STEP, ReducedState, _grid, integrate_geodesic


@dataclass(frozen=True)
class ShortcutReport:
    """Quantitative record of one shortcut comparison."""

    T: float
    L: float
    ell: float
    N_star: int
    geodesic_length: float
    shortcut_length: float

    def __post_init__(self):
        if not self.shortcut_length < self.geodesic_length:
            raise InvalidPeriodError("shortcut fails to beat the geodesic")

    @property
    def margin(self):
        return self.geodesic_length - self.shortcut_length


def shortcut_threshold(T, L, ell=1.0):
    """Smallest period count N with pi*ell + N*L < N*T."""
    ell = _ell_value(ell)
    if not (math.isfinite(T) and math.isfinite(L)):
        raise ValueError(f"T = {T!r} and L = {L!r} must both be finite")
    if not (0.0 < L < T):
        raise InvalidPeriodError(f"need 0 < L < T, got T={T}, L={L}")
    ratio = math.pi * ell / (T - L)
    if not math.isfinite(ratio):
        raise ValueError(f"pi * ell / (T - L) overflows for T = {T!r}, "
                         f"L = {L!r}, ell = {ell!r}")
    return math.floor(ratio) + 1


def is_metric_line_candidate(cls: ElasticaClass):
    """True for the only front tracks that can minimize globally."""
    return cls.tag in (LINE, SOLITON)


def _arc_samples(length, step):
    n, _h = _grid(length, step)
    return np.linspace(0.0, length, n + 1)


def build_shortcut(N, L, ell=1.0, step=DEFAULT_STEP):
    """Assemble the competitor path from the canonical vertex placement
    (front at the origin, frame angle pi/2) to (N*L, 0, pi/2).

    The path is: quarter circle of radius ell clockwise with the back
    wheel pinned, straight ride east of length N*L, quarter turn
    counterclockwise.  Total front-track length pi*ell + N*L; the
    construction is horizontal by design and is sampled at the
    integration step for fair comparison.
    """
    ell = _ell_value(ell)
    if N < 1:
        raise ValueError("N must be a positive integer")
    L = float(L)
    quarter = 0.5 * math.pi * ell
    straight = N * L

    # quarter turn about the pinned back wheel at (0, -ell):
    # theta: pi/2 -> 0, front on the circle of radius ell
    s1 = s3 = _arc_samples(quarter, step)
    th1 = 0.5 * math.pi - s1 / ell
    b1 = np.array([0.0, -ell])
    f1 = b1 + ell * np.stack([np.cos(th1), np.sin(th1)], axis=1)
    k1 = np.full(s1.size, -1.0 / ell)

    # straight ride east at height -ell, frame aligned with the motion
    s2 = _arc_samples(straight, step)
    f2 = np.stack([ell + s2, np.full(s2.size, -ell)], axis=1)
    th2 = np.zeros(s2.size)
    k2 = np.zeros(s2.size)

    # quarter turn back up about the back wheel at (N*L, -ell)
    th3 = s3 / ell
    b3 = np.array([straight, -ell])
    f3 = b3 + ell * np.stack([np.cos(th3), np.sin(th3)], axis=1)
    k3 = np.full(s3.size, 1.0 / ell)

    t = np.concatenate([s1, quarter + s2[1:], quarter + straight + s3[1:]])
    front = np.concatenate([f1, f2[1:], f3[1:]], axis=0)
    theta = np.concatenate([th1, th2[1:], th3[1:]])
    kappa = np.concatenate([k1, k2[1:], k3[1:]])
    return SampledBikePath._own(t, front, theta, kappa, ell)


def shortcut_analysis(a, ell=1.0, step=DEFAULT_STEP):
    """Build the shortcut at the threshold N for the geodesic with
    momentum a and compare lengths.

    (T, L) come from the elliptic closed form.  The geodesic is then
    sampled from its canonical vertex over exactly N periods
    (:func:`integrate.integrate_geodesic`), and the shortcut must land on
    the same configuration (N*L, 0, pi/2) within 1e-3
    (:meth:`core.ConfigPoint.gap`), which checks the sampled closed
    form against the elliptic (T, L); a larger gap raises
    EndpointMismatchError.  The independent RK4 landing is
    :func:`verify.check_shortcut_grid`.  Returns (report,
    geodesic_path, shortcut_path).
    """
    ell = _ell_value(ell)
    T, L = elliptic_period_advance(a, ell)
    N = shortcut_threshold(T, L, ell)
    # vertex state in physical units: curvature scales as 1/ell
    start = ReducedState(0.0, 0.0, 0.5 * math.pi, (1.0 + float(a)) / ell, float(a))
    geo = integrate_geodesic(start, N * T, step, ell)
    cut = build_shortcut(N, L, ell, step)
    err = cut.config(len(cut) - 1).gap(geo.config(len(geo) - 1))
    if err > 1e-3:
        raise EndpointMismatchError(
            f"shortcut endpoint off by {err:.3e} (tol 1.0e-03)")
    report = ShortcutReport(T, L, ell, N, N * T, math.pi * ell + N * L)
    return report, geo, cut
