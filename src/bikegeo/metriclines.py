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
only in the line limit a -> infinity, where N grows without bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import LINE, SOLITON, ElasticaClass
# unused here; bound so that bench/spans.py can wrap them at this module
from .analysis import canonical_orient, period_and_advance  # noqa: F401
from .integrate import integrate_geodesic  # noqa: F401
from .closed_forms import elliptic_period_advance
from .core import ConfigPoint, SampledBikePath, _ell_value, angle_difference
from .errors import EndpointMismatchError, InvalidPeriodError
from .integrate import DEFAULT_STEP, ReducedState, _grid, rk4_geodesic


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
    if not (0.0 < L < T):
        raise InvalidPeriodError(f"need 0 < L < T, got T={T}, L={L}")
    return math.floor(math.pi * ell / (T - L)) + 1


def is_metric_line_candidate(cls: ElasticaClass):
    """True for the only front tracks that can minimize globally."""
    return cls.tag in (LINE, SOLITON)


def _arc_samples(length, step):
    n, _h = _grid(length, step)
    return np.linspace(0.0, length, n + 1)


def build_shortcut(start, N, L, ell=1.0, step=DEFAULT_STEP, expected_end=None,
                   tol=1e-4):
    """Assemble the competitor path between vertex configurations.

    start must be the canonical maximum-curvature vertex placement
    (front at the origin, frame angle pi/2).  The path is: quarter
    circle of radius ell clockwise with the back wheel pinned, straight
    ride east of length N*L, quarter turn counterclockwise.  Total
    front-track length pi*ell + N*L; the construction is horizontal by
    design and is sampled at the integration step for fair comparison.

    When expected_end is given, the terminal placement is checked
    against it and EndpointMismatchError raised beyond tol.
    """
    ell = _ell_value(ell)
    if not (abs(start.x) < 1e-9 and abs(start.y) < 1e-9
            and abs(start.theta - 0.5 * math.pi) < 1e-9):
        raise ValueError("start must be the canonical vertex placement "
                         "(origin, frame angle pi/2)")
    if N < 1:
        raise ValueError("N must be a positive integer")
    L = float(L)
    quarter = 0.5 * math.pi * ell
    straight = N * L

    # quarter turn about the pinned back wheel at (0, -ell):
    # theta: pi/2 -> 0, front on the circle of radius ell
    s1 = _arc_samples(quarter, step)
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
    s3 = _arc_samples(quarter, step)
    th3 = s3 / ell
    b3 = np.array([straight, -ell])
    f3 = b3 + ell * np.stack([np.cos(th3), np.sin(th3)], axis=1)
    k3 = np.full(s3.size, 1.0 / ell)

    t = np.concatenate([s1, quarter + s2[1:], quarter + straight + s3[1:]])
    front = np.concatenate([f1, f2[1:], f3[1:]], axis=0)
    theta = np.concatenate([th1, th2[1:], th3[1:]])
    kappa = np.concatenate([k1, k2[1:], k3[1:]])
    path = SampledBikePath(t, front, theta, kappa, ell)

    if expected_end is not None:
        end = path.config(len(path) - 1)
        err = max(abs(end.x - expected_end.x), abs(end.y - expected_end.y),
                  abs(float(angle_difference(end.theta, expected_end.theta))))
        if err > tol:
            raise EndpointMismatchError(
                f"shortcut endpoint off by {err:.3e} (tol {tol:.1e})")
    return path


def shortcut_analysis(a, ell=1.0, step=DEFAULT_STEP):
    """Build the shortcut at the threshold N for the geodesic with
    momentum a and compare lengths.

    (T, L) come from the elliptic closed form.  The geodesic is then
    integrated by RK4 (:func:`integrate.rk4_geodesic`) from its canonical
    vertex over exactly N periods, and the shortcut must land on the same
    configuration (N*L, 0, pi/2), which checks the closed form against an
    independent integrator.  Returns
    (report, geodesic_path, shortcut_path).
    """
    ell = _ell_value(ell)
    T, L = elliptic_period_advance(a, ell)
    N = shortcut_threshold(T, L, ell)
    # vertex state in physical units: curvature scales as 1/ell
    start = ReducedState(0.0, 0.0, 0.5 * math.pi, (1.0 + float(a)) / ell, float(a))
    geo = rk4_geodesic(start, N * T, step, ell)
    end = geo.config(len(geo) - 1)
    cut = build_shortcut(ConfigPoint(0.0, 0.0, 0.5 * math.pi), N, L, ell,
                         step, expected_end=end, tol=1e-3)
    report = ShortcutReport(T, L, ell, N, N * T, math.pi * ell + N * L)
    return report, geo, cut
