"""Elastica diagnostics for sampled front tracks.

The curvature of a geodesic front track satisfies the energy form of
the elastica equation

    kappa'^2 / 2 + kappa^4 / 8 + (A/2) kappa^2 = B,

with A = -(a^2+1)/2 and B = -(a^2-1)^2/8 for momentum parameter a.
This module measures those quantities on sampled paths: energy-form
residuals and least-squares (A, B) fits, the dilation-invariant shape
parameter mu = -2B/A^2, the taxonomy of front tracks, widths of front
and back tracks, curvature vertices, and the period/advance pair of a
non-exceptional track.  Measurements are made in the canonical pose
(directrix horizontal, curvature positive, a maximum-curvature vertex
pinned at x = 0), produced by :func:`canonical_orient`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .closed_forms import CLASS_TOL
from .core import RigidMotion, act, normalize_angle
from .errors import (DegenerateInputError, InsufficientExtentError,
                     InvalidPeriodError, NoDirectrixError, NoPeriodError)

LINE = "Line"
CIRCLE = "Circle"
SOLITON = "Soliton"
WIDE_NIE = "WideNIE"
NARROW_NIE = "NarrowNIE"


@dataclass(frozen=True)
class ElasticaParams:
    """Energy-form coefficients of an elastica.

    A and B are the coefficients in the energy form, mu = -2B/A^2 the
    scale-invariant shape parameter, and a the momentum parameter when
    the params were derived from a geodesic (None for fitted params).
    """

    A: float
    B: float
    mu: float
    a: float | None = None

    def __post_init__(self):
        if 2.0 * self.B + self.A**2 < -1e-9:
            raise ValueError("infeasible energy form: 2B + A^2 < 0")

    @classmethod
    def from_momentum(cls, a):
        """Energy-form coefficients of the geodesic with momentum a."""
        a = float(a)
        if not math.isfinite(a):
            raise ValueError(f"momentum parameter a = {a!r} must be finite")
        if a < 0:
            raise ValueError("momentum parameter a must be >= 0")
        A = -(a * a + 1.0) / 2.0
        try:
            B = -((a * a - 1.0) ** 2) / 8.0 + 0.0  # avoid -0.0 at a = 1
            mu = (a * a - 1.0) ** 2 / (a * a + 1.0) ** 2
            if not math.isfinite(mu):  # a * a itself overflowed
                raise OverflowError
        except OverflowError:
            raise ValueError(f"momentum parameter a = {a!r} is too large: "
                             "the energy-form coefficients overflow") from None
        return cls(A, B, mu, a)


@dataclass(frozen=True)
class ElasticaClass:
    """Taxonomy tag of a front track with its scale data."""

    tag: str
    params: ElasticaParams


def classify(a, kappa0):
    """Classify the front track of the geodesic with momentum a and
    initial curvature kappa0.

    Circles have a = 0, lines kappa == 0, solitons a = 1 with nonzero
    curvature, each within CLASS_TOL; otherwise the track is a
    non-inflectional elastica, wide for a < 1 and narrow for a > 1.
    """
    params = ElasticaParams.from_momentum(a)
    a, kappa0 = params.a, float(kappa0)
    if not math.isfinite(kappa0):
        raise ValueError(f"initial curvature kappa0 = {kappa0!r} must be finite")
    if a <= CLASS_TOL:
        return ElasticaClass(CIRCLE, params)
    if abs(kappa0) <= CLASS_TOL:
        return ElasticaClass(LINE, params)
    if abs(a - 1.0) <= CLASS_TOL:
        return ElasticaClass(SOLITON, params)
    if a < 1.0:
        return ElasticaClass(WIDE_NIE, params)
    return ElasticaClass(NARROW_NIE, params)


@dataclass(frozen=True)
class Vertex:
    """A curvature extremum of the front track.

    t and kappa are refined by quadratic interpolation; theta is the
    frame angle at the vertex, normalized to (-pi, pi].
    """

    t: float
    kind: str  # "max" or "min"
    kappa: float
    theta: float
    position: tuple


@dataclass(frozen=True)
class VertexReport:
    """Ordered curvature extrema; kinds alternate along the list."""

    vertices: tuple

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def maxima(self):
        return [v for v in self.vertices if v.kind == "max"]

    def minima(self):
        return [v for v in self.vertices if v.kind == "min"]


def _quad_refine(t, values):
    """Vertex of the parabola through three samples (t[k], values[k]).

    Returns (t*, s*) with s* the offset from the middle sample in units
    of the local spacing; falls back to the middle sample when the
    parabola is flat.
    """
    y0, y1, y2 = values
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(t[1]), 0.0
    s = min(max(float(0.5 * (y0 - y2) / denom), -1.0), 1.0)
    h = 0.5 * (t[2] - t[0])
    return float(t[1] + s * h), s


def _quad_value(values, s):
    """Quadratic interpolation of three samples at offset s from the
    middle one."""
    y0, y1, y2 = values
    return y1 + 0.5 * s * (y2 - y0) + 0.5 * s * s * (y2 - 2.0 * y1 + y0)


def _raw_extrema(kappa):
    """Indices and kinds of local extrema of the sampled curvature."""
    dk = np.diff(kappa)
    rising = dk > 0
    falling = dk < 0
    is_max = rising[:-1] & ~rising[1:]
    is_min = falling[:-1] & ~falling[1:]
    idx = np.flatnonzero(is_max | is_min)
    return (idx + 1).tolist(), np.where(is_max[idx], "max", "min").tolist()


def _prune_jitter(entries, krange):
    """Drop sampling-noise wiggles: adjacent opposite-kind extrema whose
    curvature gap is negligible against the overall curvature range, and
    merge same-kind neighbours keeping the more extreme one."""
    tol = 1e-4 * krange
    kept = []
    for v in entries:
        kept.append(v)
        # the kept prefix has no such pair; a drop or merge may expose one
        while len(kept) > 1:
            a, b = kept[-2], kept[-1]
            if a.kind == b.kind:
                kept[-2:] = [a if (a.kappa > b.kappa) == (a.kind == "max") else b]
            elif abs(a.kappa - b.kappa) < tol:
                del kept[-2:]
            else:
                break
    return kept


def _extended(x):
    """Samples x with one quadratically extrapolated sample at each end."""
    return np.concatenate([[3.0 * x[0] - 3.0 * x[1] + x[2]], x,
                           [3.0 * x[-1] - 3.0 * x[-2] + x[-3]]])


def _window(x, j):
    """Samples j-1, j, j+1 of x as floats, taking the sample that
    :func:`_extended` adds where the window passes an end."""
    if j == 0:
        x0, x1, x2 = x[:3].tolist()
        return [3.0 * x0 - 3.0 * x1 + x2, x0, x1]
    if j == len(x) - 1:
        x0, x1, x2 = x[-3:].tolist()
        return [x1, x2, 3.0 * x2 - 3.0 * x1 + x0]
    return x[j - 1:j + 2].tolist()


def _memoized(path, key, compute):
    """compute(path), kept on the path under key.

    SampledBikePath is an immutable value, so whatever is derived from
    its arrays stays valid.  The memo is a private attribute, not a
    dataclass field: equality, :func:`core.act` and the CSV ignore it.
    """
    memo = path.__dict__.setdefault("_analysis_memo", {})
    if key not in memo:
        memo[key] = compute(path)
    return memo[key]


def _scan_vertices(path):
    """The report of :func:`find_vertices`, from one scan of the curvature."""
    hi, lo = float(np.max(path.kappa)), float(np.min(path.kappa))
    krange = hi - lo
    if krange <= 1e-8 * max(1.0, hi, -lo):
        return VertexReport(())

    k = _extended(path.kappa)
    x, y = path.front[:, 0], path.front[:, 1]
    entries = []
    for i, kind in zip(*_raw_extrema(k)):
        j = i - 1  # extended sample i is sample i - 1 of the path
        window = k[i - 1:i + 2].tolist()
        tv, s = _quad_refine(_window(path.t, j), window)
        th = normalize_angle(_quad_value(_window(path.theta, j), s))
        pos = (_quad_value(_window(x, j), s), _quad_value(_window(y, j), s))
        entries.append(Vertex(tv, kind, _quad_value(window, s), th, pos))
    return VertexReport(tuple(_prune_jitter(entries, krange)))


def find_vertices(path):
    """Locate curvature extrema of the front track.

    Extrema are detected by sign changes of the finite-difference
    curvature slope and refined by 3-point quadratic interpolation.  The
    curvature is first extended by one quadratically extrapolated sample
    at each end, so a vertex up to half a spacing beyond the first or
    last sample is found too; its time is not clipped to the path.  Time,
    frame angle and position are read from each extremum's three
    samples alone, extrapolated the same way at an end.  Paths whose
    curvature is constant to roundoff (lines, circles) produce an empty
    report.

    The report is memoized on the path, so each path is scanned once
    however many measurements read its vertices.
    """
    if len(path) < 5:
        raise DegenerateInputError("need at least 5 samples to find vertices")
    return _memoized(path, "report", _scan_vertices)


def _soliton_like(report, top="max"):
    """One extremum of kind top; any others sit at negligible curvature
    (the far tail of a soliton leaves the homoclinic orbit at roundoff
    scale, producing extrema at ~1e-14 of the apex value)."""
    tops = [v for v in report if v.kind == top]
    if len(tops) != 1:
        return False
    kmax = abs(tops[0].kappa)
    return all(abs(v.kappa) <= 1e-6 * kmax for v in report if v.kind != top)


def canonical_orient(path):
    """Rigidly move a path into the canonical measurement pose.

    The pose has positive curvature, a horizontal directrix, and a
    maximum-curvature vertex at x = 0: for periodic (non-soliton)
    tracks the earliest curvature maximum is placed at the origin; a
    soliton is placed with its apex at (0, 2*ell) so the asymptote is
    y = 0.  Returns (oriented_path, motion) with
    oriented_path = act(motion, path), so callers can undo the motion.

    The directrix direction is estimated from the line through
    successive curvature maxima, which the geodesic flow places at equal
    heights; for a soliton the front-track tangent at the endpoint far
    from the apex is used instead (the frame settles onto the asymptote
    exponentially fast there).

    A path whose first vertex has negative curvature is reflected first.
    The reflection negates y, theta and kappa exactly and the vertex scan
    is symmetric under that, so the path's own minima serve as maxima.
    """
    report = find_vertices(path)
    span = float(path.t[-1] - path.t[0])
    if len(report) == 0:
        if float(np.max(np.abs(path.kappa))) <= 1e-8:
            raise NoDirectrixError("straight front track has no directrix")
        raise InsufficientExtentError(
            "no curvature extrema in the sampled window", partial_extent=span)

    reflect, top = RigidMotion(), "max"
    if report.vertices[0].kappa < 0.0:
        reflect, top = RigidMotion.reflection_x(), "min"
    tops = [v for v in report if v.kind == top]
    if len(tops) >= 2:
        point = reflect.apply_point(tops[0].position)
        direction = reflect.apply_point(tops[-1].position) - point
        target = np.zeros(2)
    elif _soliton_like(report, top):
        apex = tops[0]
        d_left = apex.t - float(path.t[0])
        d_right = float(path.t[-1]) - apex.t
        if max(d_left, d_right) < 15.0 * path.ell:
            raise InsufficientExtentError(
                "soliton window too short to estimate the asymptote",
                partial_extent=span)
        ends = [-1, -2] if d_right >= d_left else [1, 0]
        far, near = reflect.apply_point(path.front[ends])
        direction = far - near
        point = reflect.apply_point(apex.position)
        target = np.array([0.0, 2.0 * path.ell])
    else:
        raise InsufficientExtentError(
            "need two curvature extrema or a soliton apex to orient",
            partial_extent=span)
    rot = RigidMotion(-math.atan2(direction[1], direction[0]))
    move = RigidMotion.translation_by(target - rot.apply_point(point)) @ rot @ reflect
    return act(move, path), move


def _refined_extent(values, t):
    """Max minus min of a sampled quantity, extrema refined by parabola."""
    hi_i = int(np.argmax(values))
    lo_i = int(np.argmin(values))

    def refined(i, sign):
        if 0 < i < values.size - 1:
            window = values[i - 1:i + 2]
            _tv, s = _quad_refine(t[i - 1:i + 2], sign * window)
            return float(_quad_value(window, s))
        return float(values[i])

    return refined(hi_i, 1.0) - refined(lo_i, -1.0)


def _width_of(values, path, report):
    """Shared gating for front/back width measurements."""
    maxima = report.maxima()
    if len(maxima) >= 2:
        return float(_refined_extent(values, path.t))
    if _soliton_like(report):
        span = float(path.t[-1] - path.t[0])
        if span < 40.0 * path.ell:
            raise InsufficientExtentError(
                "soliton width needs a window of at least 40 frame lengths",
                partial_extent=float(values.max() - values.min()))
        return float(_refined_extent(values, path.t))
    raise InsufficientExtentError(
        "path spans less than one curvature period",
        partial_extent=float(values.max() - values.min()))


def front_width(path):
    """Width of the front track, measured perpendicular to the directrix.

    Requires the canonical pose.  For periodic tracks the extent over at
    least one full curvature period is taken; a soliton is measured as
    sup - inf over a long window since it attains its width only
    asymptotically.
    """
    report = find_vertices(path)
    return _width_of(path.front[:, 1], path, report)


def back_width(path):
    """Width of the back track, in the same canonical pose as
    :func:`front_width`."""
    report = find_vertices(path)
    return _width_of(path.back[:, 1], path, report)


def period_and_advance(path):
    """Curvature period T and directrix advance L of a periodic track.

    T is the arc length between successive maximum-curvature vertices
    and L the x-advance over one period; the path must be canonically
    oriented and span at least one full period.  Straight, circular and
    soliton tracks are rejected.
    """
    report = find_vertices(path)
    maxima = report.maxima()
    if len(maxima) < 2:
        raise NoPeriodError(
            "no curvature period: exceptional track or window too short")
    ts = np.array([v.t for v in maxima])
    xs = np.array([v.position[0] for v in maxima])
    T = float(np.mean(np.diff(ts)))
    L = float(np.mean(np.diff(xs)))
    if not (0.0 < L < T):
        raise InvalidPeriodError(f"measured period/advance invalid: T={T}, L={L}")
    return T, L


def _energy_terms(path):
    """kappa^2 and kappa'^2/2 + kappa^4/8 over the interior samples,
    with kappa' by centered finite differences (:func:`numdiff.deriv1`)."""
    k = path.kappa
    kd = numdiff.deriv1(k, path.t)
    sl = numdiff.interior(len(path), 2)
    return k[sl] ** 2, 0.5 * kd[sl] ** 2 + 0.125 * k[sl] ** 4


def energy_residual(path, params):
    """Worst defect of the elastica energy form along a path.

    Returns max over interior samples of
    |kappa'^2/2 + kappa^4/8 + (A/2) kappa^2 - B| with kappa' estimated
    by centered finite differences.  The terms in kappa are memoized on
    the path and shared with :func:`fit_elastica_params`.
    """
    if len(path) < 5:
        raise DegenerateInputError("need at least 5 samples for the energy form")
    k2, energy = _memoized(path, "energy", _energy_terms)
    res = energy + 0.5 * params.A * k2 - params.B
    return float(np.max(np.abs(res)))


def fit_elastica_params(path):
    """Least-squares (A, B) fit of the energy form to a sampled track.

    Solves (A/2) kappa^2 - B = -(kappa'^2/2 + kappa^4/8) over interior
    samples, in closed form (:func:`numdiff.affine_lstsq`, the
    two-column np.linalg.lstsq with rcond = 1e-6), from the terms it
    shares with :func:`energy_residual`.  Constant-curvature input makes
    the system rank deficient; the minimum-norm solution is returned in
    that case.
    """
    if len(path) < 5:
        raise DegenerateInputError("need at least 5 samples to fit")
    k2, energy = _memoized(path, "energy", _energy_terms)
    A, B = numdiff.affine_lstsq(0.5 * k2, -energy)
    mu = -2.0 * B / (A * A) if A != 0.0 else math.inf
    a2 = -2.0 * A - 1.0
    a = math.sqrt(a2) if a2 >= 0.0 else None
    return ElasticaParams(A, B, mu, a)


def strip_width(points):
    """Brute-force width: infimum over directions of the projected extent.

    Independent oracle for the width measurements: scans 720 directions
    on a half-circle grid and refines the minimum by parabolic interpolation.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be (n, 2)")
    phis = np.linspace(0.0, math.pi, 720, endpoint=False)
    dirs = np.stack([np.cos(phis), np.sin(phis)], axis=0)
    proj = points @ dirs
    extents = proj.max(axis=0) - proj.min(axis=0)
    j = int(np.argmin(extents))

    def extent_at(phi):
        u = np.array([math.cos(phi), math.sin(phi)])
        p = points @ u
        return float(p.max() - p.min())

    h = phis[1] - phis[0]
    e0 = extents[(j - 1) % 720]
    e1 = extents[j]
    e2 = extents[(j + 1) % 720]
    denom = e0 - 2.0 * e1 + e2
    if denom > 0:
        s = float(np.clip(0.5 * (e0 - e2) / denom, -1.0, 1.0))
        return extent_at(phis[j] + s * h)
    return float(e1)
