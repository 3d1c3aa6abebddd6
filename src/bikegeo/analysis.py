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
from .core import (RigidMotion, SampledBikePath, act, normalize_angle)
from .errors import (DegenerateInputError, InsufficientExtentError,
                     InvalidPeriodError, NoDirectrixError, NoPeriodError)

LINE = "Line"
CIRCLE = "Circle"
SOLITON = "Soliton"
WIDE_NIE = "WideNIE"
NARROW_NIE = "NarrowNIE"

#: classification tolerance around the boundary momenta a in {0, 1}
CLASS_TOL = 1e-9


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
        if a < 0:
            raise ValueError("momentum parameter a must be >= 0")
        A = -(a * a + 1.0) / 2.0
        B = -((a * a - 1.0) ** 2) / 8.0 + 0.0  # avoid -0.0 at a = 1
        mu = (a * a - 1.0) ** 2 / (a * a + 1.0) ** 2
        return cls(A, B, mu, a)


@dataclass(frozen=True)
class ElasticaClass:
    """Taxonomy tag of a front track with its scale data."""

    tag: str
    params: ElasticaParams


def classify(a, kappa0, tol=CLASS_TOL):
    """Classify the front track of the geodesic with momentum a and
    initial curvature kappa0.

    Circles have a = 0, lines kappa == 0, solitons a = 1 with nonzero
    curvature; otherwise the track is a non-inflectional elastica,
    wide for a < 1 and narrow for a > 1.
    """
    a = float(a)
    if a < 0:
        raise ValueError("momentum parameter a must be >= 0")
    params = ElasticaParams.from_momentum(a)
    if a <= tol:
        return ElasticaClass(CIRCLE, params)
    if abs(kappa0) <= tol:
        return ElasticaClass(LINE, params)
    if abs(a - 1.0) <= tol:
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


def _quad_refine(t, values, i):
    """Vertex of the parabola through samples i-1, i, i+1.

    Returns (t*, s*) with s* the offset in units of the local spacing;
    falls back to the sample itself when the parabola is flat.
    """
    y0, y1, y2 = values[i - 1], values[i], values[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(t[i]), 0.0
    s = 0.5 * (y0 - y2) / denom
    s = float(np.clip(s, -1.0, 1.0))
    h = 0.5 * (t[i + 1] - t[i - 1])
    return float(t[i] + s * h), s


def _quad_value(values, i, s):
    """Quadratic interpolation of sample column(s) at offset s from i."""
    y0, y1, y2 = values[i - 1], values[i], values[i + 1]
    return y1 + 0.5 * s * (y2 - y0) + 0.5 * s * s * (y2 - 2.0 * y1 + y0)


def _raw_extrema(kappa):
    """Indices and kinds of local extrema of the sampled curvature."""
    dk = np.diff(kappa)
    rising = dk > 0
    falling = dk < 0
    idx = []
    kinds = []
    for i in range(1, kappa.size - 1):
        if rising[i - 1] and not rising[i]:
            idx.append(i)
            kinds.append("max")
        elif falling[i - 1] and not falling[i]:
            idx.append(i)
            kinds.append("min")
    return idx, kinds


def _prune_jitter(entries, krange):
    """Drop sampling-noise wiggles: adjacent opposite-kind extrema whose
    curvature gap is negligible against the overall curvature range, and
    merge same-kind neighbours keeping the more extreme one."""
    tol = 1e-4 * krange
    entries = list(entries)
    changed = True
    while changed and len(entries) > 1:
        changed = False
        for j in range(len(entries) - 1):
            a, b = entries[j], entries[j + 1]
            if a.kind != b.kind and abs(a.kappa - b.kappa) < tol:
                del entries[j + 1]
                del entries[j]
                changed = True
                break
            if a.kind == b.kind:
                better = a if (a.kappa > b.kappa) == (a.kind == "max") else b
                entries[j] = better
                del entries[j + 1]
                changed = True
                break
    return entries


def find_vertices(path):
    """Locate curvature extrema of the front track.

    Extrema are detected by sign changes of the finite-difference
    curvature slope and refined by 3-point quadratic interpolation; a
    vertex sitting exactly on the first or last sample is also detected.
    Paths whose curvature is constant to roundoff (lines, circles)
    produce an empty report.
    """
    if len(path) < 5:
        raise DegenerateInputError("need at least 5 samples to find vertices")
    k = path.kappa
    t = path.t
    kmax = float(np.max(np.abs(k)))
    krange = float(np.max(k) - np.min(k))
    if krange <= 1e-8 * max(1.0, kmax):
        return VertexReport(())

    idx, kinds = _raw_extrema(k)
    entries = []
    for i, kind in zip(idx, kinds):
        tv, s = _quad_refine(t, k, i)
        kv = float(_quad_value(k, i, s))
        th = normalize_angle(float(_quad_value(path.theta, i, s)))
        pos = _quad_value(path.front, i, s)
        entries.append(Vertex(tv, kind, kv, th, (float(pos[0]), float(pos[1]))))

    # boundary vertices: curvature slope vanishing at an end sample
    for i, side in ((1, "start"), (k.size - 2, "end")):
        y0, y1, y2 = k[i - 1], k[i], k[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom == 0.0 or abs(denom) < 1e3 * np.finfo(float).eps * max(1.0, kmax):
            continue
        s = 0.5 * (y0 - y2) / denom
        # accept only if the parabola vertex falls on or just beyond the end
        # (interior sign changes already cover |s| < 0.5)
        if side == "start" and not (-1.3 <= s <= -0.5):
            continue
        if side == "end" and not (0.5 <= s <= 1.3):
            continue
        tv = float(t[i] + s * 0.5 * (t[i + 1] - t[i - 1]))
        tv = float(np.clip(tv, t[0], t[-1]))
        kind = "max" if denom < 0 else "min"
        kv = float(_quad_value(k, i, s))
        th = normalize_angle(float(_quad_value(path.theta, i, s)))
        pos = _quad_value(path.front, i, s)
        entries.append(Vertex(tv, kind, kv, th, (float(pos[0]), float(pos[1]))))

    entries.sort(key=lambda v: v.t)
    # dedupe boundary/interior double detections
    deduped = []
    for v in entries:
        if deduped and abs(v.t - deduped[-1].t) < 0.75 * float(np.median(np.diff(t))):
            continue
        deduped.append(v)
    return VertexReport(tuple(_prune_jitter(deduped, krange)))


def _soliton_like(report):
    """One curvature maximum; any further extrema sit at negligible
    curvature (the far tail of a soliton leaves the homoclinic orbit at
    roundoff scale, producing minima at ~1e-14 of the apex value)."""
    maxima = report.maxima()
    if len(maxima) != 1:
        return False
    kmax = abs(maxima[0].kappa)
    return all(abs(v.kappa) <= 1e-6 * kmax for v in report.minima())


def _oriented_and_vertices(path):
    """Reflect the path if its curvature is negative, then find vertices.

    Returns (path, motion, report) with motion the reflection applied
    (identity when none was needed).
    """
    report = find_vertices(path)
    motion = RigidMotion.identity()
    ref = report.vertices[0].kappa if len(report) else float(np.median(path.kappa))
    if ref < 0.0:
        motion = RigidMotion.reflection_x()
        path = act(motion, path)
        report = find_vertices(path)
    return path, motion, report


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
    """
    work, reflect, report = _oriented_and_vertices(path)
    if len(report) == 0:
        kmax = float(np.max(np.abs(work.kappa)))
        if kmax <= 1e-8:
            raise NoDirectrixError("straight front track has no directrix")
        raise InsufficientExtentError(
            "no curvature extrema in the sampled window",
            partial_extent=float(work.t[-1] - work.t[0]))

    maxima = report.maxima()
    if len(maxima) >= 2:
        first = np.asarray(maxima[0].position)
        last = np.asarray(maxima[-1].position)
        chord = last - first
        phi = -math.atan2(chord[1], chord[0])
        rot = RigidMotion.rotation_about(phi)
        anchor = rot.apply_point(first)
        move = RigidMotion.translation_by(-anchor) @ rot @ reflect
        return act(move, path), move

    if _soliton_like(report):
        apex_v = report.maxima()[0]
        d_left = apex_v.t - float(work.t[0])
        d_right = float(work.t[-1]) - apex_v.t
        if max(d_left, d_right) < 15.0 * work.ell:
            raise InsufficientExtentError(
                "soliton window too short to estimate the asymptote",
                partial_extent=float(work.t[-1] - work.t[0]))
        if d_right >= d_left:
            tangent = work.front[-1] - work.front[-2]
        else:
            tangent = work.front[1] - work.front[0]
        phi = -math.atan2(tangent[1], tangent[0])
        rot = RigidMotion.rotation_about(phi)
        apex = rot.apply_point(np.asarray(apex_v.position))
        target = np.array([0.0, 2.0 * work.ell])
        move = RigidMotion.translation_by(target - apex) @ rot @ reflect
        return act(move, path), move

    raise InsufficientExtentError(
        "need two curvature extrema or a soliton apex to orient",
        partial_extent=float(work.t[-1] - work.t[0]))


def _refined_extent(values, t):
    """Max minus min of a sampled quantity, extrema refined by parabola."""
    hi_i = int(np.argmax(values))
    lo_i = int(np.argmin(values))

    def refined(i, sign):
        if 0 < i < values.size - 1:
            _tv, s = _quad_refine(t, sign * values, i)
            return float(_quad_value(values, i, s))
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


def energy_residual(path, params):
    """Worst defect of the elastica energy form along a path.

    Returns max over interior samples of
    |kappa'^2/2 + kappa^4/8 + (A/2) kappa^2 - B| with kappa' estimated
    by centered finite differences.
    """
    if len(path) < 5:
        raise DegenerateInputError("need at least 5 samples for the energy form")
    k = path.kappa
    kd = numdiff.deriv1(k, path.t)
    sl = numdiff.interior(len(path), 2)
    res = 0.5 * kd[sl] ** 2 + 0.125 * k[sl] ** 4 + 0.5 * params.A * k[sl] ** 2 - params.B
    return float(np.max(np.abs(res)))


def fit_elastica_params(path):
    """Least-squares (A, B) fit of the energy form to a sampled track.

    Solves (A/2) kappa^2 - B = -(kappa'^2/2 + kappa^4/8) over interior
    samples.  Constant-curvature input makes the system rank deficient;
    the minimum-norm solution is returned in that case.
    """
    if len(path) < 5:
        raise DegenerateInputError("need at least 5 samples to fit")
    k = path.kappa
    kd = numdiff.deriv1(k, path.t)
    sl = numdiff.interior(len(path), 2)
    rows = np.stack([0.5 * k[sl] ** 2, -np.ones(k[sl].size)], axis=1)
    rhs = -(0.5 * kd[sl] ** 2 + 0.125 * k[sl] ** 4)
    # rcond keeps constant-curvature input at the minimum-norm solution
    (A, B), *_ = np.linalg.lstsq(rows, rhs, rcond=1e-6)
    mu = -2.0 * B / (A * A) if A != 0.0 else math.inf
    a2 = -2.0 * A - 1.0
    a = math.sqrt(a2) if a2 >= 0.0 else None
    return ElasticaParams(float(A), float(B), float(mu), a)


def strip_width(points, n_dir=720):
    """Brute-force width: infimum over directions of the projected extent.

    Independent oracle for the width measurements: scans directions on a
    half-circle grid and refines the minimum by parabolic interpolation.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be (n, 2)")
    phis = np.linspace(0.0, math.pi, n_dir, endpoint=False)
    dirs = np.stack([np.cos(phis), np.sin(phis)], axis=0)
    proj = points @ dirs
    extents = proj.max(axis=0) - proj.min(axis=0)
    j = int(np.argmin(extents))

    def extent_at(phi):
        u = np.array([math.cos(phi), math.sin(phi)])
        p = points @ u
        return float(p.max() - p.min())

    h = phis[1] - phis[0]
    e0 = extents[(j - 1) % n_dir]
    e1 = extents[j]
    e2 = extents[(j + 1) % n_dir]
    denom = e0 - 2.0 * e1 + e2
    if denom > 0:
        s = float(np.clip(0.5 * (e0 - e2) / denom, -1.0, 1.0))
        return extent_at(phis[j] + s * h)
    return float(e1)
