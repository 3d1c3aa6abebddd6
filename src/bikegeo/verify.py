"""Property-verification suites.

Every quantitative property of the library is packaged as a check
function returning (ok, detail); ``SUITES`` lists the check functions
of each suite, mirroring the module layout, and a check's name is its
function name without ``check_``.  The command-line ``verify``
subcommand runs them and the acceptance tests assert them
individually.  All randomness is seeded, so every check is
deterministic.
"""

import contextlib
import filecmp
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import analysis, cli, closed_forms, holonomy, io as pathio, metriclines
from . import integrate as geo
from .core import (ConfigPoint, RigidMotion, act, default_horizontality_tol,
                   dilate_path, flip, flip_path, horizontality_residuals,
                   normalize_angles, path_length, to_st_model, from_st_model)
from . import numdiff
from .errors import BikeGeoError

WIDE_GRID = (0.3, 0.5, 0.8)
NARROW_GRID = (1.5, 2.0, 4.0)
RESIDUAL_GRID = (0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0)
SHORTCUT_GRID = (0.2, 0.5, 0.8, 1.5, 2.0, 4.0)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str
    seconds: float


def _random_unit_speed_states(rng, n):
    """Random cotangent states with H = 1/2 to rounding."""
    states = []
    for _ in range(n):
        alpha = rng.uniform(-math.pi, math.pi)
        ptheta = rng.uniform(-1.5, 1.5)
        theta = rng.uniform(-math.pi, math.pi)
        x, y = rng.uniform(-2, 2, size=2)
        p1, p2 = math.cos(alpha), math.sin(alpha)
        px = p1 + math.sin(theta) * ptheta
        py = p2 - math.cos(theta) * ptheta
        states.append(geo.CotangentState(x, y, theta, px, py, ptheta))
    return states


def _random_immersed_track(rng):
    """Random C^2 spline front track through 8 control points, rejecting
    near-cusps (a speed below a quarter of the mean)."""
    for _ in range(64):
        pts = np.cumsum(rng.normal(0.0, 3.0 / 8, size=(8, 2)), axis=0)
        u = np.linspace(0.0, 1.0, 8)
        sp = CubicSpline(u, pts, axis=0)
        track = geo.FrontTrackSpec.from_spline(sp, 0.0, 1.0)
        tt = np.linspace(0.0, 1.0, 2001)
        d = track.derivative(tt)
        speed = np.hypot(d[:, 0], d[:, 1])
        if speed.min() > 0.25 * speed.mean():
            return track
    raise RuntimeError("could not draw an immersed random track")


def _spline_from_path(path, knot_stride=10):
    """Arc-length front-track spec interpolating a sampled path (knots
    thinned to keep the spline's C^2 breaks sparse relative to
    integration steps)."""
    idx = np.arange(0, len(path), knot_stride)
    if idx[-1] != len(path) - 1:
        idx = np.append(idx, len(path) - 1)
    sp = CubicSpline(path.t[idx], path.front[idx], axis=0)
    return geo.FrontTrackSpec.from_spline(sp, float(path.t[0]), float(path.t[-1]),
                                          arc_length=True)


def _wide_narrow_paths():
    """Canonical geodesics on the width grid, batched on one time grid."""
    grid = WIDE_GRID + NARROW_GRID
    states = [geo.canonical_vertex_state(a) for a in grid]
    paths = geo.integrate_geodesics(states, 25.0, 1e-3)
    return dict(zip(grid, paths))


# ---------------------------------------------------------------------------
# core

def check_flip_involution():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        p = ConfigPoint(rng.uniform(-40, 40), rng.uniform(-40, 40),
                        rng.uniform(-math.pi, math.pi))
        ell = rng.uniform(0.3, 3.0)
        q = flip(flip(p, ell), ell)
        worst = max(worst, q.gap(p, max(1.0, abs(p.x), abs(p.y))))
    path = geo.integrate_geodesic(geo.canonical_vertex_state(0.6), 10.0)
    pp = flip_path(flip_path(path))
    worst = max(worst, float(np.max(np.abs(pp.front - path.front))),
                float(np.max(np.abs(normalize_angles(pp.theta - path.theta)))))
    tol = 64 * np.finfo(float).eps
    return worst <= tol, f"max involution defect {worst:.2e} (tol {tol:.1e})"


def check_flip_residual_slack():
    path = geo.integrate_geodesic(geo.canonical_vertex_state(0.5), 20.0)
    r_in = float(horizontality_residuals(path).max())
    flipped = flip_path(path)
    r_out = float(horizontality_residuals(flipped).max())
    bound = 2.0 * r_in + default_horizontality_tol(path)
    return r_out <= bound, f"residual {r_out:.2e} <= 2*{r_in:.2e} + floor"


def check_length_isometry():
    rng = np.random.default_rng(11)
    path = geo.integrate_geodesic(geo.canonical_vertex_state(0.5), 30.0)
    oriented, _ = analysis.canonical_orient(path)
    T, _L = analysis.period_and_advance(oriented)
    n_periods = int(path.t[-1] / T)
    # cut to an integer number of curvature periods so the flip's phase
    # shift cannot bias the chord-sum length
    n = int(round(n_periods * T / (path.t[1] - path.t[0])))
    cut = geo.integrate_geodesic(geo.canonical_vertex_state(0.5), n_periods * T,
                                 (n_periods * T) / n)
    base = path_length(cut)
    worst = abs(path_length(flip_path(cut)) - base) / base
    for _ in range(5):
        g = RigidMotion(rng.uniform(-math.pi, math.pi), tuple(rng.uniform(-5, 5, 2)),
                        1 if rng.uniform() < 0.5 else -1)
        worst = max(worst, abs(path_length(act(g, cut)) - base) / base)
    return worst <= 1e-9, f"worst relative length change {worst:.2e} (tol 1e-9)"


def check_act_composition():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        g = RigidMotion(rng.uniform(-4, 4), tuple(rng.uniform(-3, 3, 2)),
                        1 if rng.uniform() < 0.5 else -1)
        h = RigidMotion(rng.uniform(-4, 4), tuple(rng.uniform(-3, 3, 2)),
                        1 if rng.uniform() < 0.5 else -1)
        p = ConfigPoint(rng.uniform(-3, 3), rng.uniform(-3, 3),
                        rng.uniform(-math.pi, math.pi))
        worst = max(worst, act(g.compose(h), p).gap(act(g, act(h, p))))
    return worst <= 1e-12, f"worst composition defect {worst:.2e} (tol 1e-12)"


def check_st_roundtrip():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(500):
        r = rng.uniform(0, 1000)
        ang = rng.uniform(-math.pi, math.pi)
        p = ConfigPoint(r * math.cos(ang), r * math.sin(ang),
                        rng.uniform(-math.pi, math.pi))
        ell = rng.uniform(0.2, 4.0)
        b, v = to_st_model(p, ell)
        q = from_st_model(b, v, ell)
        worst = max(worst, q.gap(p, max(1.0, abs(p.x), abs(p.y))))
    return worst <= 1e-15, f"worst relative roundtrip error {worst:.2e} (tol 1e-15)"


# ---------------------------------------------------------------------------
# integrate

def check_energy_conservation():
    states = _random_unit_speed_states(np.random.default_rng(23), 20)
    paths = [geo.rk4_geodesic(s, 100.0, 1e-3) for s in states]
    worst = 0.0
    for s, p in zip(states, paths):
        h0 = s.hamiltonian()
        worst = max(worst, p.drift + abs(h0 - 0.5))
    return worst <= 1e-9, f"max |H - 1/2| = {worst:.2e} over t in [0,100] (tol 1e-9)"


def check_momenta_constant():
    rng = np.random.default_rng(29)
    for s in _random_unit_speed_states(rng, 50):
        d = geo.hamiltonian_rhs(s)
        if d[3] != 0.0 or d[4] != 0.0:
            return False, f"nonzero momentum derivative {d[3]!r}, {d[4]!r}"
    return True, "px', py' identically 0.0; the stepper never updates them"


def check_curvature_is_momentum():
    states = _random_unit_speed_states(np.random.default_rng(31), 5)
    paths = [geo.rk4_geodesic(s, 20.0, 1e-3) for s in states]
    worst = 0.0
    for p in paths:
        kfd = numdiff.curvature_from_track(p.front, p.t)
        sl = numdiff.interior(len(p), 2)
        worst = max(worst, float(np.max(np.abs(kfd[sl] - p.kappa[sl]))))
    return worst <= 1e-5, f"max |kappa_fd - ptheta| = {worst:.2e} (tol 1e-5)"


def check_unit_speed_constraint():
    worst = 0.0
    for a in (0.0, 0.3, 0.7, 1.0, 2.0, 4.0):
        if a == 0.0:
            s = geo.ReducedState(0.0, 0.0, 0.0, 1.0, 0.0)
        else:
            s = geo.canonical_vertex_state(a)
        p = geo.rk4_geodesic(s, 20.0, 1e-3)
        dth = numdiff.deriv1_uniform(p.theta, p.t[1] - p.t[0])
        sl = numdiff.interior(len(p), 2)
        g = dth[sl] ** 2 + a**2 * np.cos(p.theta[sl]) ** 2
        worst = max(worst, float(np.max(np.abs(g - 1.0))))
    return worst <= 1e-8, f"max |theta'^2 + a^2 cos^2 - 1| = {worst:.2e} (tol 1e-8)"


def check_reduced_full_agreement():
    states = _random_unit_speed_states(np.random.default_rng(37), 5)
    worst = 0.0
    for s in states:
        full = geo.rk4_geodesic(s, 20.0, 1e-3)
        red_state, g = geo.canonicalize(s)
        red = geo.rk4_geodesic(red_state, 20.0, 1e-3)
        back = act(g.inverse(), red)
        worst = max(worst,
                    float(np.max(np.abs(back.front - full.front))),
                    float(np.max(np.abs(back.theta - full.theta))),
                    float(np.max(np.abs(back.kappa - full.kappa))))
    return worst <= 1e-7, f"max reduced-vs-full deviation {worst:.2e} (tol 1e-7)"


def check_rk4_order():
    s = geo.canonical_vertex_state(0.7)
    t_end = 5.0

    def endpoint(h):
        p = geo.rk4_geodesic(s, t_end, h)
        return np.array([p.front[-1, 0], p.front[-1, 1], p.theta[-1], p.kappa[-1]])

    ref = endpoint(1e-3 / 8.0)
    e1 = float(np.max(np.abs(endpoint(8e-3) - ref)))
    e2 = float(np.max(np.abs(endpoint(4e-3) - ref)))
    ratio = e1 / e2 if e2 > 0 else math.inf
    return ratio >= 12.0, f"halving the step shrank the error {ratio:.1f}x (need >= 12)"


def check_exact_geodesic_matches_rk4():
    """The closed-form geodesic against RK4 at step 1e-3 over [0, 25]:
    the width grid, random cotangent states (some with kappa < 0), and
    the same at frame length 1.7.  RK4's own error there is <= 2.4e-10."""
    randoms = _random_unit_speed_states(np.random.default_rng(59), 5)
    worst = 0.0
    for ell in (1.0, 1.7):
        # vertex states in physical units: curvature scales as 1/ell
        states = [geo.ReducedState(0.0, 0.0, 0.5 * math.pi, (1.0 + a) / ell, a)
                  for a in WIDE_GRID + NARROW_GRID]
        for s in states + randoms:
            p = geo.integrate_geodesic(s, 25.0, 1e-3, ell)
            q = geo.rk4_geodesic(s, 25.0, 1e-3, ell)
            worst = max(worst, float(np.max(np.abs(p.front - q.front))),
                        float(np.max(np.abs(p.theta - q.theta))),
                        float(np.max(np.abs(p.kappa - q.kappa))))
    n_neg = sum(s.ptheta < 0.0 for s in randoms)
    return worst <= 1e-8, (f"max closed-form vs RK4 gap {worst:.2e} (tol 1e-8) "
                           f"over {len(states) + len(randoms)} states "
                           f"({n_neg} with kappa < 0) at ell = 1 and 1.7")


# ---------------------------------------------------------------------------
# analysis

def check_elastica_residual_grid():
    states = [geo.soliton_vertex_state() if a == 1.0 else geo.canonical_vertex_state(a)
              for a in RESIDUAL_GRID]
    paths = geo.integrate_geodesics(states, 50.0, 1e-3)
    worst = 0.0
    for a, p in zip(RESIDUAL_GRID, paths):
        r = analysis.energy_residual(p, analysis.ElasticaParams.from_momentum(a))
        worst = max(worst, r)
    return worst <= 1e-6, f"max energy-form residual {worst:.2e} on a-grid (tol 1e-6)"


def _expected_back_width(a):
    if a <= 1.0:
        return (1.0 - math.sqrt(1.0 - a * a)) / a
    return 2.0 / a


def check_widths():
    paths = _wide_narrow_paths()
    worst = 0.0
    for a, p in paths.items():
        oriented, _ = analysis.canonical_orient(p)
        fw = analysis.front_width(oriented)
        bw = analysis.back_width(oriented)
        fw_ref = 2.0 if a <= 1.0 else 2.0 / a
        bw_ref = _expected_back_width(a)
        worst = max(worst, abs(fw - fw_ref), abs(bw - bw_ref))
    return worst <= 1e-4, f"max width error {worst:.2e} (tol 1e-4)"


def check_vertex_angles():
    paths = _wide_narrow_paths()
    worst = 0.0
    for a, p in paths.items():
        oriented, _ = analysis.canonical_orient(p)
        report = analysis.find_vertices(oriented)
        for v in report.maxima():
            worst = max(worst, abs(v.theta - 0.5 * math.pi))
        want_min = -0.5 * math.pi if a < 1.0 else 0.5 * math.pi
        for v in report.minima():
            worst = max(worst, abs(v.theta - want_min))
    return worst <= 1e-4, f"max vertex-angle deviation {worst:.2e} (tol 1e-4)"


def check_curvature_extremes():
    paths = _wide_narrow_paths()
    worst = 0.0
    for a, p in paths.items():
        report = analysis.find_vertices(p)
        kmax = max(v.kappa for v in report.maxima())
        kmin = min(v.kappa for v in report.minima())
        worst = max(worst, abs(kmax - (1.0 + a)), abs(kmin - abs(1.0 - a)))
    return worst <= 1e-5, f"max curvature-extreme error {worst:.2e} (tol 1e-5)"


def _flip_structure_deviation(a):
    """Worst pointwise gap between the flipped front track and the
    translated (wide) or glide-reflected (narrow) original."""
    p = geo.integrate_geodesic(geo.canonical_vertex_state(a), 30.0, 1e-3)
    T, L = analysis.period_and_advance(p)
    flipped = flip_path(p)
    tq = p.t[(p.t + 0.5 * T) <= p.t[-1]]
    ref = p.front_at(tq + 0.5 * T) - np.array([0.5 * L, 0.0])
    if a > 1.0:
        y_d = -(1.0 + a) / a  # directrix height of the canonical pose
        ref = np.stack([ref[:, 0], 2.0 * y_d - ref[:, 1]], axis=1)
    got = flipped.front[: tq.size]
    return float(np.max(np.abs(got - ref)))


def check_flip_structure():
    wide = _flip_structure_deviation(0.5)
    narrow = _flip_structure_deviation(2.0)
    worst = max(wide, narrow)
    return worst <= 1e-4, (f"flip vs translation (wide) {wide:.2e}, "
                           f"vs glide reflection (narrow) {narrow:.2e} (tol 1e-4)")


def check_dilation_covariance():
    p = geo.integrate_geodesic(geo.canonical_vertex_state(0.7), 40.0, 1e-3)
    base = analysis.fit_elastica_params(p)
    worst_ab = 0.0
    worst_mu = 0.0
    for lam in (0.5, 2.0):
        fit = analysis.fit_elastica_params(dilate_path(p, lam))
        worst_ab = max(worst_ab,
                       abs(fit.A - base.A / lam**2) / abs(base.A / lam**2),
                       abs(fit.B - base.B / lam**4) / abs(base.B / lam**4))
        worst_mu = max(worst_mu, abs(fit.mu - base.mu))
    ok = worst_ab <= 1e-4 and worst_mu <= 1e-6
    return ok, (f"(A,B) rescale off by {worst_ab:.2e} rel (tol 1e-4), "
                f"mu drift {worst_mu:.2e} (tol 1e-6)")


def check_classify_grid():
    """Taxonomy tags agree with labels brute-forced from path statistics."""
    a_grid = np.concatenate([np.linspace(0.05, 0.9, 25), np.linspace(1.1, 4.0, 25)])
    states = [geo.canonical_vertex_state(a) for a in a_grid]
    paths = geo.integrate_geodesics(states, 40.0, 2e-3)
    bad = []
    for a, p in zip(a_grid, paths):
        k = p.kappa
        kmax, kmin = float(k.max()), float(k.min())
        if kmax - kmin < 1e-6:
            label = analysis.LINE if abs(kmax) < 1e-6 else analysis.CIRCLE
        elif abs(kmax + kmin - 2.0) < 1e-2:
            label = analysis.WIDE_NIE
        elif abs(kmax - kmin - 2.0) < 1e-2:
            label = analysis.NARROW_NIE
        else:
            label = analysis.SOLITON
        tag = analysis.classify(a, 1.0 + a).tag
        if tag != label:
            bad.append((float(a), tag, label))
    return not bad, (f"{len(a_grid) - len(bad)}/{a_grid.size} brute-force labels agree"
                     + (f"; mismatches {bad[:3]}" if bad else ""))


def check_width_is_strip_infimum():
    """Extent perpendicular to the directrix equals the direction-infimum width."""
    paths = _wide_narrow_paths()
    worst = 0.0
    for a, p in paths.items():
        oriented, _ = analysis.canonical_orient(p)
        T, _L = analysis.period_and_advance(oriented)
        mask = oriented.t <= oriented.t[0] + 2.0 * T
        yext = analysis.front_width(oriented)
        brute = analysis.strip_width(oriented.front[mask])
        worst = max(worst, abs(yext - brute))
    return worst <= 1e-4, f"max |y-extent - strip infimum| = {worst:.2e} (tol 1e-4)"


# ---------------------------------------------------------------------------
# closed forms

def check_flip_identity_exact():
    t = np.linspace(-30.0, 30.0, 4001)
    for ell in (0.5, 1.0, 2.0):
        tr = closed_forms.tractrix_point(t, 1.0, ell)
        so = closed_forms.soliton_point(t, 1.0, ell)
        line = np.stack([t, np.zeros_like(t)], axis=1)
        gap = np.max(np.abs(2.0 * tr - line - so))
        if gap > 1e-15:
            return False, f"2*tractrix - line vs soliton differ by {gap:.2e}"
    return True, "2*tractrix - line = soliton to 1e-15"


def check_closed_form_widths():
    for ell in (0.5, 1.0, 2.0):
        t = np.linspace(-40.0 * ell, 40.0 * ell, 20001)
        ytr = closed_forms.tractrix_point(t, 0.0, ell)[:, 1]
        yso = closed_forms.soliton_point(t, 0.0, ell)[:, 1]
        wt = float(ytr.max() - ytr.min())
        ws = float(yso.max() - yso.min())
        if not (ell - 1e-6 <= wt <= ell) or not (2 * ell - 1e-6 <= ws <= 2 * ell):
            return False, f"widths {wt:.8f}, {ws:.8f} out of band at ell={ell}"
    return True, "tractrix width = ell, soliton width = 2*ell (within 1e-6)"


def check_lift_matches_closed_forms():
    ell, t0 = 1.0, 12.0
    track = geo.FrontTrackSpec.line(0.0, 24.0)
    theta0 = float(closed_forms.line_lift_theta(0.0, t0, ell))
    lift = geo.horizontal_lift(track, theta0, ell, 1e-3)
    tr_ref = closed_forms.tractrix_point(lift.t, t0, ell)
    back_err = float(np.max(np.abs(lift.back - tr_ref)))
    flipped = flip_path(lift)
    so_ref = closed_forms.soliton_point(lift.t, t0, ell)
    front_err = float(np.max(np.abs(flipped.front - so_ref)))
    apex_err = abs(float(flipped.front[:, 1].max()) - 2.0 * ell)
    worst = max(back_err, front_err, apex_err)
    return worst <= 1e-6, (f"tractrix {back_err:.2e}, soliton {front_err:.2e}, "
                           f"apex {apex_err:.2e} (tol 1e-6)")


def check_soliton_arclength_and_profile():
    t = np.arange(-20.0, 20.0 + 1e-9, 1e-3)
    s = closed_forms.soliton_arclength(t, 0.0, 1.0)
    ident = float(np.max(np.abs(s - (t - t[0]))))
    pts = closed_forms.soliton_point(t, 0.0, 1.0)
    stride = 20  # differentiate at 0.02 spacing to keep roundoff down
    kfd = numdiff.curvature_from_track(pts[::stride], t[::stride])
    kref = closed_forms.soliton_curvature(t[::stride], 0.0, 1.0)
    sl = numdiff.interior(kfd.size, 2)
    prof = float(np.max(np.abs(kfd[sl] - kref[sl])))
    ok = ident <= 1e-8 and prof <= 1e-5
    return ok, (f"arc length vs parameter {ident:.2e} (tol 1e-8), "
                f"curvature profile {prof:.2e} (tol 1e-5)")


def check_line_lift_theta_ode():
    t = np.arange(-10.0, 10.0 + 1e-9, 1e-3)
    worst = 0.0
    for ell in (0.5, 1.0, 2.0):
        th = closed_forms.line_lift_theta(t, 0.3, ell)
        dth = numdiff.deriv1_uniform(th, t[1] - t[0])
        sl = numdiff.interior(t.size, 2)
        worst = max(worst, float(np.max(np.abs(ell * dth[sl] + np.sin(th[sl])))))
    return worst <= 1e-9, f"max |ell*theta' + sin(theta)| = {worst:.2e} (tol 1e-9)"


def check_soliton_geodesic_matches_closed_form():
    p = geo.rk4_geodesic(geo.soliton_vertex_state(), 25.0, 1e-3)
    ref = closed_forms.soliton_point(p.t, 0.0, 1.0)
    gap = float(np.max(np.abs(p.front - ref)))
    return gap <= 1e-6, f"geodesic front vs soliton closed form {gap:.2e} (tol 1e-6)"


def check_period_advance_exact():
    worst = 0.0
    for a, p in _wide_narrow_paths().items():
        oriented, _ = analysis.canonical_orient(p)
        T, L = analysis.period_and_advance(oriented)
        T_ref, L_ref = closed_forms.elliptic_period_advance(a)
        worst = max(worst, abs(T - T_ref), abs(L - L_ref))
    return worst <= 1e-6, (f"measured (T, L) vs elliptic closed form {worst:.2e} "
                           f"on the width grid (tol 1e-6)")


# ---------------------------------------------------------------------------
# holonomy

def _theta_rk4(track, thetas, step=2e-4):
    """Final frame angles from RK4 on the nonlinear theta equation (ell = 1).

    An oracle independent of the lift's 2x2 matrix product, so the fiber
    checks below test the Moebius property of the transport itself (RK4
    on theta keeps it only to the order of the scheme) and the lift
    against it.  The track's derivative is sampled once on the grid and
    once on the half grid; each angle is then stepped on Python floats.
    """
    n, h = geo._grid(track.t1 - track.t0, step)
    t = track.t0 + np.arange(n + 1) * h
    xs, ys = np.asarray(track.derivative(t), dtype=float).T.tolist()
    xm, ym = np.asarray(track.derivative(t[:-1] + 0.5 * h), dtype=float).T.tolist()
    sin, cos = math.sin, math.cos
    hh, h6 = 0.5 * h, h / 6.0
    out = []
    for th in np.asarray(thetas, dtype=float).tolist():
        for x0, y0, x2, y2, x4, y4 in zip(xs, ys, xm, ym, xs[1:], ys[1:]):
            k1 = cos(th) * y0 - sin(th) * x0
            s = th + hh * k1
            k2 = cos(s) * y2 - sin(s) * x2
            s = th + hh * k2
            k3 = cos(s) * y2 - sin(s) * x2
            s = th + h * k3
            k4 = cos(s) * y4 - sin(s) * x4
            th = th + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(th)
    return np.array(out)


def _lift_gap(track, thetas, oracle, step=2e-4):
    """Worst gap between the library lift and the theta-RK4 oracle."""
    _t, th = geo.lift_frame_angles(track, thetas, 1.0, step)
    return float(np.max(np.abs(th[-1] - oracle)))


def check_transport_monotone():
    rng = np.random.default_rng(41)
    track = _random_immersed_track(rng)
    thetas = np.linspace(-math.pi, math.pi, 64, endpoint=False) + 0.01
    out = _theta_rk4(track, thetas)
    monotone = bool(np.all(np.diff(out) > 0))
    # degree 1: transporting theta + 2*pi lands exactly 2*pi higher
    out2 = _theta_rk4(track, thetas[:4] + 2 * math.pi)
    wrap_gap = float(np.max(np.abs(out2 - out[:4] - 2 * math.pi)))
    lift_gap = _lift_gap(track, thetas, out)
    ok = monotone and wrap_gap < 1e-9 and lift_gap <= 1e-9
    return ok, (f"strictly monotone: {monotone}; degree-1 wrap gap "
                f"{wrap_gap:.2e} (tol 1e-9); lift vs theta-RK4 "
                f"{lift_gap:.2e} (tol 1e-9)")


def check_transport_composition_reparam():
    rng = np.random.default_rng(43)
    track = _random_immersed_track(rng)
    theta0 = 0.37
    whole = holonomy.transport(track, theta0, 1.0, 1e-4)
    half1 = geo.FrontTrackSpec(track.curve, track.derivative, 0.0, 0.5)
    half2 = geo.FrontTrackSpec(track.curve, track.derivative, 0.5, 1.0)
    mid = holonomy.transport(half1, theta0, 1.0, 1e-4)
    two = holonomy.transport(half2, mid, 1.0, 1e-4)
    comp_gap = abs(two - whole)

    # strictly increasing reparametrization of the same curve
    def phi(s):
        s = np.asarray(s, dtype=float)
        return (np.exp(s) - 1.0) / (math.e - 1.0)

    def dphi(s):
        return np.exp(np.asarray(s, dtype=float)) / (math.e - 1.0)

    re_track = geo.FrontTrackSpec(
        curve=lambda s: track.curve(phi(s)),
        derivative=lambda s: track.derivative(phi(s)) * dphi(s)[..., None],
        t0=0.0, t1=1.0)
    re = holonomy.transport(re_track, theta0, 1.0, 1e-4)
    re_gap = abs(re - whole)
    ok = comp_gap <= 1e-8 and re_gap <= 1e-8
    return ok, (f"composition gap {comp_gap:.2e}, reparametrization gap "
                f"{re_gap:.2e} (tol 1e-8)")


def _mobius_residual(track, step):
    thetas = np.linspace(-math.pi, math.pi, 12, endpoint=False) + 0.05
    out = _theta_rk4(track, thetas, step)
    samples = [holonomy.TransportSample(a, b) for a, b in zip(thetas, out)]
    _mob, resid = holonomy.fit_mobius(samples)
    return resid, _lift_gap(track, thetas, out, step)


def check_mobius_universal():
    rng = np.random.default_rng(47)
    worst = gap = 0.0
    tracks = [(_random_immersed_track(rng), 2e-4) for _ in range(10)]
    tracks.append((geo.FrontTrackSpec.circle(1.3, 0.0, 5.0), 1e-3))
    front = geo.integrate_geodesic(geo.canonical_vertex_state(0.6), 8.0, 1e-3)
    tracks.append((_spline_from_path(front), 1e-3))
    for track, step in tracks:
        resid, lift_gap = _mobius_residual(track, step)
        worst, gap = max(worst, resid), max(gap, lift_gap)
    ok = worst <= 1e-6 and gap <= 1e-9
    return ok, (f"max Moebius fit residual {worst:.2e} (tol 1e-6); "
                f"lift vs theta-RK4 {gap:.2e} (tol 1e-9)")


def check_cross_ratio_preserved():
    rng = np.random.default_rng(53)
    probe = np.array([-2.0, -0.7, 0.5, 1.8])
    worst = gap = 0.0
    for _ in range(10):
        track = _random_immersed_track(rng)
        out = _theta_rk4(track, probe)
        cr_in = holonomy.cross_ratio_angles(probe)
        cr_out = holonomy.cross_ratio_angles(normalize_angles(out))
        worst = max(worst, abs(cr_in - cr_out))
        gap = max(gap, _lift_gap(track, probe, out))
    ok = worst <= 1e-6 and gap <= 1e-9
    return ok, (f"max cross-ratio drift {worst:.2e} (tol 1e-6); "
                f"lift vs theta-RK4 {gap:.2e} (tol 1e-9)")


def check_correspondent_involution():
    # arc-length-parametrized base curve keeps both correspondents on the
    # same sample grid, so the comparison needs no interpolation
    base = geo.integrate_geodesic(geo.canonical_vertex_state(0.6), 8.0, 1e-3)
    spec1 = _spline_from_path(base, knot_stride=5)
    lift = geo.horizontal_lift(spec1, 0.8, 1.0, 1e-3)
    corr = flip_path(lift)
    spec2 = _spline_from_path(corr, knot_stride=5)
    corr2 = holonomy.correspondent(spec2, float(corr.theta[0]), 1.0, 1e-3)
    gap = float(np.max(np.abs(corr2.front - lift.front)))
    return gap <= 1e-8, f"double correspondent returns the front track to {gap:.2e}"


def check_pressurized():
    circ = geo.FrontTrackSpec.circle(1.0, 0.0, 4.0 * math.pi)
    corr = holonomy.correspondent(circ, 0.7, 1.0, 1e-3)
    a_c, c_c, res_c = holonomy.pressurized_fit(corr)
    t = np.arange(-20.0, 20.0 + 1e-9, 1e-3)
    sol = closed_forms.soliton_point(t, 0.0, 1.0)
    a_s, c_s, res_s = holonomy.pressurized_fit(sol, t - t[0])
    ok = (res_c <= 1e-5 and abs(c_c) > 1e-3
          and res_s <= 1e-5 and abs(c_s) <= 1e-5 and abs(a_s + 1.0) < 1e-3)
    return ok, (f"circle correspondent: residual {res_c:.2e}, C={c_c:.4f}; "
                f"soliton: residual {res_s:.2e}, C={c_s:.2e}, A={a_s:.6f}")


def check_correspondent_of_line():
    track = geo.FrontTrackSpec.line(0.0, 24.0)
    theta0 = float(closed_forms.line_lift_theta(0.0, 12.0, 1.0))
    corr = holonomy.correspondent(track, theta0, 1.0, 1e-3)
    ref = closed_forms.soliton_point(corr.t, 12.0, 1.0)
    gap = float(np.max(np.abs(corr.front - ref)))
    return gap <= 1e-6, f"line correspondent vs soliton {gap:.2e} (tol 1e-6)"


# ---------------------------------------------------------------------------
# metric lines

def check_threshold_arithmetic():
    if metriclines.shortcut_threshold(2.0, 1.0, 1.0) != 4:
        return False, "threshold(T=2, L=1, ell=1) != 4"
    rng = np.random.default_rng(61)
    for _ in range(200):
        T = rng.uniform(0.5, 10.0)
        L = rng.uniform(0.01, 0.99) * T
        ell = rng.uniform(0.2, 3.0)
        n = metriclines.shortcut_threshold(T, L, ell)
        if not (math.pi * ell + n * L < n * T):
            return False, f"threshold N={n} does not beat the geodesic"
        if n > 1 and math.pi * ell + (n - 1) * L < (n - 1) * T:
            return False, f"threshold N={n} is not minimal"
    try:
        metriclines.shortcut_threshold(1.0, 1.5, 1.0)
        return False, "L >= T accepted"
    except BikeGeoError:
        pass
    return True, "floor(pi*ell/(T-L)) + 1 is the minimal winning N"


def check_shortcut_grid():
    """The shortcut beats the geodesic on SHORTCUT_GRID, and RK4 run from
    the canonical vertex over N*T lands on the shortcut's end."""
    details = []
    for a in SHORTCUT_GRID:
        report, _g, cut = metriclines.shortcut_analysis(a)
        if report.L >= report.T:
            return False, f"a={a}: L >= T"
        if report.margin < 1e-3:
            return False, f"a={a}: margin {report.margin:.2e} below 1e-3"
        res = float(horizontality_residuals(cut).max())
        if res > default_horizontality_tol(cut):
            return False, f"a={a}: shortcut not horizontal ({res:.2e})"
        rk4 = geo.rk4_geodesic(geo.canonical_vertex_state(a),
                               report.N_star * report.T)
        err = cut.config(len(cut) - 1).gap(rk4.config(len(rk4) - 1))
        if err > 1e-4:
            return False, f"a={a}: RK4 endpoint gap {err:.2e} (tol 1e-4)"
        details.append(f"a={a}: N*={report.N_star} margin={report.margin:.3f} "
                       f"gap={err:.1e}")
    return True, "; ".join(details)


def check_metric_line_candidates():
    tags = [
        (analysis.classify(1.0, 0.0), True),    # line
        (analysis.classify(1.0, 2.0), True),    # soliton
        (analysis.classify(0.5, 1.5), False),
        (analysis.classify(2.0, 3.0), False),
        (analysis.classify(0.0, 1.0), False),   # circle
    ]
    for cls, want in tags:
        if metriclines.is_metric_line_candidate(cls) != want:
            return False, f"{cls.tag} misjudged as metric-line candidate"
    return True, "only lines and solitons are candidates"


# ---------------------------------------------------------------------------
# io / cli

def check_csv_roundtrip():
    p = geo.integrate_geodesic(geo.canonical_vertex_state(0.5), 2.0, 1e-3)
    text = pathio.path_to_csv(p)
    q = pathio.path_from_csv(text)
    exact = all(np.array_equal(getattr(p, k), getattr(q, k))
                for k in ("t", "front", "theta", "kappa"))
    ell_err = abs(p.ell - q.ell)
    ok = exact and ell_err <= 4 * np.finfo(float).eps
    return ok, f"arrays bit-exact: {exact}; frame length off by {ell_err:.1e}"


def _quiet_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def check_cli_determinism():
    with tempfile.TemporaryDirectory() as d:
        f1 = os.path.join(d, "a.csv")
        f2 = os.path.join(d, "b.csv")
        argv = ["geodesic", "--a", "0.5", "--kappa0", "1.5",
                "--t-end", "2", "--step", "1e-3", "--format", "csv"]
        rc1, _ = _quiet_cli(argv + ["--output", f1])
        rc2, _ = _quiet_cli(argv + ["--output", f2])
        same = filecmp.cmp(f1, f2, shallow=False)
        rows = len(pathio.read_path_csv(f1))
    ok = rc1 == 0 and rc2 == 0 and same and rows == 2001
    return ok, f"repeat runs byte-identical: {same}; {rows} data rows"


def check_svg_presets():
    with tempfile.TemporaryDirectory() as d:
        for preset in cli.PLOT_PRESETS:
            out = os.path.join(d, preset + ".svg")
            rc, _ = _quiet_cli(["plot", "--preset", preset, "--output", out])
            if rc != 0:
                return False, f"preset {preset} exited {rc}"
            with open(out) as fh:
                body = fh.read()
            if "<svg" not in body or "polyline" not in body:
                return False, f"preset {preset} produced no drawing"
            again = os.path.join(d, preset + "-2.svg")
            _quiet_cli(["plot", "--preset", preset, "--output", again])
            if not filecmp.cmp(out, again, shallow=False):
                return False, f"preset {preset} not deterministic"
    return True, f"{len(cli.PLOT_PRESETS)} presets render deterministically"


SUITES = {
    "core": [
        check_flip_involution, check_flip_residual_slack,
        check_length_isometry, check_act_composition, check_st_roundtrip,
    ],
    "integrate": [
        check_energy_conservation, check_momenta_constant,
        check_curvature_is_momentum, check_unit_speed_constraint,
        check_reduced_full_agreement, check_rk4_order,
        check_exact_geodesic_matches_rk4,
    ],
    "analysis": [
        check_elastica_residual_grid, check_widths, check_vertex_angles,
        check_curvature_extremes, check_flip_structure,
        check_dilation_covariance, check_classify_grid,
        check_width_is_strip_infimum,
    ],
    "closed_forms": [
        check_flip_identity_exact, check_closed_form_widths,
        check_lift_matches_closed_forms, check_soliton_arclength_and_profile,
        check_line_lift_theta_ode, check_soliton_geodesic_matches_closed_form,
        check_period_advance_exact,
    ],
    "holonomy": [
        check_transport_monotone, check_transport_composition_reparam,
        check_mobius_universal, check_cross_ratio_preserved,
        check_correspondent_involution, check_pressurized,
        check_correspondent_of_line,
    ],
    "metriclines": [
        check_threshold_arithmetic, check_shortcut_grid,
        check_metric_line_candidates,
    ],
    "cli_io": [
        check_csv_roundtrip, check_cli_determinism, check_svg_presets,
    ],
}


def run_suites(names=None):
    """Run the named suites, each once; all of them by default or when
    'all' is named.  Unknown names raise ValueError before any check
    runs.  Returns the CheckResult list."""
    if names is None or "all" in names:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {', '.join(map(repr, unknown))}; "
                         f"choose from {', '.join(['all', *SUITES])}")
    results = []
    for suite in dict.fromkeys(names):
        for fn in SUITES[suite]:
            start = time.perf_counter()
            try:
                ok, detail = fn()
            except Exception as exc:  # a crashed check is a failed check
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            name = fn.__name__.removeprefix("check_")
            results.append(CheckResult(suite, name, bool(ok), detail,
                                       time.perf_counter() - start))
    return results


def format_results(results):
    """Fixed-width summary table."""
    lines = []
    width = max((len(f"{r.suite}.{r.name}") for r in results), default=20)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{status}  {f'{r.suite}.{r.name}':<{width}}  "
                     f"{r.seconds:7.2f}s  {r.detail}")
    n_ok = sum(r.ok for r in results)
    lines.append(f"{n_ok}/{len(results)} checks passed")
    return "\n".join(lines)
