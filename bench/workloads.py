"""Seeded workloads: generated inputs, ops, and the oracles that check them.

Each workload turns a seed into a fixed job list.  A job's ``run`` calls
the library through module attributes (so a tracer's wrappers see it)
and returns what the library produced; its ``check`` compares that
output with references computed here, outside the library's timed
code, and returns ``(errors, problems)``: error magnitudes keyed by the
names in :data:`TOLERANCES`, and contract misses as strings.

Workloads and why each was chosen:

geodesic_survey
    Batched geodesic RK4 (``integrate_geodesics``) plus the elastica
    diagnostics of ``analysis``; no lift, no I/O.
fiber_transport
    The frame-transport loop (``lift_frame_angles``) on whole fibers and
    on single angles, plus the Moebius fits of ``holonomy``; never the
    geodesic RK4.  Rides are 8 frame lengths: on hyperbolic tracks the
    transport contracts the fiber like exp(-s/ell), and rides much past
    12 frame lengths collapse it to roundoff, where ``fit_mobius``
    raises its documented ``RankDeficiencyError`` and the outcome would
    depend on rounding rather than on the code.  Circle radii are 2 to 3
    frame lengths: ``pressurized_fit`` differentiates twice at a fixed
    spacing, and on tighter circles its residual exceeds 1e-5 (about
    2e-5 at r = ell, 1.5e-4 at r = ell/2).
cli_session
    ``cli.main`` in process on a seeded command mix: single-state
    geodesics, CSV written and read back, SVG, the shortcut of
    ``metriclines``, and two contract ops whose documented result is
    exit code 1 with one JSON error line.
"""

import contextlib
import hashlib
import io as _io
import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import ellipe, ellipk

import bikegeo
import bikegeo.cli
from bikegeo import analysis, closed_forms, holonomy
from bikegeo import integrate as geo
from bikegeo import io as pathio

#: the repository's pinned tolerances, one per oracle
TOLERANCES = {
    "drift": 1e-9,                 # conservation over the run
    "energy_residual": 1e-6,       # elastica energy form
    "fit_A": 1e-6,                 # fitted A against -(a^2+1)/2
    "period_advance": 1e-6,        # (T, L) against the elliptic closed form
    "width": 1e-4,                 # front width 2 (wide) or 2/a (narrow)
    "mobius_residual": 1e-6,
    "cross_ratio_drift": 1e-6,
    "pressurized_residual": 1e-5,  # in frame-length units
    "soliton_gap": 1e-6,           # line correspondent against the soliton
    "tractrix_gap": 1e-6,          # line lift's back track against the tractrix
    "scalar_vs_fiber_lift": 1e-9,  # one-angle lift against its fiber column
    "shared_back_track": 1e-9,     # a flip keeps the back track
    "circle_radius": 1e-9,         # correspondent's partner rides the circle
    "classify_coeffs": 1e-12,      # printed A, B against the formulas
    "shortcut_length": 1e-9,       # pi*ell + N*L, as printed and as sampled
}

@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    contract: bool = False


def elliptic_period_advance(a):
    """(T, L) of the geodesic with momentum a, from complete elliptic
    integrals in the parameter m = 4a/(1+a)^2."""
    m = 4.0 * a / (1.0 + a) ** 2
    T = 4.0 * float(ellipk(m)) / (1.0 + a)
    L = ((1.0 + a * a) * T - 4.0 * (1.0 + a) * float(ellipe(m))) / (2.0 * a)
    return T, L


def speed_drift(path, a):
    """Worst change of the front speed squared along a reduced path."""
    k, th = path.kappa, path.theta
    speed2 = k * k - 2.0 * a * np.sin(th) * k + a * a
    return float(np.max(np.abs(speed2 - speed2[0])))


def hamiltonian_drift(path, px, py):
    """Worst change of H along a cotangent path (kappa holds ptheta)."""
    pth, th = path.kappa, path.theta
    h = 0.5 * ((px - np.sin(th) * pth) ** 2 + (py + np.cos(th) * pth) ** 2)
    return float(np.max(np.abs(h - h[0])))


def energy_form_residual(path, a):
    """Worst defect of the elastica energy form
    kappa'^2/2 + kappa^4/8 - (a^2+1) kappa^2/4 + (a^2-1)^2/8 = 0,
    with kappa' from a five-point stencil on the uniform grid."""
    k = path.kappa
    h = float(path.t[1] - path.t[0])
    kd = (k[:-4] - 8.0 * k[1:-3] + 8.0 * k[3:-1] - k[4:]) / (12.0 * h)
    kc = k[2:-2]
    energy = (0.5 * kd ** 2 + 0.125 * kc ** 4 - 0.25 * (a * a + 1.0) * kc ** 2
              + (a * a - 1.0) ** 2 / 8.0)
    return float(np.max(np.abs(energy)))


def _momentum(rng):
    """Log-uniform on [0.3, 4] minus [0.8, 1.25], away from the soliton."""
    while True:
        a = math.exp(rng.uniform(math.log(0.3), math.log(4.0)))
        if not 0.8 <= a <= 1.25:
            return a


def _admissible(rng, a):
    """Curvature in [|1-a|, 1+a] and a frame angle giving unit speed."""
    kappa = rng.uniform(abs(1.0 - a), 1.0 + a)
    s = (kappa * kappa + a * a - 1.0) / (2.0 * a * kappa)
    theta = math.asin(max(-1.0, min(1.0, s)))
    if rng.uniform() < 0.5:
        theta = math.pi - theta
    return kappa, theta


def _fingerprint(values):
    """Short digest of generated inputs (reprs keep every float digit)."""
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# geodesic_survey

GEODESIC_T_END = 17.0    # frame lengths; two periods even at a = 0.8
GEODESIC_BATCH = 8


def _survey_job(label, momenta, states, t_end=GEODESIC_T_END, step=geo.DEFAULT_STEP):
    def run():
        paths = geo.integrate_geodesics(states, t_end, step)
        rows = []
        for a, p in zip(momenta, paths):
            tag = analysis.classify(a, float(p.kappa[0])).tag
            oriented, _motion = analysis.canonical_orient(p)
            T, L = analysis.period_and_advance(oriented)
            width = analysis.front_width(oriented)
            fit = analysis.fit_elastica_params(p)
            residual = analysis.energy_residual(
                p, analysis.ElasticaParams.from_momentum(a))
            rows.append((a, p, tag, T, L, width, fit.A, residual))
        return rows

    def check(rows):
        errors = {k: 0.0 for k in ("drift", "energy_residual", "fit_A",
                                   "period_advance", "width")}
        problems = []
        for (a, p, tag, T, L, width, A, residual), state in zip(rows, states):
            T_ref, L_ref = elliptic_period_advance(a)
            expected = "WideNIE" if a < 1.0 else "NarrowNIE"
            if tag != expected:
                problems.append(f"classify gave {tag} for a={a!r}")
            if isinstance(state, geo.CotangentState):
                drift = hamiltonian_drift(p, state.px, state.py)
            else:
                drift = speed_drift(p, a)
            # the library's own reports must agree with the oracles
            if not abs(p.drift - drift) <= 1e-12:
                problems.append(f"reported drift {p.drift!r}, path gives {drift!r}")
            if not residual <= TOLERANCES["energy_residual"]:
                problems.append(f"reported energy residual {residual!r}")
            for key, err in (("drift", drift),
                             ("energy_residual", energy_form_residual(p, a)),
                             ("fit_A", abs(A + (a * a + 1.0) / 2.0)),
                             ("period_advance", max(abs(T - T_ref), abs(L - L_ref))),
                             ("width", abs(width - (2.0 if a < 1.0 else 2.0 / a)))):
                errors[key] = max(errors[key], err)
        return errors, problems

    return Job(label, run, check)


def geodesic_survey(seed, workdir):
    rng = np.random.default_rng(seed)
    jobs, inputs = [], []
    for kind in ("reduced", "cotangent"):
        momenta, states = [], []
        for _ in range(GEODESIC_BATCH):
            a = _momentum(rng)
            kappa, theta = _admissible(rng, a)
            if kind == "reduced":
                state = geo.ReducedState(0.0, 0.0, theta, kappa, a)
            else:
                phi = rng.uniform(-math.pi, math.pi)
                x, y = rng.uniform(-2.0, 2.0, size=2)
                state = geo.CotangentState(float(x), float(y), theta + phi,
                                           a * math.cos(phi), a * math.sin(phi),
                                           kappa)
            momenta.append(a)
            states.append(state)
        inputs.append(states)
        jobs.append(_survey_job(f"batch.{kind}", momenta, states))

    def warm_up():
        momenta = [3.0, 3.5]
        states = [geo.canonical_vertex_state(a) for a in momenta]
        _survey_job("warm-up", momenta, states, 5.0, 5e-3).run()

    return jobs, warm_up, _fingerprint(inputs)


# ---------------------------------------------------------------------------
# fiber_transport

FIBER_RIDE = 8.0         # ride length in frame lengths
FIBER_STEPS = 8000       # lift steps per ride: 1e-3 frame lengths each
FIBER_ANGLES = 64
CROSS_RATIO_IDX = [0, 16, 32, 48]
FIBER_KINDS = ("circle", "spline", "line") * 2


def _spline_track(rng, ell):
    """Non-arc-length C^2 spline of about FIBER_RIDE frame lengths,
    rejecting near-cusps."""
    u = np.linspace(0.0, 1.0, 8)
    tt = np.linspace(0.0, 1.0, 2001)
    while True:
        pts = np.cumsum(rng.normal(0.0, 1.0, size=(8, 2)), axis=0)
        speed = np.hypot(*CubicSpline(u, pts, axis=0).derivative()(tt).T)
        if speed.min() > 0.25 * speed.mean():
            scale = FIBER_RIDE * ell / float(np.trapezoid(speed, tt))
            return (pts * scale).tolist(), geo.FrontTrackSpec.from_spline(
                CubicSpline(u, pts * scale, axis=0), 0.0, 1.0)


def chart_image(chart, theta):
    """Images of fiber angles under a real matrix acting on
    u = tan(theta/2), through homogeneous half-angle coordinates."""
    s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
    return 2.0 * np.arctan2(chart[0, 0] * s + chart[0, 1] * c,
                            chart[1, 0] * s + chart[1, 1] * c)


def angle_gap(a, b):
    """Largest |a - b| over arrays of angles, taken mod 2*pi."""
    return float(np.max(np.abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)))


def cross_ratio_of_angles(th):
    """Cross ratio of four fiber angles; in the tan(theta/2) chart the
    differences u_i - u_j are sin((th_i - th_j)/2) up to factors that
    cancel."""
    def d(i, j):
        return math.sin((th[i] - th[j]) / 2.0)
    return d(0, 2) * d(1, 3) / (d(0, 3) * d(1, 2))


def _fiber_job(kind, ell, track, thetas, theta0, apex, steps=FIBER_STEPS):
    """One ride; theta0 is a fiber angle, or the tractrix-apex angle of a
    line (apex set), for the single-angle correspondent."""
    step = (track.t1 - track.t0) / steps

    def run():
        _t, theta = geo.lift_frame_angles(track, thetas, ell, step)
        samples = [holonomy.TransportSample(float(a), float(b))
                   for a, b in zip(thetas, theta[-1])]
        mob, residual = holonomy.fit_mobius(samples)
        cr_in = holonomy.cross_ratio_angles(thetas[CROSS_RATIO_IDX])
        cr_out = holonomy.cross_ratio_angles(theta[-1, CROSS_RATIO_IDX])
        corr = holonomy.correspondent(track, theta0, ell, step)
        pressurized = None
        if kind == "circle":
            # fit at the default spacing in frame lengths; the residual
            # (units 1/length^3) is compared in frame-length units
            pressurized = holonomy.pressurized_fit(
                corr, spacing=holonomy.FIT_SPACING * ell)
        return theta, mob, residual, cr_in, cr_out, corr, pressurized

    def check(out):
        theta, mob, residual, cr_in, cr_out, corr, pressurized = out
        mobius_gap = angle_gap(chart_image(mob.chart_matrix, thetas), theta[-1])
        cr_ref_in = cross_ratio_of_angles(thetas[CROSS_RATIO_IDX])
        cr_ref_out = cross_ratio_of_angles(theta[-1, CROSS_RATIO_IDX])
        problems = []
        # the library's own reports must agree with the oracles
        if not abs(residual - mobius_gap) <= 1e-9:
            problems.append(f"reported Moebius residual {residual!r}, map gives "
                            f"{mobius_gap!r}")
        for ref, got in ((cr_ref_in, cr_in), (cr_ref_out, cr_out)):
            if not abs(got - ref) <= 1e-9 * max(1.0, abs(ref)):
                problems.append(f"cross ratio {float(got)!r}, expected {ref!r}")
        errors = {"mobius_residual": mobius_gap,
                  "cross_ratio_drift": abs(cr_ref_in - cr_ref_out)}
        if kind == "line":
            ref = closed_forms.soliton_point(corr.t, apex, ell)
            errors["soliton_gap"] = float(np.max(np.abs(corr.front - ref)))
        else:
            column = theta[:, int(np.flatnonzero(thetas == theta0)[0])]
            errors["scalar_vs_fiber_lift"] = float(
                np.max(np.abs(corr.theta - math.pi - column)))
        if pressurized is not None:
            errors["pressurized_residual"] = pressurized[2] * ell ** 3
        return errors, problems

    return Job(kind, run, check)


def fiber_transport(seed, workdir):
    rng = np.random.default_rng(seed)
    jobs, inputs = [], []
    for kind in FIBER_KINDS:
        ell = rng.uniform(0.5, 2.0)
        thetas = (np.linspace(-math.pi, math.pi, FIBER_ANGLES, endpoint=False)
                  + rng.uniform(0.0, 2.0 * math.pi / FIBER_ANGLES))
        apex = None
        if kind == "circle":
            radius = rng.uniform(2.0, 3.0) * ell
            track = geo.FrontTrackSpec.circle(radius, 0.0, FIBER_RIDE * ell)
            shape = radius
        elif kind == "spline":
            shape, track = _spline_track(rng, ell)
        else:
            apex = rng.uniform(2.0, 6.0) * ell
            track = geo.FrontTrackSpec.line(0.0, FIBER_RIDE * ell)
            shape = apex
        if apex is None:
            theta0 = thetas[rng.integers(FIBER_ANGLES)]
        else:
            theta0 = float(closed_forms.line_lift_theta(0.0, apex, ell))
        inputs.append((kind, ell, thetas.tolist(), shape, theta0))
        jobs.append(_fiber_job(kind, ell, track, thetas, theta0, apex))

    def warm_up():
        track = geo.FrontTrackSpec.circle(2.0, 0.0, 2.0)
        thetas = np.linspace(-math.pi, math.pi, FIBER_ANGLES, endpoint=False) + 0.01
        _fiber_job("circle", 1.0, track, thetas, thetas[3], None, 200).run()

    return jobs, warm_up, _fingerprint(inputs)


# ---------------------------------------------------------------------------
# cli_session

def call_cli(argv):
    """Run cli.main in process; returns (exit code, stdout, stderr)."""
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bikegeo.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _fields(line):
    """Parse 'key=value' tokens of a CLI summary line."""
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _done(code, out, err, output=None):
    """Misses of a command that should succeed and name its output."""
    problems = []
    if code != 0:
        problems.append(f"exit {code}: {err.strip()[:200]}")
    elif output is not None and out.strip().splitlines()[-1:] != [output]:
        problems.append(f"stdout does not name {output}")
    return problems


def _cli_session_jobs(rng, workdir):
    """The command mix, in order; returns (jobs, argv of each seeded op)."""
    def path(name):
        return os.path.join(workdir, name)

    def read_csv(name):
        return pathio.read_path_csv(path(name))

    def job(label, argv, check, contract=False):
        return Job(label, lambda: call_cli(argv), check, contract)

    jobs, inputs = [], []

    # geodesic: about 30k rows of CSV
    a = _momentum(rng)
    kappa, _theta = _admissible(rng, a)
    argv = ["geodesic", "--a", repr(a), "--kappa0", repr(kappa), "--format", "csv",
            "--output", path("geodesic.csv")]

    def check_geodesic(res, a=a):
        problems = _done(*res, path("geodesic.csv"))
        if problems:
            return {}, problems
        p = read_csv("geodesic.csv")
        if len(p) != 30001:
            problems.append(f"{len(p)} rows, expected 30001")
        return {"drift": speed_drift(p, a),
                "energy_residual": energy_form_residual(p, a)}, problems

    jobs.append(job("geodesic", argv, check_geodesic))
    inputs.append(argv)

    def check_flip(source, target):
        def check(res):
            problems = _done(*res, path(target))
            if problems:
                return {}, problems
            p, q = read_csv(source), read_csv(target)
            if len(p) != len(q):
                return {}, [f"flip changed the row count {len(p)} -> {len(q)}"]
            return {"shared_back_track": float(np.max(np.abs(p.back - q.back)))}, []
        return check

    jobs.append(job("flip", ["flip", path("geodesic.csv"), "--output",
                             path("geodesic-flip.csv")],
                    check_flip("geodesic.csv", "geodesic-flip.csv")))

    # lift of the line: the back track is a tractrix.  The lift leaves the
    # backward-pointing fixed angle, which amplifies roundoff in the start
    # angle like exp(t0/ell), so the apex stays within 15 frame lengths.
    t0 = rng.uniform(5.0, 15.0)
    argv = ["lift", "--t0", repr(t0), "--format", "csv", "--output", path("lift.csv")]

    def check_lift(res):
        problems = _done(*res, path("lift.csv"))
        if problems:
            return {}, problems
        p = read_csv("lift.csv")
        ref = closed_forms.tractrix_point(p.t, t0, 1.0)
        return {"tractrix_gap": float(np.max(np.abs(p.back - ref)))}, []

    jobs.append(job("lift", argv, check_lift))
    inputs.append(argv)
    jobs.append(job("flip", ["flip", path("lift.csv"), "--output",
                             path("lift-flip.csv")],
                    check_flip("lift.csv", "lift-flip.csv")))

    # correspondent of a circle: flipping back puts the front on the circle
    radius = rng.uniform(0.5, 3.0)
    theta0 = rng.uniform(-math.pi, math.pi)
    argv = ["correspond", "--curve", "circle", "--radius", repr(radius),
            "--theta0", repr(theta0), "--output", path("correspond.csv")]

    def check_correspond(res):
        problems = _done(*res, path("correspond.csv"))
        if problems:
            return {}, problems
        p = read_csv("correspond.csv")
        partner = 2.0 * p.back - p.front
        gap = np.abs(np.hypot(partner[:, 0], partner[:, 1]) - radius)
        return {"circle_radius": float(np.max(gap))}, []

    jobs.append(job("correspond", argv, check_correspond))
    inputs.append(argv)

    # classify: printed coefficients against the formulas
    a = _momentum(rng)
    kappa, _theta = _admissible(rng, a)
    argv = ["classify", "--a", repr(a), "--kappa0", repr(kappa)]

    def check_classify(res, a=a):
        problems = _done(*res)
        if problems:
            return {}, problems
        line = res[1].strip()
        tag = line.split()[0]
        expected = "WideNIE" if a < 1.0 else "NarrowNIE"
        if tag != expected:
            problems.append(f"classify printed {tag}, expected {expected}")
        f = _fields(line)
        A_ref, B_ref = -(a * a + 1.0) / 2.0, -((a * a - 1.0) ** 2) / 8.0
        err = max(abs(float(f["A"]) - A_ref) / abs(A_ref),
                  abs(float(f["B"]) - B_ref) / max(abs(B_ref), 1e-300))
        return {"classify_coeffs": err}, problems

    jobs.append(job("classify", argv, check_classify))
    inputs.append(argv)

    # shortcut: (T, L) against the elliptic closed form
    a = _momentum(rng)
    argv = ["shortcut", "--a", repr(a), "--output", path("shortcut.csv")]

    def check_shortcut(res, a=a):
        problems = _done(*res, path("shortcut.csv"))
        if problems:
            return {}, problems
        f = _fields(res[1].splitlines()[0])
        T, L, N = float(f["T"]), float(f["L"]), int(f["N_star"])
        T_ref, L_ref = elliptic_period_advance(a)
        if N != math.floor(math.pi / (T - L)) + 1:
            problems.append(f"N_star={N} is not the threshold")
        if not float(f["margin"]) >= 1e-3:
            problems.append(f"margin {f['margin']} below 1e-3")
        length = math.pi + N * L
        cut = read_csv("shortcut.csv")
        return {"period_advance": max(abs(T - T_ref), abs(L - L_ref)),
                "shortcut_length": max(abs(float(f["shortcut_length"]) - length),
                                       abs(float(cut.t[-1]) - length))}, problems

    jobs.append(job("shortcut", argv, check_shortcut))
    inputs.append(argv)

    # plots: well-formed, and byte-identical on every pass
    for preset in ("fig-kink", "fig-pressurized"):
        target = path(preset + ".svg")
        first = {}

        def check_plot(res, target=target, first=first):
            problems = _done(*res, target)
            if problems:
                return {}, problems
            with open(target, "rb") as fh:
                data = fh.read()
            ET.fromstring(data)
            digest = hashlib.sha256(data).hexdigest()
            if first.setdefault("digest", digest) != digest:
                problems.append(f"{os.path.basename(target)} changed between passes")
            return {}, problems

        jobs.append(job("plot", ["plot", "--preset", preset, "--output", target],
                        check_plot))

    # contract ops: exit 1 with exactly one JSON error line on stderr
    def check_contract(res):
        code, _out, err = res
        lines = err.strip().splitlines()
        problems = [] if code == 1 else [f"exit {code}, expected 1"]
        try:
            if len(lines) != 1 or "error" not in json.loads(lines[0]):
                problems.append("stderr is not one JSON error line")
        except ValueError:
            problems.append("stderr is not one JSON error line")
        return {}, problems

    a = _momentum(rng)
    argv = ["geodesic", "--a", repr(a), "--t-end", "inf", "--output", path("never.csv")]
    jobs.append(job("geodesic", argv, check_contract, contract=True))
    inputs.append(argv)
    argv = ["classify", "--a", "nan", "--kappa0", repr(rng.uniform(0.5, 2.0))]
    jobs.append(job("classify", argv, check_contract, contract=True))
    inputs.append(argv)
    return jobs, inputs


def cli_session(seed, workdir):
    rng = np.random.default_rng(seed)
    jobs, inputs = _cli_session_jobs(rng, workdir)
    # paths inside the workdir differ between checkouts; fingerprint the rest
    inputs = [[arg for arg in argv if not arg.startswith(workdir)] for argv in inputs]

    def warm_up():
        warm = os.path.join(workdir, "warm-up.csv")
        call_cli(["geodesic", "--a", "0.5", "--t-end", "2", "--output", warm])
        call_cli(["flip", warm, "--output", warm])
        call_cli(["lift", "--t-end", "2", "--format", "svg", "--output",
                  os.path.join(workdir, "warm-up.svg")])
        call_cli(["classify", "--a", "0.5", "--kappa0", "1"])

    return jobs, warm_up, _fingerprint(inputs)


def build(name, seed, workdir):
    """(jobs, warm_up, inputs fingerprint) of a named workload."""
    return {"geodesic_survey": geodesic_survey,
            "fiber_transport": fiber_transport,
            "cli_session": cli_session}[name](seed, workdir)
