"""Command-line front end.

Subcommands: geodesic, lift, flip, correspond, classify, shortcut,
verify, plot.  CSV output follows the t,fx,fy,bx,by,theta,kappa schema
and is byte-deterministic; SVG output reproduces the standard figure
layouts.  Exit codes: 0 success, 1 usage error (so is a geodesic past
the closed form's phase bound), 2 verification failure, 3 numerical
divergence (lift and correspond only).  Errors are
reported as a single JSON line on stderr.  The BIKEGEO_OUTPUT_DIR
environment variable sets the default output directory.
"""

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import analysis, closed_forms, holonomy, metriclines
from . import integrate as geo
from . import io as pathio
from .core import flip_path
from .errors import BikeGeoError, DivergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_DIVERGED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only "-1.5"-style strings as negative numbers;
        # accept "-1e-05", "-1E+3" and "-.5" as option values too
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


def _emit_error(kind, message):
    sys.stderr.write(json.dumps({"error": kind, "message": str(message)}) + "\n")


def _output_path(args, default_name):
    if args.output:
        return args.output
    base = os.environ.get("BIKEGEO_OUTPUT_DIR", ".")
    return os.path.join(base, default_name)


def _write_path(path, args, default_stem, scene=None):
    if args.format == "csv":
        out = _output_path(args, default_stem + ".csv")
        pathio.write_path_csv(path, out)
    else:
        out = _output_path(args, default_stem + ".svg")
        pathio.write_svg(scene() if scene else pathio.path_scene(path), out)
    print(out)
    return EXIT_OK


def _add_common(p, theta0=False):
    """Path-command options; theta0 adds --t-end and --theta0."""
    p.add_argument("--ell", type=float, default=1.0, help="frame length")
    if theta0:
        p.add_argument("--t-end", type=float, default=30.0, help="arc length to cover")
    p.add_argument("--step", type=float, default=1e-3, help="integration step")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--output", help="output file (default derived from command)")
    if theta0:
        p.add_argument("--theta0", type=float, default=None,
                       help="initial frame angle")


def _build_parser():
    parser = _Parser(prog="bikegeo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geodesic", help="integrate a unit-speed geodesic")
    p.add_argument("--a", type=float, required=True, help="momentum parameter (>= 0)")
    p.add_argument("--kappa0", type=float, default=None,
                   help="initial front-track curvature (default (1+a)/ell, a vertex)")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--y0", type=float, default=0.0)
    _add_common(p, theta0=True)

    p = sub.add_parser("lift", help="horizontal lift of the straight line")
    p.add_argument("--t0", type=float, default=None,
                   help="tractrix apex parameter (alternative to --theta0)")
    _add_common(p, theta0=True)

    p = sub.add_parser("flip", help="flip a stored path about its back wheel")
    p.add_argument("input", help="CSV file produced by this tool")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--output")

    p = sub.add_parser("correspond", help="bicycle correspondent of a curve")
    p.add_argument("--curve", choices=("line", "circle"), default="circle")
    p.add_argument("--radius", type=float, default=1.0)
    _add_common(p, theta0=True)

    p = sub.add_parser("classify", help="taxonomy of a geodesic front track")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--kappa0", type=float, required=True)

    p = sub.add_parser("shortcut", help="shortcut beating a periodic geodesic")
    p.add_argument("--a", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="run the property-verification suites")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name or 'all' (repeatable)")

    p = sub.add_parser("plot", help="render one of the standard figures")
    p.add_argument("--preset", choices=tuple(PLOT_PRESETS), required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--output")
    p.set_defaults(format="svg")

    return parser


_POSITIVE = ("step", "t_end", "ell", "radius")
_NONNEGATIVE = ("a",)


def _validated(args):
    """Reject non-finite float arguments of any subcommand, and signs
    that the argument cannot take."""
    for name, value in vars(args).items():
        if not isinstance(value, float):
            continue
        flag = "--" + name.replace("_", "-")
        if not math.isfinite(value):
            raise _UsageError(f"{flag} must be finite, got {value!r}")
        if name in _POSITIVE and value <= 0:
            raise _UsageError(f"{flag} must be positive")
        if name in _NONNEGATIVE and value < 0:
            raise _UsageError(f"{flag} must be >= 0")
    return args


def _geodesic_state(args):
    a, kappa0 = args.a, args.kappa0
    if kappa0 is None:  # a vertex: kappa = 1 + a in normalized units
        kappa0 = (1.0 + a) / args.ell
    # scale to normalized units for the admissibility computation
    k = kappa0 * args.ell
    if args.theta0 is not None:
        theta0 = args.theta0
    elif a == 0.0 or k == 0.0:
        theta0 = 0.0
    elif args.kappa0 is None:
        theta0 = 0.5 * math.pi  # the vertex, where sin(theta0) = 1 exactly
    else:
        denom = 2.0 * a * k  # underflows to 0 only far from unit speed
        sin_theta = (k * k + a * a - 1.0) / denom if denom else math.inf
        if not abs(sin_theta) <= 1.0 + 1e-12:
            raise _UsageError(
                f"kappa0={kappa0} is inadmissible for a={a} at unit speed")
        theta0 = math.asin(max(-1.0, min(1.0, sin_theta)))
    return geo.ReducedState(args.x0, args.y0, theta0, kappa0, a)


def _cmd_geodesic(args):
    state = _geodesic_state(args)
    path = geo.integrate_geodesic(state, args.t_end, args.step, args.ell)
    return _write_path(path, args, "geodesic")


def _cmd_lift(args):
    if args.theta0 is not None:
        theta0 = args.theta0
    elif args.t0 is not None:
        theta0 = float(closed_forms.line_lift_theta(0.0, args.t0, args.ell))
    else:
        theta0 = float(closed_forms.line_lift_theta(0.0, 0.5 * args.t_end, args.ell))
    track = geo.FrontTrackSpec.line(0.0, args.t_end)
    path = geo.horizontal_lift(track, theta0, args.ell, args.step)
    return _write_path(path, args, "lift")


def _cmd_flip(args):
    path = pathio.read_path_csv(args.input)
    return _write_path(flip_path(path), args, "flip")


def _cmd_correspond(args):
    if args.curve == "line":
        track = geo.FrontTrackSpec.line(0.0, args.t_end)
        theta0 = args.theta0 if args.theta0 is not None else float(
            closed_forms.line_lift_theta(0.0, 0.5 * args.t_end, args.ell))
    else:
        track = geo.FrontTrackSpec.circle(args.radius, 0.0, args.t_end)
        theta0 = args.theta0 if args.theta0 is not None else 0.7
    path = holonomy.correspondent(track, theta0, args.ell, args.step)
    return _write_path(path, args, "correspond")


def _cmd_classify(args):
    cls = analysis.classify(args.a, args.kappa0)
    p = cls.params
    print(f"{cls.tag} a={args.a!r} A={p.A!r} B={p.B!r} mu={p.mu!r}")
    return EXIT_OK


def _cmd_shortcut(args):
    report, geodesic, cut = metriclines.shortcut_analysis(
        args.a, args.ell, args.step)
    print(f"T={report.T!r} L={report.L!r} N_star={report.N_star} "
          f"geodesic_length={report.geodesic_length!r} "
          f"shortcut_length={report.shortcut_length!r} margin={report.margin!r}")
    return _write_path(cut, args, "shortcut",
                       lambda: pathio.shortcut_scene(geodesic, cut))


def _cmd_verify(args):
    from . import verify  # the checks run the CLI, so load them only here
    results = verify.run_suites(args.suite)
    print(verify.format_results(results))
    if all(r.ok for r in results):
        return EXIT_OK
    _emit_error("verification", f"{sum(not r.ok for r in results)} checks failed")
    return EXIT_VERIFY


def _scene_elastica(step):
    scene = pathio.SvgScene()
    offsets = 0.0
    for a in (0.05, 0.4, 0.7, 1.0, 1.6, 3.0):
        state = geo.soliton_vertex_state() if a == 1.0 else geo.canonical_vertex_state(a)
        t_end = 30.0 if a <= 1.0 else 14.0
        p = geo.integrate_geodesic(state, t_end, step)
        front = p.front - p.front.mean(axis=0) + np.array([0.0, offsets])
        scene.polyline(front, pathio.FRONT_COLOR, 1.8)
        offsets -= 3.2
    return scene


def _scene_geod(step):
    scene = pathio.SvgScene()
    for a, shift in ((0.5, 0.0), (2.0, 10.0)):
        p = geo.integrate_geodesic(geo.canonical_vertex_state(a), 21.0, step)
        report = analysis.find_vertices(p)
        off = np.array([shift, 0.0])
        scene.polyline(p.front + off, pathio.FRONT_COLOR, 2.0)
        scene.polyline(p.back + off, pathio.BACK_COLOR, 1.5)
        y_d = -(1.0 + a) / a
        scene.polyline([(off[0] - 1.0, y_d), (off[0] + 8.0, y_d)],
                       pathio.DIRECTRIX_COLOR, 1.2, dash="8 6")
        for v in report.maxima()[:2]:
            tip = np.asarray(v.position) + off
            base = tip - np.array([math.cos(v.theta), math.sin(v.theta)])
            scene.arrow(base, tip)
    return scene


def _scene_kink(step):
    ell, t0, t_end = 1.0, 10.0, 20.0
    track = geo.FrontTrackSpec.line(0.0, t_end)
    theta0 = float(closed_forms.line_lift_theta(0.0, t0, ell))
    lift = geo.horizontal_lift(track, theta0, ell, step)
    soliton = flip_path(lift)
    scene = pathio.SvgScene()
    scene.polyline(lift.front, pathio.FRONT_COLOR, 1.5, dash="7 5")
    scene.polyline(soliton.front, pathio.FRONT_COLOR, 2.0)
    scene.polyline(lift.back, pathio.BACK_COLOR, 2.0)
    return scene


def _scene_shortcut(step):
    _report, geodesic, cut = metriclines.shortcut_analysis(0.5, 1.0, step)
    return pathio.shortcut_scene(geodesic, cut)


def _scene_pressurized(step):
    scene = pathio.SvgScene()
    circ = geo.FrontTrackSpec.circle(1.0, 0.0, 2.0 * math.pi)
    base = geo.horizontal_lift(circ, 0.7, 1.0, step)
    scene.polyline(base.front, pathio.FRONT_COLOR, 2.0)
    scene.polyline(base.back, pathio.BACK_COLOR, 2.0)
    long_circ = geo.FrontTrackSpec.circle(1.0, 0.0, 4.0 * math.pi)
    for theta0, dash in ((0.7, None), (1.9, "6 5")):
        corr = holonomy.correspondent(long_circ, theta0, 1.0, step)
        scene.polyline(corr.front, pathio.FRONT_COLOR, 1.5, dash=dash or "2 3",
                       opacity=0.9)
    return scene


PLOT_PRESETS = {
    "fig-elastica": _scene_elastica,
    "fig-geod": _scene_geod,
    "fig-kink": _scene_kink,
    "fig-shortcut": _scene_shortcut,
    "fig-pressurized": _scene_pressurized,
}


def _cmd_plot(args):
    scene = PLOT_PRESETS[args.preset](args.step)
    out = _output_path(args, args.preset + ".svg")
    pathio.write_svg(scene, out)
    print(out)
    return EXIT_OK


_COMMANDS = {
    "geodesic": _cmd_geodesic,
    "lift": _cmd_lift,
    "flip": _cmd_flip,
    "correspond": _cmd_correspond,
    "classify": _cmd_classify,
    "shortcut": _cmd_shortcut,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = _validated(parser.parse_args(argv))
        # a non-finite result is rejected by the library and reported as
        # the one JSON error line, so numpy's warnings would only add noise
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except _UsageError as exc:
        _emit_error("usage", exc)
        return EXIT_USAGE
    except DivergenceError as exc:
        _emit_error("divergence", exc)
        return EXIT_DIVERGED
    except (BikeGeoError, ValueError, OSError) as exc:
        _emit_error("usage", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
