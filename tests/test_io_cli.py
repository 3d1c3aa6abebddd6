"""CSV round trips, SVG rendering, CLI contract, mutation smoke test."""

import ast
import contextlib
import filecmp
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bikegeo import cli, closed_forms, metriclines, verify
from bikegeo import integrate as geo
from bikegeo import io as pathio
from bikegeo.errors import DivergenceError
from bikegeo.core import SampledBikePath
from bikegeo.io import (BACK_COLOR, CSV_HEADER, DIRECTRIX_COLOR, FRONT_COLOR,
                        MAX_CSV_CHARS, SvgScene, path_from_csv, path_scene,
                        path_to_csv, read_path_csv, write_path_csv)
from bikegeo.integrate import canonical_vertex_state, integrate_geodesic


SVG_NS = "{http://www.w3.org/2000/svg}"


def per_cell_csv(path):
    """Reference writer: one repr per cell, one join per row."""
    back = path.back
    lines = [CSV_HEADER]
    for i in range(len(path)):
        row = (path.t[i], path.front[i, 0], path.front[i, 1],
               back[i, 0], back[i, 1], path.theta[i], path.kappa[i])
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _bits_to_float(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# every finite float64 bit pattern, subnormals and both zeros included
finite_floats = st.integers(0, 2**64 - 1).map(_bits_to_float).filter(math.isfinite)


@st.composite
def odd_paths(draw):
    """Paths of arbitrary finite floats with strictly increasing t.  The
    first front point is kept moderate, so that the frame length the
    reader recovers from the first row is not lost to rounding."""
    n = draw(st.integers(1, 8))
    t = sorted(draw(st.lists(finite_floats, min_size=n, max_size=n,
                             unique_by=float)))
    cells = draw(st.lists(finite_floats, min_size=4 * n, max_size=4 * n))
    front = np.reshape(cells[:2 * n], (n, 2))
    front[0] = draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2))
    return SampledBikePath(t, front, cells[2 * n:3 * n], cells[3 * n:], 1.0)


@pytest.fixture(scope="module")
def short_path():
    return integrate_geodesic(canonical_vertex_state(0.5), 2.0, 1e-3)


class TestCsv:
    def test_roundtrip_bit_exact(self, short_path):
        q = path_from_csv(path_to_csv(short_path))
        assert np.array_equal(q.t, short_path.t)
        assert np.array_equal(q.front, short_path.front)
        assert np.array_equal(q.theta, short_path.theta)
        assert np.array_equal(q.kappa, short_path.kappa)
        assert abs(q.ell - short_path.ell) <= 4 * np.finfo(float).eps

    def test_header_schema(self, short_path):
        assert path_to_csv(short_path).splitlines()[0] == "t,fx,fy,bx,by,theta,kappa"

    def test_rejects_wrong_header(self):
        with pytest.raises(ValueError):
            path_from_csv("a,b,c\n1,2,3\n")

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            path_from_csv("t,fx,fy,bx,by,theta,kappa\n1,2,3\n")

    @pytest.mark.parametrize("widths, message", [
        ((7, 6, 8, 7), "CSV line 3 has 6 columns, expected 7"),
        ((7, 8, 6, 7), "CSV line 3 has 8 columns, expected 7"),
        ((6, 8), "CSV line 2 has 6 columns, expected 7"),
    ])
    def test_rejects_rows_of_six_and_eight_columns(self, widths, message):
        # 6 + 8 fields: a flat count divisible by 7 must not hide them
        rows = [",".join(["1.0"] * w) for w in widths]
        with pytest.raises(ValueError) as exc:
            path_from_csv("\n".join([CSV_HEADER, *rows]))
        assert str(exc.value) == message

    def test_rejects_header_only(self):
        for text in (CSV_HEADER, CSV_HEADER + "\n", CSV_HEADER + "\n\n \n"):
            with pytest.raises(ValueError) as exc:
                path_from_csv(text)
            assert str(exc.value) == "CSV has no samples"

    def test_rejects_fields_float_alone_accepts(self):
        # NumPy's parser takes no digit-grouping underscore and no
        # non-ASCII character; the writer never emits either
        row = ",".join(["1.0"] * 6)
        for cell in ("1_0", "\u0661.\u0665", "1.0\u00a0"):
            with pytest.raises(ValueError, match="could not convert"):
                path_from_csv(f"{CSV_HEADER}\n{cell},{row}\n")

    def test_bytes_match_per_cell_formatter(self, short_path):
        odd = SampledBikePath(
            [-1e16, -1.0, 0.0, 5e-324, 1e-5, 3.0, 1e16],
            [[-0.0, 1e-5], [1e16, -0.0], [2.0, 5e-324], [-3.0, 0.1],
             [1e-5, 7.0], [0.0, -0.0], [123456789.0, 1e-300]],
            [-0.0, 5e-324, 1e-5, 2.0, -1e16, math.pi, 0.0],
            [0.0, -0.0, 1e16, -5e-324, 1e-5, 4.0, -2.5], 1.0)
        for path in (odd, short_path):
            assert path_to_csv(path).encode() == per_cell_csv(path).encode()
        cells = set(path_to_csv(odd).replace("\n", ",").split(","))
        assert {"-0.0", "1e-05", "1e+16", "5e-324", "3.0"} <= cells

    @given(odd_paths())
    @example(SampledBikePath(
        [-0.0, 5e-324, 1e16],
        [[0.0, -0.0], [1.7976931348623157e308, 1e-5], [-5e-324, 1e-4]],
        [-0.0, 1e16, -1e-5], [5e-324, -0.0, 1e-4], 1.0))
    def test_bytes_and_bits_of_any_finite_path(self, path):
        text = path_to_csv(path)
        assert text == per_cell_csv(path)
        q = path_from_csv(text)
        for name in ("t", "front", "theta", "kappa"):
            assert np.array_equal(getattr(q, name).view(np.uint64),
                                  getattr(path, name).view(np.uint64)), name

    def test_file_io(self, short_path, tmp_path):
        f = tmp_path / "p.csv"
        write_path_csv(short_path, f)
        q = read_path_csv(f)
        assert np.array_equal(q.t, short_path.t)

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_device_read_stops_past_limit(self, monkeypatch):
        # a device reports size 0, so it is read to one past the limit
        monkeypatch.setattr(pathio, "MAX_CSV_CHARS", 1000)
        with pytest.raises(ValueError, match="limit of 1000 characters"):
            read_path_csv("/dev/zero")


class TestSvg:
    def test_scene_renders(self, short_path):
        svg = path_scene(short_path).render()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") >= 2  # front and back tracks

    def test_equal_aspect_canvas(self):
        scene = SvgScene()
        scene.polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), "#000")
        svg = scene.render()
        assert 'width="1200" height="600"' in svg

    def test_directrix_and_arrows(self):
        # fig-geod draws, for each of its two geodesics, a dashed
        # directrix and frame arrows at the first two curvature maxima
        root = ET.fromstring(cli.PLOT_PRESETS["fig-geod"](1e-3).render())
        lines = root.findall(f"{SVG_NS}polyline")
        directrices = [e for e in lines if e.get("stroke") == DIRECTRIX_COLOR]
        assert len(directrices) == 2
        assert all(e.get("stroke-dasharray") == "8 6" for e in directrices)
        assert len(root.findall(f"{SVG_NS}line")) == 4  # arrow shafts
        assert len(root.findall(f"{SVG_NS}polygon")) == 4  # arrow heads


class TestCli:
    def test_geodesic_row_count(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = cli.main(["geodesic", "--a", "0.5", "--kappa0", "1.5",
                       "--t-end", "3", "--step", "1e-3",
                       "--format", "csv", "--output", str(out)])
        assert rc == 0
        with open(out) as fh:
            assert sum(1 for _ in fh) == 3002  # header + 3001 samples

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["geodesic", "--a", "0.8", "--kappa0", "1.8", "--t-end", "2",
                "--step", "1e-3", "--format", "csv"]
        assert cli.main(argv + ["--output", str(a)]) == 0
        assert cli.main(argv + ["--output", str(b)]) == 0
        assert filecmp.cmp(a, b, shallow=False)

    def test_usage_error_is_json_line(self, capsys):
        rc = cli.main(["geodesic", "--a", "-1", "--kappa0", "1"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert "\n" not in err

    @pytest.mark.parametrize("argv", [
        ["geodesic", "--a", "0.5", "--t-end", "inf"],
        ["geodesic", "--a", "0.5", "--x0", "nan"],
        ["geodesic", "--a", "0.5", "--step", "1e-12"],
        ["classify", "--a", "nan", "--kappa0", "1"],
        ["classify", "--a", "0.5", "--kappa0", "inf"],
        ["lift", "--t0", "nan"],
        ["lift", "--ell", "1e-6", "--theta0", "2.5"],
        ["lift", "--ell", "1e-3", "--step", "1e-2", "--theta0", "2.5"],
        ["correspond", "--radius", "inf"],
        ["correspond", "--radius", "0"],
        ["shortcut", "--a", "-0.5"],
        ["shortcut", "--a", "0.5", "--ell=-inf"],
        ["plot", "--preset", "fig-kink", "--step", "nan"],
        ["classify", "--a", "1e100", "--kappa0", "1"],
        ["correspond", "--radius", "1e-300"],
        ["shortcut", "--a", "3", "--ell", "5.8e307", "--step", "1"],
        ["shortcut", "--a", "0.5", "--t-end", "5"],
    ], ids="_".join)
    def test_bad_float_is_one_json_line(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BIKEGEO_OUTPUT_DIR", str(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 1
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "usage"
        assert captured.out == ""
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["-1e-05", "-1E+3", "-.5"])
    def test_negative_value_after_bare_flag(self, value, capsys):
        # argparse alone reads "-1e-05" after a bare flag as an option
        assert cli.main(["classify", "--a", "0.5", "--kappa0", value]) == 0
        assert capsys.readouterr().out.startswith("WideNIE")
        parser = cli._build_parser()
        for argv, dest in ((["geodesic", "--a", "0.5", "--x0"], "x0"),
                           (["lift", "--t0"], "t0"),
                           (["correspond", "--theta0"], "theta0"),
                           (["shortcut", "--a", "0.5", "--ell"], "ell"),
                           (["plot", "--preset", "fig-kink", "--step"], "step")):
            assert getattr(parser.parse_args(argv + [value]), dest) == float(value)

    def test_unknown_flag_rejected(self, capsys):
        rc = cli.main(["geodesic", "--a", "0.5", "--bogus", "1"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"

    def test_inadmissible_curvature(self, capsys):
        # kappa0 incompatible with unit speed for this momentum
        rc = cli.main(["geodesic", "--a", "0.2", "--kappa0", "9"])
        assert rc == 1

    def test_divergence_exit_code(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise DivergenceError("blew up", t=0.5)
        monkeypatch.setattr(cli.geo, "integrate_geodesic", boom)
        rc = cli.main(["geodesic", "--a", "0.5", "--kappa0", "1.5"])
        assert rc == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "divergence"

    def test_geodesic_is_the_closed_form(self, tmp_path):
        # RK4 at step 1e-3 cannot follow curvature 1e9; the closed form can
        out = tmp_path / "g.csv"
        assert cli.main(["geodesic", "--a", "1e9", "--t-end", "1",
                         "--output", str(out)]) == 0
        got = read_path_csv(out)
        ref = integrate_geodesic(canonical_vertex_state(1e9), 1.0)
        for field in ("t", "front", "theta", "kappa"):
            assert np.array_equal(getattr(got, field), getattr(ref, field))

    def test_soliton_frame_angle_is_exact(self, tmp_path):
        # the soliton's tail nears the unstable theta = pi of the line's
        # lift, where RK4's frame-angle error grows like e^t
        out = tmp_path / "g.csv"
        assert cli.main(["geodesic", "--a", "1", "--output", str(out)]) == 0
        p = read_path_csv(out)
        _x, _y, theta, _kappa = closed_forms.geodesic(1.0, p.t)
        assert p.t[-1] == 30.0
        assert np.max(np.abs(p.theta - theta)) <= 1e-12

    def test_phase_past_bound_is_usage_error(self, tmp_path, capsys):
        # (1 + a) t / 2 = 5e9 is past closed_forms.MAX_PHASE = 2^32
        rc = cli.main(["geodesic", "--a", "1e9", "--t-end", "10",
                       "--output", str(tmp_path / "g.csv")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"

    @pytest.mark.parametrize("a, ell", [(3.0, 1.7), (0.5, 0.5), (0.05, 1.0)])
    def test_default_kappa0_is_the_vertex(self, tmp_path, a, ell):
        out = tmp_path / "g.csv"
        assert cli.main(["geodesic", "--a", repr(a), "--ell", repr(ell),
                         "--t-end", "5", "--output", str(out)]) == 0
        p = read_path_csv(out)
        assert p.theta[0] == 0.5 * math.pi
        assert p.kappa[0] == pytest.approx((1.0 + a) / ell, rel=1e-14)
        ref = integrate_geodesic(canonical_vertex_state(a), 5.0 / ell, 1e-3 / ell)
        assert np.max(np.abs(p.front - ell * ref.front)) <= 1e-12 * ell

    def test_classify_output(self, capsys):
        assert cli.main(["classify", "--a", "0.5", "--kappa0", "1.2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("WideNIE")
        assert "mu=0.36" in out

    def test_lift_and_flip_pipeline(self, tmp_path, capsys):
        lift_csv = tmp_path / "lift.csv"
        assert cli.main(["lift", "--t0", "5", "--t-end", "10",
                         "--output", str(lift_csv)]) == 0
        flip_csv = tmp_path / "flip.csv"
        assert cli.main(["flip", str(lift_csv), "--output", str(flip_csv)]) == 0
        flipped = read_path_csv(flip_csv)
        lifted = read_path_csv(lift_csv)
        assert np.max(np.abs(flipped.back - lifted.back)) <= 1e-9

    @pytest.mark.parametrize("rows", [1, 2])
    def test_flip_of_too_few_rows_is_one_json_line(self, rows, tmp_path, capsys):
        lift_csv = tmp_path / "lift.csv"
        assert cli.main(["lift", "--t0", "5", "--t-end", "10",
                         "--output", str(lift_csv)]) == 0
        short_csv = tmp_path / "short.csv"
        short_csv.write_text("".join(lift_csv.read_text().splitlines(True)[:1 + rows]))
        capsys.readouterr()
        assert cli.main(["flip", str(short_csv), "--output",
                         str(tmp_path / "flip.csv")]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        assert json.loads(lines[0]) == {
            "error": "usage", "message": "need at least 3 samples for residuals"}
        assert not (tmp_path / "flip.csv").exists()

    def test_flip_of_oversized_file_reads_nothing(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        with open(big, "wb") as f:  # sparse: no block is written
            f.truncate(MAX_CSV_CHARS + 1)
        tracemalloc.start()
        try:
            rc = cli.main(["flip", str(big), "--output", str(tmp_path / "f.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert peak < 2**20  # the file was refused unread
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        assert json.loads(lines[0]) == {
            "error": "usage", "message":
            f"CSV input is longer than the limit of {MAX_CSV_CHARS} characters"}
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["geodesic", "--a", "0.7", "--kappa0", "1.2", "--t-end", "5"],
        ["lift", "--t0", "2", "--t-end", "4"],
        ["correspond", "--radius", "2.2", "--theta0", "0.4", "--t-end", "5"],
    ], ids=["geodesic", "lift", "correspond"])
    def test_svg_path_output(self, argv, tmp_path, capsys):
        out = tmp_path / "path.svg"
        assert cli.main(argv + ["--format", "svg", "--output", str(out)]) == 0
        assert capsys.readouterr().out.strip() == str(out)
        root = ET.parse(out).getroot()
        assert root.tag == f"{SVG_NS}svg"
        strokes = [e.get("stroke") for e in root.findall(f"{SVG_NS}polyline")]
        assert strokes == [FRONT_COLOR, BACK_COLOR]

    def test_correspond_line_is_soliton(self, tmp_path):
        from bikegeo.closed_forms import soliton_point, line_lift_theta
        out = tmp_path / "c.csv"
        theta0 = float(line_lift_theta(0.0, 5.0, 1.0))
        assert cli.main(["correspond", "--curve", "line", "--t-end", "10",
                         "--theta0", repr(theta0), "--output", str(out)]) == 0
        corr = read_path_csv(out)
        ref = soliton_point(corr.t, 5.0, 1.0)
        assert np.max(np.abs(corr.front - ref)) <= 1e-6

    def test_shortcut_report(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = cli.main(["shortcut", "--a", "0.5", "--output", str(out)])
        assert rc == 0
        report = capsys.readouterr().out.splitlines()[0]
        assert "N_star=1" in report and "margin=" in report

    @pytest.mark.parametrize("a, rc", [("1000", 0), ("1e9", 0), ("3e9", 1), ("1e16", 1)])
    def test_shortcut_at_large_momenta(self, tmp_path, capsys, a, rc):
        # RK4 at step 1e-3 cannot follow curvature 1e9, the closed form can;
        # past a ~ 2.7e9 its phase passes closed_forms.MAX_PHASE
        assert cli.main(["shortcut", "--a", a,
                         "--output", str(tmp_path / "s.csv")]) == rc
        out, err = capsys.readouterr()
        if rc:
            assert out == "" and len(err.splitlines()) == 1
            error = json.loads(err)
            assert error["error"] == "usage"
            # the phase bound, stated at the momentum the user gave
            assert "(1+a)|s|/2 <= 4294967296" in error["message"]
            assert error["message"].endswith(f" at a = {float(a)}")
            return
        report = dict(field.split("=") for field in out.splitlines()[0].split())
        T, L = closed_forms.elliptic_period_advance(float(a), 1.0)
        assert int(report["N_star"]) == metriclines.shortcut_threshold(T, L)
        assert float(report["margin"]) > 0.0

    @pytest.mark.parametrize("a, t_end", [("3e9", "100"), ("1e14", "1")])
    def test_geodesic_past_the_phase_bound(self, tmp_path, capsys, a, t_end):
        # the bound is checked on the a given, before the unit-speed gate
        # that the default vertex state fails from a ~ 1e14
        assert cli.main(["geodesic", "--a", a, "--t-end", t_end,
                         "--output", str(tmp_path / "g.csv")]) == 1
        error = json.loads(capsys.readouterr().err)
        assert "(1+a)|s|/2 <= 4294967296" in error["message"]
        assert error["message"].endswith(f" at a = {float(a)}")

    def test_product_never_runs_rk4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(geo, "_geodesic_rk4",
                            lambda *args: pytest.fail("RK4 ran on a product path"))
        runs = [["geodesic", "--a", "0.5"], ["shortcut", "--a", "0.5"],
                ["shortcut", "--a", "0.5", "--format", "svg"]]
        runs += [["plot", "--preset", name] for name in cli.PLOT_PRESETS]
        for i, argv in enumerate(runs):
            assert cli.main(argv + ["--output", str(tmp_path / str(i))]) == 0, argv

    def test_output_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BIKEGEO_OUTPUT_DIR", str(tmp_path))
        assert cli.main(["geodesic", "--a", "0.5", "--kappa0", "1.5",
                         "--t-end", "1"]) == 0
        assert (tmp_path / "geodesic.csv").exists()

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "g.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "bikegeo.cli", "classify",
             "--a", "1", "--kappa0", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("Line")
        del out

    def test_import_loads_no_scipy_integrate(self):
        # only the verify command loads the checks and their spline tracks
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, bikegeo, bikegeo.cli; "
             "print(*(name in sys.modules for name in ('scipy.integrate', "
             "'bikegeo.verify', 'scipy.interpolate')))"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False False False"

    def test_closed_forms_imports_nothing_from_analysis(self):
        # the ground-truth layer stays below the diagnostics it checks
        with open(closed_forms.__file__) as fh:
            tree = ast.parse(fh.read())
        modules = [node.module or "" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)]
        modules += [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names]
        assert "core" in modules
        assert not any(name.split(".")[-1] == "analysis" for name in modules)


finite = st.floats(allow_nan=False, allow_infinity=False)
# steps per grid: at most 10^4, or over the budget so that nothing is allocated
step_counts = st.one_of(st.floats(1e-300, 1e4),
                        st.floats(2.0 * geo.MAX_STEPS, 1e300))
PLOT_LENGTHS = (2.0 * math.pi, 30.0)  # shortest and longest preset grids


def _shortcut_length(a, ell):
    """Arc length the shortcut command integrates over, N * T."""
    try:
        T, L = closed_forms.elliptic_period_advance(a, ell)
        return metriclines.shortcut_threshold(T, L, ell) * T
    except Exception:  # the command fails before integrating; judged below
        return 1.0


@st.composite
def cli_argv(draw):
    """A subcommand with every float option drawn from the finite floats,
    and --step drawn against the arc length the command integrates."""
    command = draw(st.sampled_from(
        ["geodesic", "lift", "correspond", "classify", "shortcut", "plot"]))
    argv = [command]

    def opt(name, required=False):
        if required or draw(st.booleans()):
            value = draw(finite)
            if draw(st.booleans()):
                argv.append(f"--{name}={value!r}")
            else:
                argv.extend([f"--{name}", repr(value)])
            return value
        return None

    if command == "classify":
        opt("a", True)
        opt("kappa0", True)
        return argv
    if command == "plot":
        argv += ["--preset", draw(st.sampled_from(sorted(cli.PLOT_PRESETS)))]
        count = draw(step_counts)
        length = PLOT_LENGTHS[count <= 1e4]
        return argv + [f"--step={length / count!r}"]
    ell = opt("ell") or 1.0
    if command == "shortcut":
        a = opt("a", True)
        length = _shortcut_length(a, ell)
    else:
        length = opt("t-end") or 30.0
        opt("theta0")
        if command == "geodesic":
            for name in ("a", "kappa0", "x0", "y0"):
                opt(name, name == "a")
        elif command == "lift":
            opt("t0")
        else:
            argv += ["--curve", draw(st.sampled_from(["line", "circle"]))]
            opt("radius")
    return argv + [f"--step={length / draw(step_counts)!r}"]


class TestCliContract:
    @settings(max_examples=100, deadline=None)
    @given(cli_argv())
    # pi * ell overflows: the threshold N must be refused, not floored
    @example(["shortcut", "--ell", "5.722234971514057e+307", "--a", "3.0",
              "--step=1.0"])
    def test_finite_floats_exit_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as d, \
                warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = cli.main(argv + ["--output", os.path.join(d, "out")])
        assert rc in (0, 1, 2, 3)
        if rc != 0:
            lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        rc = cli.main(["verify", "--suite", "metriclines"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert cli.main(["verify", "--suite", "nope"]) == 1

    @pytest.fixture
    def tiny_suites(self, monkeypatch):
        ran = []

        def check(name):
            def fn():
                ran.append(name)
                return True, "ran"
            fn.__name__ = "check_" + name
            return fn

        monkeypatch.setattr(verify, "SUITES", {"one": [check("a"), check("b")],
                                               "two": [check("c")]})
        return ran

    def test_all_anywhere_runs_each_suite_once(self, tiny_suites):
        for names in (None, ["all"], ["two", "all"], ["one", "all", "one"]):
            tiny_suites.clear()
            results = verify.run_suites(names)
            assert tiny_suites == ["a", "b", "c"]
            assert [r.name for r in results] == ["a", "b", "c"]
        tiny_suites.clear()
        verify.run_suites(["two", "one", "two"])
        assert tiny_suites == ["c", "a", "b"]

    def test_unknown_suite_refused_before_any_check(self, tiny_suites, capsys):
        assert cli.main(["verify", "--suite", "one", "--suite", "nope"]) == 1
        assert tiny_suites == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "usage",
            "message": "unknown suite 'nope'; choose from all, one, two"}
        assert cli.main(["verify", "--suite", "one", "--suite", "all"]) == 0
        assert tiny_suites == ["a", "b", "c"]

    def test_failing_check_exits_two(self, capsys, monkeypatch):
        def check_always_fails():
            return False, "injected failure"

        monkeypatch.setitem(verify.SUITES, "doomed", [check_always_fails])
        rc = cli.main(["verify", "--suite", "doomed"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert json.loads(captured.err.strip())["error"] == "verification"


class TestMutationSmoke:
    """A deliberately injected sign error in the geodesic flow must trip
    at least three independent verification suites, one in the closed-form
    geodesic its RK4 check and two of criteria 3-6, and one in the
    frame-transport generator every lift probe (development fixture)."""

    def test_sign_error_fails_suites(self, monkeypatch):
        good = geo._flow

        def broken(theta, ptheta, px, py):
            dx, dy, dtheta, dptheta = good(theta, ptheta, px, py)
            return dx, dy, dtheta, -dptheta  # wrong sign on the ptheta (curvature) equation

        monkeypatch.setattr(geo, "_flow", broken)
        probes = {
            "integrate": verify.check_unit_speed_constraint,
            "analysis": verify.check_widths,
            "closed_forms": verify.check_soliton_geodesic_matches_closed_form,
            "metriclines": verify.check_shortcut_grid,
        }
        failed_suites = 0
        for fn in probes.values():
            try:
                ok, _ = fn()
            except Exception:
                ok = False
            failed_suites += not ok
        assert failed_suites >= 3

    def test_closed_form_sign_error_fails_checks(self, monkeypatch):
        good = closed_forms._periodic_parts

        def broken(a, u, K, p, m):
            dn, sn2, sncn, d, s = good(a, u, K, p, m)
            return dn, sn2, sncn, d, 2.0 + 2.0 * a - s  # wrong sign on sn^2 in sin(theta)

        monkeypatch.setattr(closed_forms, "_periodic_parts", broken)
        assert not verify.check_exact_geodesic_matches_rk4()[0]
        criteria = [verify.check_elastica_residual_grid, verify.check_widths,
                    verify.check_vertex_angles, verify.check_flip_structure]
        failed = 0
        for fn in criteria:
            try:
                ok, _ = fn()
            except Exception:
                ok = False
            failed += not ok
        assert failed >= 2

    def test_lift_sign_error_fails_suites(self, monkeypatch):
        good = geo._generator_entries

        def broken(d, ell):
            x, y = good(d, ell)
            return -x, y  # wrong sign on x' in the frame-transport generator

        monkeypatch.setattr(geo, "_generator_entries", broken)
        probes = [
            verify.check_transport_monotone,
            verify.check_correspondent_involution,
            verify.check_pressurized,
            verify.check_correspondent_of_line,
            verify.check_lift_matches_closed_forms,
        ]
        passed = []
        for fn in probes:
            try:
                ok, _ = fn()
            except Exception:
                ok = False
            if ok:
                passed.append(fn.__name__)
        assert passed == []
