"""CSV round trips, SVG rendering, CLI contract, mutation smoke test."""

import filecmp
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bikegeo import cli, verify
from bikegeo import integrate as geo
from bikegeo.errors import DivergenceError
from bikegeo.io import (SvgScene, path_from_csv, path_scene, path_to_csv,
                        read_path_csv, write_path_csv)
from bikegeo.integrate import canonical_vertex_state, integrate_geodesic


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

    def test_file_io(self, short_path, tmp_path):
        f = tmp_path / "p.csv"
        write_path_csv(short_path, f)
        q = read_path_csv(f)
        assert np.array_equal(q.t, short_path.t)


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

    def test_directrix_and_arrows(self, short_path):
        from bikegeo.analysis import find_vertices
        rep = find_vertices(integrate_geodesic(canonical_vertex_state(0.5), 15.0))
        scene = path_scene(short_path, vertices=rep.maxima(), directrix_y=-3.0)
        svg = scene.render()
        assert "stroke-dasharray" in svg
        assert "<polygon" in svg  # arrow heads


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
        ["classify", "--a", "nan", "--kappa0", "1"],
        ["classify", "--a", "0.5", "--kappa0", "inf"],
        ["lift", "--t0", "nan"],
        ["correspond", "--radius", "inf"],
        ["correspond", "--radius", "0"],
        ["shortcut", "--a", "-0.5"],
        ["shortcut", "--a", "0.5", "--ell=-inf"],
        ["plot", "--preset", "fig-kink", "--step", "nan"],
    ], ids="_".join)
    def test_bad_float_is_one_json_line(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BIKEGEO_OUTPUT_DIR", str(tmp_path))
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "usage"
        assert captured.out == ""
        assert not any(tmp_path.iterdir())

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


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        rc = cli.main(["verify", "--suite", "metriclines"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert cli.main(["verify", "--suite", "nope"]) == 1

    def test_failing_check_exits_two(self, capsys, monkeypatch):
        monkeypatch.setitem(
            verify.SUITES, "doomed",
            [("always_fails", lambda: (False, "injected failure"))])
        rc = cli.main(["verify", "--suite", "doomed"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert json.loads(captured.err.strip())["error"] == "verification"


class TestMutationSmoke:
    """A deliberately injected sign error in the reduced flow must trip
    at least three independent verification suites (development fixture)."""

    def test_sign_error_fails_suites(self, monkeypatch):
        good = geo._reduced_rhs_arr

        def broken(y, a):
            d = good(y, a)
            d[..., 3] = -d[..., 3]  # wrong sign on the curvature equation
            return d

        monkeypatch.setattr(geo, "_reduced_rhs_arr", broken)
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
