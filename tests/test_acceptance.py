"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (run pytest with -s to watch them) and
asserts the underlying check.  Tolerances are fixed here and in
bikegeo.verify; nothing is calibrated at run time.
"""

from bikegeo import verify


def _report(num, title, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {title} -- {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


def test_criterion_01_energy_conservation():
    ok, detail = verify.check_energy_conservation()
    _report(1, "energy conservation |H - 1/2| <= 1e-9", ok, detail)


def test_criterion_02_curvature_equals_momentum():
    ok, detail = verify.check_curvature_is_momentum()
    _report(2, "front-track curvature equals p_theta to 1e-5", ok, detail)


def test_criterion_03_elastica_energy_form():
    ok, detail = verify.check_elastica_residual_grid()
    _report(3, "energy-form residual <= 1e-6 with A=-(a^2+1)/2, B=-(a^2-1)^2/8",
            ok, detail)


def test_criterion_04_widths():
    ok, detail = verify.check_widths()
    _report(4, "front width 2 resp. 2/a, back width formulas, to 1e-4",
            ok, detail)


def test_criterion_05_vertex_angles():
    ok, detail = verify.check_vertex_angles()
    _report(5, "frame angle +-pi/2 at curvature vertices to 1e-4", ok, detail)


def test_criterion_06_flip_structure():
    ok, detail = verify.check_flip_structure()
    _report(6, "flip = half-period translation (wide) / glide reflection (narrow)",
            ok, detail)


def test_criterion_07_tractrix_soliton_oracle():
    ok, detail = verify.check_lift_matches_closed_forms()
    _report(7, "line lift matches tractrix/soliton closed forms to 1e-6",
            ok, detail)


def test_criterion_08_shortcut():
    ok, detail = verify.check_shortcut_grid()
    _report(8, "shortcut of length pi*ell + N*L beats the geodesic, "
            "RK4 lands on its end to 1e-4", ok, detail)


def test_criterion_09_mobius_transport():
    ok1, d1 = verify.check_mobius_universal()
    ok2, d2 = verify.check_cross_ratio_preserved()
    _report(9, "transport is a Moebius map (fit + cross-ratio) to 1e-6",
            ok1 and ok2, f"{d1}; {d2}")


def test_criterion_10_pressurized_elastica():
    ok, detail = verify.check_pressurized()
    _report(10, "circle correspondents are pressurized elasticae (C != 0)",
            ok, detail)


def test_criterion_11_isometry_suite():
    ok1, d1 = verify.check_length_isometry()
    ok2, d2 = verify.check_flip_involution()
    _report(11, "flip and rigid motions preserve length; flip is an involution",
            ok1 and ok2, f"{d1}; {d2}")


def test_criterion_12_dilation_law():
    ok, detail = verify.check_dilation_covariance()
    _report(12, "dilation maps (A, B) to (A/l^2, B/l^4), mu invariant",
            ok, detail)


def test_criterion_13_cli_determinism():
    ok, detail = verify.check_cli_determinism()
    _report(13, "repeated CLI runs produce byte-identical CSV", ok, detail)
