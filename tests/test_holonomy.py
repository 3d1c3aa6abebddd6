"""Frame-angle transport, Moebius structure, correspondents."""

import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from bikegeo.closed_forms import line_lift_theta, soliton_point
from bikegeo.core import normalize_angles
from bikegeo.errors import (DegenerateInputError, ImmersionError,
                            RankDeficiencyError)
from bikegeo.holonomy import (MobiusMap, TransportSample, correspondent,
                              cross_ratio_angles, fit_mobius,
                              pressurized_fit, transport, transport_samples)
from bikegeo.integrate import (FrontTrackSpec, _grid, _running_product,
                               _step_maps, lift_frame_angles)
from bikegeo.verify import _random_immersed_track, _theta_rk4


def random_track(seed, n_ctrl=8, scale=3.0):
    rng = np.random.default_rng(seed)
    for _ in range(32):
        pts = np.cumsum(rng.normal(0, scale / n_ctrl, size=(n_ctrl, 2)), axis=0)
        sp = CubicSpline(np.linspace(0, 1, n_ctrl), pts, axis=0)
        track = FrontTrackSpec.from_spline(sp, 0.0, 1.0)
        tt = np.linspace(0, 1, 1001)
        d = track.derivative(tt)
        speed = np.hypot(d[:, 0], d[:, 1])
        if speed.min() > 0.25 * speed.mean():
            return track
    raise RuntimeError("no immersed sample track")


def theta_rk4_samples(track, thetas):
    """Transport samples from RK4 on the nonlinear theta equation (ell = 1,
    step 2e-4).  The lift is a product of 2x2 maps, so a Moebius fit of its
    own samples would hold by construction."""
    return [TransportSample(a, b) for a, b in zip(thetas, _theta_rk4(track, thetas))]


class TestTransport:
    def test_constant_curve_rejected(self):
        const = FrontTrackSpec(
            curve=lambda t: np.zeros(np.shape(t) + (2,)),
            derivative=lambda t: np.zeros(np.shape(t) + (2,)),
            t0=0.0, t1=1.0)
        with pytest.raises(ImmersionError):
            transport(const, 0.0)

    def test_full_circle_from_center(self):
        # back wheel at the center: theta advances by the full turning
        circ = FrontTrackSpec.circle(1.0, 0.0, 2 * math.pi)
        out = transport(circ, 0.0, 1.0, 1e-3)
        assert abs(out - 2 * math.pi) <= 1e-9

    def test_long_straight_segment_attracts(self):
        # the tractrix pulls every initial angle toward alignment
        line = FrontTrackSpec.line(0.0, 20.0)
        for theta0 in (-3.0, -2.0, -0.5):
            out = transport(line, theta0, 1.0, 1e-3)
            assert abs(out) < 1e-3

    def test_matches_closed_form_for_line(self):
        t0 = 6.0
        theta0 = float(line_lift_theta(0.0, t0, 1.0))
        out = transport(FrontTrackSpec.line(0.0, 12.0), theta0, 1.0, 1e-3)
        assert abs(out - float(line_lift_theta(12.0, t0, 1.0))) <= 1e-9


class TestMobiusFit:
    def test_identity_samples(self):
        thetas = np.linspace(-3.0, 3.0, 8)
        samples = [TransportSample(t, t) for t in thetas]
        mob, resid = fit_mobius(samples)
        assert resid <= 1e-12
        assert np.max(np.abs(normalize_angles(mob.apply(thetas) - thetas))) <= 1e-12

    def test_needs_six_samples(self):
        samples = [TransportSample(t, t) for t in (0.0, 0.5, 1.0, 1.5, 2.0)]
        with pytest.raises(DegenerateInputError):
            fit_mobius(samples)

    def test_degenerate_set_rejected(self):
        samples = [TransportSample(0.3, 0.4)] * 7
        with pytest.raises(DegenerateInputError):
            fit_mobius(samples)

    def test_points_across_the_seam_are_one(self):
        # pi and -pi + 1e-15 are one fiber point: five distinct in all
        thetas = [math.pi, -math.pi + 1e-15, -2.0, -1.0, 0.5, 1.5]
        with pytest.raises(DegenerateInputError):
            fit_mobius([TransportSample(t, t) for t in thetas])

    def test_rank_deficient_rejected(self):
        # two distinct fiber points repeated never pin down the map
        samples = ([TransportSample(0.1 + 1e-13 * k, 0.2) for k in range(4)]
                   + [TransportSample(2.0 + 1e-13 * k, 2.4) for k in range(4)])
        with pytest.raises((RankDeficiencyError, DegenerateInputError)):
            fit_mobius(samples)

    def test_transport_is_mobius(self):
        track = random_track(101)
        thetas = np.linspace(-math.pi, math.pi, 12, endpoint=False) + 0.05
        mob, resid = fit_mobius(theta_rk4_samples(track, thetas))
        assert resid <= 1e-6
        # the fitted map predicts fresh fiber points too
        probe = np.array([0.123, -1.9, 2.8])
        out = _theta_rk4(track, probe)
        pred = mob.apply(probe)
        assert np.max(np.abs(normalize_angles(pred - out))) <= 1e-6

    def test_handles_fiber_point_at_pi(self):
        track = random_track(103)
        thetas = np.concatenate([[math.pi], np.linspace(-2.5, 2.5, 9)])
        _, resid = fit_mobius(theta_rk4_samples(track, thetas))
        assert resid <= 1e-6

    def test_samples_match_theta_rk4(self):
        track = random_track(109)
        thetas = np.linspace(-3.0, 3.0, 7)
        samples = transport_samples(track, thetas, 1.0, 2e-4)
        gap = [s.theta_out - r.theta_out
               for s, r in zip(samples, theta_rk4_samples(track, thetas))]
        assert np.max(np.abs(gap)) <= 1e-9

    def test_cross_ratio_preserved(self):
        track = random_track(107)
        probe = np.array([-2.0, -0.7, 0.5, 1.8])
        cr_in = cross_ratio_angles(probe)
        cr_out = cross_ratio_angles(normalize_angles(_theta_rk4(track, probe)))
        assert abs(cr_in - cr_out) <= 1e-6

    def test_unit_determinant(self):
        m = MobiusMap(np.array([[2.0, 0.0], [0.0, 2.0]])).chart_matrix
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(det - 1.0) <= 1e-12

    def test_value_equality(self):
        m = np.array([[1.3, -0.4], [0.2, 0.9]])
        mob = MobiusMap(m)
        assert mob == MobiusMap(m.copy()) and not mob != MobiusMap(m.copy())
        assert mob == MobiusMap(2.0 * m)  # stored at |det| = 1
        assert mob != MobiusMap(m.T)
        assert mob != "map"
        with pytest.raises(TypeError):
            hash(mob)

    def test_reflection_keeps_negative_determinant(self):
        # (s, c) -> (c, s) is theta -> pi - theta
        mob = MobiusMap(np.array([[0.0, 3.0], [3.0, 0.0]]))
        assert np.array_equal(mob.chart_matrix, [[0.0, 1.0], [1.0, 0.0]])
        thetas = np.array([-2.5, -0.3, 0.0, 1.1, 3.0])
        gap = normalize_angles(mob.apply(thetas) - (math.pi - thetas))
        assert np.max(np.abs(gap)) <= 1e-15

    @pytest.mark.parametrize("m", [
        [[math.nan, 0.0], [0.0, 1.0]], [[1.0, math.inf], [0.0, 1.0]],
        [[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0, 0.0]]],
        ids=["nan", "inf", "singular", "zero", "not_2x2"])
    def test_bad_matrix_rejected(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                MobiusMap(np.array(m))

    def test_fit_of_lift_is_its_transport_product(self):
        # the map is stored in the lift's chart: a fit through the lift's
        # own samples is the lift's normalized transport product
        track = _random_immersed_track(np.random.default_rng(41))
        thetas = np.linspace(-math.pi, math.pi, 12, endpoint=False) + 0.05
        _t, theta = lift_frame_angles(track, thetas, 1.0, 2e-4)
        mob, _resid = fit_mobius([TransportSample(a, b)
                                  for a, b in zip(thetas, theta[-1])])
        n, h = _grid(track.t1 - track.t0, 2e-4)
        t = track.t0 + np.arange(n + 1) * h
        maps = _step_maps(track.derivative(t), track.derivative(t[:-1] + 0.5 * h),
                          h, 1.0)
        product = _running_product(maps[:, 1:])[:, -1].reshape(2, 2)
        product = product / math.sqrt(abs(np.linalg.det(product)))
        gap = min(np.max(np.abs(mob.chart_matrix - product)),
                  np.max(np.abs(mob.chart_matrix + product)))
        assert gap <= 1e-12


class TestCrossRatio:
    def test_invariant_under_a_mobius_map(self):
        mob = MobiusMap(np.array([[1.3, -0.4], [0.2, 0.9]]))
        probe = np.array([-2.0, -0.7, 0.5, 1.8])
        assert (abs(cross_ratio_angles(probe) - cross_ratio_angles(mob.apply(probe)))
                <= 1e-12)

    @pytest.mark.parametrize("thetas", [
        [0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 2.0 * math.pi],
        [-1.0, 0.5, 2.0 - 4.0 * math.pi, 2.0],
        [math.pi, -math.pi + 1e-15, 0.5, 1.0], [0.5, math.pi, 1.0, -math.pi]],
        ids=["repeated", "full_turn", "two_turns", "seam", "seam_exact"])
    def test_coincident_fiber_points_rejected(self, thetas):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError):
                cross_ratio_angles(thetas)

    @pytest.mark.parametrize("thetas", [
        [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0, -1.0], [0.0, 1.0, math.nan, 2.0],
        [0.0, math.inf, 1.0, 2.0]], ids=["three", "five", "nan", "inf"])
    def test_not_four_finite_angles_rejected(self, thetas):
        with pytest.raises(ValueError, match="four finite angles"):
            cross_ratio_angles(thetas)


class TestCorrespondent:
    def test_line_gives_soliton(self):
        t0 = 10.0
        theta0 = float(line_lift_theta(0.0, t0, 1.0))
        corr = correspondent(FrontTrackSpec.line(0.0, 20.0), theta0, 1.0, 1e-3)
        ref = soliton_point(corr.t, t0, 1.0)
        assert np.max(np.abs(corr.front - ref)) <= 1e-6

    def test_aligned_line_is_fixed(self):
        corr = correspondent(FrontTrackSpec.line(0.0, 10.0), 0.0, 1.0, 1e-3)
        assert np.max(np.abs(corr.front[:, 1])) <= 1e-12

    def test_shares_back_track_with_lift(self):
        from bikegeo.integrate import horizontal_lift
        track = FrontTrackSpec.circle(1.0, 0.0, 6.0)
        lift = horizontal_lift(track, 0.7, 1.0, 1e-3)
        corr = correspondent(track, 0.7, 1.0, 1e-3)
        assert np.max(np.abs(corr.back - lift.back)) <= 1e-12


class TestPressurizedFit:
    def test_circle_correspondent_has_pressure(self):
        circ = FrontTrackSpec.circle(1.0, 0.0, 4 * math.pi)
        corr = correspondent(circ, 0.7, 1.0, 1e-3)
        A, C, resid = pressurized_fit(corr)
        assert resid <= 1e-5
        assert abs(C) > 1e-3

    def test_soliton_has_no_pressure(self):
        t = np.arange(-20.0, 20.0, 1e-3)
        sol = soliton_point(t, 0.0, 1.0)
        A, C, resid = pressurized_fit(sol, t - t[0])
        assert resid <= 1e-5
        assert abs(C) <= 1e-5
        assert abs(A + 1.0) <= 1e-3  # A = -1/ell^2 for the unit frame

    def test_constant_curvature_minimum_norm(self):
        # circle of radius 2: any (A, C) with 0.5*A - C = -1/16 fits;
        # the minimum-norm representative is (-0.025, 0.05)
        t = np.arange(0.0, 4 * math.pi, 1e-2)
        front = 2.0 * np.stack([np.cos(t / 2.0), np.sin(t / 2.0)], axis=1)
        A, C, resid = pressurized_fit(front, t)
        assert resid <= 1e-6
        assert abs(A + 0.025) <= 1e-6
        assert abs(C - 0.05) <= 1e-6

    def test_too_few_samples(self):
        t = np.linspace(0.0, 1.0, 8)
        front = np.stack([t, np.zeros_like(t)], axis=1)
        with pytest.raises(DegenerateInputError):
            pressurized_fit(front, t)

    @pytest.mark.parametrize("bad, match", [
        ("nan_front", "front must be finite"), ("inf_t", "t must be finite"),
        ("short_t", "t must be finite, one value per front sample"),
        ("constant_t", "strictly increasing"),
        ("decreasing_t", "strictly increasing"),
        ("path_t", "t is given only with an array front")])
    def test_bad_input_rejected_before_resampling(self, bad, match, capfd):
        t = np.arange(0.0, 4 * math.pi, 1e-2)
        front = 2.0 * np.stack([np.cos(t / 2.0), np.sin(t / 2.0)], axis=1)
        if bad == "nan_front":
            front[100, 0] = math.nan
        elif bad == "inf_t":
            t[3] = math.inf
        elif bad == "short_t":
            t = t[:-5]
        elif bad == "constant_t":
            t = np.zeros_like(t)
        elif bad == "path_t":  # a path carries its own t
            front = correspondent(FrontTrackSpec.circle(2.0, 0.0, 4 * math.pi),
                                  0.7, 1.0, 1e-2)
        else:
            t = t[::-1].copy()
        with pytest.raises(ValueError, match=match):
            pressurized_fit(front, t)
        # nothing reaches LAPACK, which would print its own complaint
        assert capfd.readouterr().err == ""
