"""Configuration-space types, group actions and path operations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bikegeo.core import (BikeLength, ConfigPoint, RigidMotion,
                          SampledBikePath, act, angle_difference, dilate_path,
                          flip, flip_path, from_st_model,
                          horizontality_residuals, normalize_angle,
                          path_length, speed_errors,
                          st_horizontality_residuals, to_st_model,
                          validate_path)
from bikegeo.errors import DegenerateInputError, HorizontalityError
from bikegeo.integrate import FrontTrackSpec, horizontal_lift

angles = st.floats(-50.0, 50.0, allow_nan=False)
coords = st.floats(-100.0, 100.0, allow_nan=False)


def line_path(t_end=5.0, n=5001):
    t = np.linspace(0.0, t_end, n)
    front = np.stack([t, np.zeros_like(t)], axis=1)
    return SampledBikePath(t, front, np.zeros_like(t), np.zeros_like(t))


def circle_path(n=62832):
    t = np.linspace(0.0, 2 * math.pi, n)
    front = np.stack([np.cos(t), np.sin(t)], axis=1)
    # back wheel at the center: frame points radially outward
    return SampledBikePath(t, front, t, np.ones_like(t))


class TestAngles:
    @given(angles)
    def test_normalized_range(self, theta):
        r = normalize_angle(theta)
        assert -math.pi < r <= math.pi

    @given(angles)
    def test_congruent_mod_two_pi(self, theta):
        r = normalize_angle(theta)
        assert abs(math.remainder(r - theta, 2 * math.pi)) < 1e-9

    def test_pi_maps_to_pi(self):
        assert normalize_angle(math.pi) == math.pi
        assert normalize_angle(-math.pi) == math.pi


class TestBikeLength:
    def test_default_is_one(self):
        assert float(BikeLength()) == 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            BikeLength(bad)

    @pytest.mark.parametrize("ell", [2, np.float64(2.0)])
    def test_any_real_is_stored_as_float(self, ell):
        # float(BikeLength) must return a float: Python raises TypeError
        # for an int and warns for a numpy float
        assert type(BikeLength(ell).ell) is float
        p = ConfigPoint(2, 3, 0.4)
        got, want = to_st_model(p, BikeLength(ell)), to_st_model(p, 2.0)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestStModel:
    def test_axis_aligned(self):
        b, v = to_st_model(ConfigPoint(0, 0, 0), 1.0)
        assert np.allclose(b, [-1, 0], atol=1e-15)
        assert np.allclose(v, [1, 0], atol=1e-15)

    def test_quarter_rotation(self):
        b, v = to_st_model(ConfigPoint(0, 0, math.pi / 2), 1.0)
        assert np.allclose(b, [0, -1], atol=1e-15)
        assert np.allclose(v, [0, 1], atol=1e-15)

    def test_sign_flip_and_scaling(self):
        b, v = to_st_model(ConfigPoint(2, 3, math.pi), BikeLength(2.0))
        assert np.allclose(b, [4, 3], atol=1e-15)
        assert np.allclose(v, [-1, 0], atol=1e-15)

    @given(coords, coords, angles, st.floats(0.1, 5.0))
    def test_roundtrip(self, x, y, theta, ell):
        p = ConfigPoint(x, y, theta)
        q = from_st_model(*to_st_model(p, ell), ell)
        scale = max(1.0, abs(x), abs(y))
        assert abs(q.x - p.x) <= 1e-15 * scale
        assert abs(q.y - p.y) <= 1e-15 * scale
        assert abs(angle_difference(q.theta, p.theta)) <= 1e-15


class TestFlip:
    def test_axis_example(self):
        q = flip(ConfigPoint(0, 0, 0), 1.0)
        assert (q.x, q.y) == (-2.0, 0.0)
        assert q.theta == math.pi

    def test_back_wheel_fixed(self):
        p = ConfigPoint(1.3, -0.4, 0.9)
        q = flip(p, 1.7)
        assert np.allclose(q.back(1.7), p.back(1.7), atol=1e-15)

    @given(coords, coords, angles, st.floats(0.2, 4.0))
    def test_involution(self, x, y, theta, ell):
        p = ConfigPoint(x, y, theta)
        q = flip(flip(p, ell), ell)
        scale = max(1.0, abs(p.x), abs(p.y))
        assert abs(q.x - p.x) <= 1e-14 * scale
        assert abs(q.y - p.y) <= 1e-14 * scale
        assert abs(angle_difference(q.theta, p.theta)) <= 1e-14

    def test_flip_in_st_model_negates_tangent(self):
        # the flip reads (b, v) -> (b, -v) in the other coordinates
        p = ConfigPoint(0.7, -1.2, 2.1)
        b, v = to_st_model(p, 1.0)
        b2, v2 = to_st_model(flip(p, 1.0), 1.0)
        assert np.allclose(b2, b, atol=1e-14)
        assert np.allclose(v2, -v, atol=1e-14)


class TestAct:
    def test_identity(self):
        p = ConfigPoint(1.0, 2.0, 0.5)
        q = act(RigidMotion(), p)
        assert (q.x, q.y, q.theta) == (p.x, p.y, p.theta)

    def test_reflection_about_x_axis(self):
        p = ConfigPoint(1.0, 2.0, 0.5)
        q = act(RigidMotion.reflection_x(), p)
        assert np.allclose([q.x, q.y, q.theta], [1.0, -2.0, -0.5], atol=1e-15)

    def test_quarter_rotation(self):
        q = act(RigidMotion(math.pi / 2), ConfigPoint(1, 0, 0))
        assert np.allclose([q.x, q.y, q.theta], [0.0, 1.0, math.pi / 2], atol=1e-15)

    def test_back_wheel_maps_consistently(self):
        # the frame-angle law is pinned by requiring b -> g(b)
        g = RigidMotion(0.8, (0.3, -0.7), -1)
        p = ConfigPoint(1.1, 0.4, 2.0)
        q = act(g, p)
        assert np.allclose(q.back(1.0), g.apply_point(p.back(1.0)), atol=1e-14)

    @given(st.tuples(angles, coords, coords, st.sampled_from([1, -1])),
           st.tuples(angles, coords, coords, st.sampled_from([1, -1])),
           coords, coords, angles)
    def test_composition(self, gt, ht, x, y, theta):
        g = RigidMotion(gt[0], (gt[1], gt[2]), gt[3])
        h = RigidMotion(ht[0], (ht[1], ht[2]), ht[3])
        p = ConfigPoint(x, y, theta)
        lhs = act(g.compose(h), p)
        rhs = act(g, act(h, p))
        scale = max(1.0, abs(lhs.x), abs(lhs.y))
        assert abs(lhs.x - rhs.x) <= 1e-12 * scale
        assert abs(lhs.y - rhs.y) <= 1e-12 * scale
        assert abs(angle_difference(lhs.theta, rhs.theta)) <= 1e-12

    def test_raw_points_refused(self):
        with pytest.raises(TypeError, match="apply_point"):
            act(RigidMotion(0.3), np.array([1.0, 2.0]))

    def test_inverse(self):
        g = RigidMotion(1.1, (2.0, -3.0), -1)
        gi = g.inverse()
        p = np.array([0.4, 1.9])
        assert np.allclose(gi.apply_point(g.apply_point(p)), p, atol=1e-14)


class TestPathLength:
    def test_straight_line(self):
        assert abs(path_length(line_path()) - 5.0) <= 1e-9

    def test_unit_circle(self):
        assert abs(path_length(circle_path()) - 2 * math.pi) <= 1e-6

    def test_rejects_single_sample(self):
        p = line_path()
        short = SampledBikePath(p.t[:1], p.front[:1], p.theta[:1], p.kappa[:1])
        with pytest.raises(DegenerateInputError):
            path_length(short)

    def test_invariant_under_flip(self):
        # chord sums of the original and flipped tracks differ at O(h^2)
        # through their curvature profiles, so resolve finely
        lift = horizontal_lift(FrontTrackSpec.line(0.0, 10.0), -1.0, step=1e-4)
        a = path_length(lift)
        b = path_length(flip_path(lift))
        assert abs(a - b) <= 1e-9 * a

    def test_invariant_under_motions(self):
        p = circle_path(10001)
        base = path_length(p)
        g = RigidMotion(0.6, (3.0, -1.0), -1)
        assert abs(path_length(act(g, p)) - base) <= 1e-9 * base


class TestSampledBikePath:
    def test_requires_increasing_t(self):
        t = np.array([0.0, 0.0, 1.0])
        z = np.zeros(3)
        with pytest.raises(ValueError):
            SampledBikePath(t, np.zeros((3, 2)), z, z)

    def test_arrays_frozen(self):
        p = line_path()
        with pytest.raises(ValueError):
            p.t[0] = 3.0

    def test_value_equality(self):
        # independently built paths hold distinct arrays
        p, q = line_path(), line_path()
        assert p == q and not p != q
        assert p != line_path(n=5002)
        assert p != line_path(t_end=4.0)
        assert p != SampledBikePath(p.t, p.front, p.theta, p.kappa, 2.0)
        assert p != SampledBikePath(p.t, p.front, p.theta, p.kappa, drift=0.0)
        assert p != "line"
        with pytest.raises(TypeError):
            hash(p)

    def test_back_track_at_frame_distance(self):
        p = circle_path(1001)
        d = np.linalg.norm(p.front - p.back, axis=1)
        assert np.allclose(d, p.ell, atol=1e-15)

    def test_validate_accepts_horizontal(self):
        lift = horizontal_lift(FrontTrackSpec.line(0.0, 10.0), -1.0)
        hres, sres = validate_path(lift)
        assert hres < 1e-6
        assert sres < 1e-6

    def test_validate_rejects_skidding(self):
        p = line_path()
        bad = SampledBikePath(p.t, p.front, p.t.copy(), p.kappa)  # theta ramps
        with pytest.raises(HorizontalityError):
            validate_path(bad)


class TestFlipPath:
    def test_collinear_lift_front_stays_on_line(self):
        # back wheel on the line: the flipped front track is the same line
        lift = horizontal_lift(FrontTrackSpec.line(0.0, 10.0), 0.0)
        flipped = flip_path(lift)
        assert np.max(np.abs(flipped.front[:, 1])) <= 1e-12
        assert np.max(np.abs(angle_difference(flipped.theta, math.pi))) <= 1e-12

    def test_shares_back_track(self):
        lift = horizontal_lift(FrontTrackSpec.line(0.0, 10.0), -0.7)
        flipped = flip_path(lift)
        assert np.max(np.abs(flipped.back - lift.back)) <= 1e-12

    def test_rejects_nonhorizontal_input(self):
        p = line_path()
        bad = SampledBikePath(p.t, p.front, p.t.copy(), p.kappa)
        with pytest.raises(HorizontalityError):
            flip_path(bad)

    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_fewer_than_three_samples(self, n):
        p = line_path(n=5)
        short = SampledBikePath(p.t[:n], p.front[:n], p.theta[:n], p.kappa[:n])
        with pytest.raises(DegenerateInputError, match="at least 3 samples"):
            flip_path(short)

    def test_residual_slack_factor(self):
        lift = horizontal_lift(FrontTrackSpec.line(0.0, 10.0), -0.7)
        r_in = horizontality_residuals(lift).max()
        r_out = horizontality_residuals(flip_path(lift)).max()
        assert r_out <= 2.0 * r_in + 1e-4


class TestDilation:
    def test_scales_geometry(self):
        lift = horizontal_lift(FrontTrackSpec.line(0.0, 10.0), -0.7)
        big = dilate_path(lift, 2.0)
        assert np.allclose(big.front, 2.0 * lift.front)
        assert np.allclose(big.kappa, 0.5 * lift.kappa)
        assert big.ell == 2.0 * lift.ell

    def test_preserves_horizontality(self):
        lift = horizontal_lift(FrontTrackSpec.line(0.0, 10.0), -0.7)
        big = dilate_path(lift, 3.0)
        assert horizontality_residuals(big).max() <= 1e-6
        assert speed_errors(big).max() <= 1e-6


def test_st_model_residual_cross_check():
    # the no-skid residual vanishes in the alternate coordinates too
    lift = horizontal_lift(FrontTrackSpec.line(0.0, 10.0), -0.7)
    assert st_horizontality_residuals(lift).max() <= 1e-7
