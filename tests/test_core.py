"""Configuration-space types, group actions and path operations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bikegeo.core import (ConfigPoint, RigidMotion, SampledBikePath, act,
                          default_horizontality_tol, dilate_path, flip,
                          flip_path, from_st_model,
                          horizontality_residuals, normalize_angle,
                          normalize_angles, path_length, speed_errors,
                          st_horizontality_residuals, to_st_model,
                          validate_path)
from bikegeo.errors import DegenerateInputError, HorizontalityError
from bikegeo.integrate import (FrontTrackSpec, ReducedState, horizontal_lift,
                               integrate_geodesic)

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
    """The frame length ell, as every function that takes one reads it."""

    def test_default_is_one(self):
        p = ConfigPoint(2, 3, 0.4)
        got, want = to_st_model(p), to_st_model(p, 1.0)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="frame length"):
            to_st_model(ConfigPoint(2, 3, 0.4), bad)

    @pytest.mark.parametrize("ell", [2, np.float64(2.0)])
    def test_any_real_is_stored_as_float(self, ell):
        line = line_path(n=3)
        path = SampledBikePath(line.t, line.front, line.theta, line.kappa, ell)
        assert type(path.ell) is float
        p = ConfigPoint(2, 3, 0.4)
        got, want = to_st_model(p, ell), to_st_model(p, 2.0)
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
        b, v = to_st_model(ConfigPoint(2, 3, math.pi), 2.0)
        assert np.allclose(b, [4, 3], atol=1e-15)
        assert np.allclose(v, [-1, 0], atol=1e-15)

    @given(coords, coords, angles, st.floats(0.1, 5.0))
    def test_roundtrip(self, x, y, theta, ell):
        p = ConfigPoint(x, y, theta)
        q = from_st_model(*to_st_model(p, ell), ell)
        scale = max(1.0, abs(x), abs(y))
        assert abs(q.x - p.x) <= 1e-15 * scale
        assert abs(q.y - p.y) <= 1e-15 * scale
        assert abs(normalize_angles(q.theta - p.theta)) <= 1e-15


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
        assert abs(normalize_angles(q.theta - p.theta)) <= 1e-14

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
        assert abs(normalize_angles(lhs.theta - rhs.theta)) <= 1e-12

    def test_raw_points_refused(self):
        with pytest.raises(TypeError, match="apply_point"):
            act(RigidMotion(0.3), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("g", [RigidMotion(0.0, (1.7e308, 0.0)),
                                   RigidMotion(0.25 * math.pi, (0.0, 0.0))])
    def test_overflow_to_inf_refused(self, g):
        # a front translated, or rotated from the diagonal onto an axis,
        # past the largest float
        t = np.arange(3.0)
        far = SampledBikePath(t, np.full((3, 2), 1.5e308), t, t)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            act(g, far)

    @pytest.mark.parametrize("orientation", [1, -1])
    def test_apply_point_bitwise_as_broadcast_translation(self, orientation):
        # the translation is added one column at a time; the sums are
        # those of the (n, 2) + (2,) broadcast
        rng = np.random.default_rng(3)
        g = RigidMotion(2.3, (0.1, -7.0 / 3.0), orientation)
        for p in (np.array([0.4, -1.9]), rng.normal(size=(1001, 2)) * 10.0,
                  rng.normal(size=(3, 4, 2))):
            ref = p @ g.linear_matrix.T + np.asarray(g.translation)
            got = g.apply_point(p)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

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

    def test_constructor_copies(self):
        t = np.linspace(0.0, 1.0, 5)
        front, theta = np.zeros((5, 2)), np.zeros(5)
        p = SampledBikePath(t, front, theta, theta)
        for mine, given_ in ((p.t, t), (p.front, front), (p.theta, theta),
                             (p.kappa, theta)):
            assert not np.shares_memory(mine, given_)
        assert t.flags.writeable and front.flags.writeable

    def test_producers_hand_over_distinct_frozen_arrays(self):
        # integrate_geodesic, act and flip_path build their paths without
        # copies: every array is read-only and owned by that path alone,
        # except the t that act and flip_path share with their source
        state = ReducedState(0.0, 0.0, 0.5 * math.pi, 1.5, 0.5)
        geo = integrate_geodesic(state, 5.0)
        moved = act(RigidMotion(0.4, (1.0, -2.0), -1), geo)
        flipped = flip_path(geo)
        paths = (geo, moved, flipped)
        arrays = [(i, k, getattr(p, k)) for i, p in enumerate(paths)
                  for k in ("t", "front", "theta", "kappa")]
        for _i, _k, arr in arrays:
            assert not arr.flags.writeable
        for n, (i, k, arr) in enumerate(arrays):
            for j, l, other in arrays[n + 1:]:
                assert np.shares_memory(arr, other) == (k == l == "t"), (i, k, j, l)

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

    @pytest.mark.parametrize("n", [1, 2])
    def test_validate_refuses_short_path_before_any_statistic(self, n):
        # refused before the tolerance takes a median over an empty diff
        p = SampledBikePath(np.arange(n, dtype=float), np.zeros((n, 2)),
                            np.full(n, 0.1), np.zeros(n))
        with pytest.raises(DegenerateInputError, match="at least 3 samples"):
            validate_path(p)
        if n == 1:
            with pytest.raises(DegenerateInputError, match="at least 2 samples"):
                default_horizontality_tol(p)

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
        assert np.max(np.abs(normalize_angles(flipped.theta - math.pi))) <= 1e-12

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

    def test_overflowing_tolerance_refused(self):
        # (1 + kappa_max)^2 of a circle of radius 1.4e-190 overflows a
        # float: the flip names it instead of raising OverflowError
        step = 3.352474372643351e-160
        track = FrontTrackSpec.circle(1.439796875609128e-190, 0.0, 2 * step)
        lift = horizontal_lift(track, 0.7, 1.0, step)
        assert len(lift) == 3
        with pytest.raises(DegenerateInputError, match="tolerance overflows"):
            flip_path(lift)
        # where the product, not the square, overflows to inf
        t = np.arange(3.0)
        big = SampledBikePath(t, np.zeros((3, 2)), t, np.full(3, 1e150), 1e10)
        with pytest.raises(DegenerateInputError, match="tolerance overflows"):
            validate_path(big)

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

    def test_overflow_refused(self):
        lift = horizontal_lift(FrontTrackSpec.line(0.0, 10.0), -0.7)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            dilate_path(lift, 1e308)

    def test_preserves_horizontality(self):
        lift = horizontal_lift(FrontTrackSpec.line(0.0, 10.0), -0.7)
        big = dilate_path(lift, 3.0)
        assert horizontality_residuals(big).max() <= 1e-6
        assert speed_errors(big).max() <= 1e-6


def test_st_model_residual_cross_check():
    # the no-skid residual vanishes in the alternate coordinates too
    lift = horizontal_lift(FrontTrackSpec.line(0.0, 10.0), -0.7)
    assert st_horizontality_residuals(lift).max() <= 1e-7


def _np_gradient_residuals(path):
    """No-skid residuals and speed errors as np.gradient gives them: the
    reference for the column-wise numdiff.gradient."""
    dxy = np.gradient(path.front, path.t, axis=0)
    dth = np.gradient(path.theta, path.t)
    res = path.ell * dth - np.cos(path.theta) * dxy[:, 1] + np.sin(path.theta) * dxy[:, 0]
    speed = np.hypot(dxy[:, 0], dxy[:, 1])
    db = np.gradient(path.back, path.t, axis=0)
    st_res = np.sin(path.theta) * db[:, 0] - np.cos(path.theta) * db[:, 1]
    return np.abs(res[1:-1]), np.abs(speed - 1.0)[1:-1], np.abs(st_res[1:-1])


def _spline_lift():
    # a non-arc-length track: the lift's arc length is a non-uniform grid
    from scipy.interpolate import CubicSpline
    pts = np.cumsum(np.random.default_rng(11).normal(0.0, 1.0, (8, 2)), axis=0)
    track = FrontTrackSpec.from_spline(
        CubicSpline(np.linspace(0.0, 1.0, 8), pts, axis=0), 0.0, 1.0)
    return horizontal_lift(track, 0.4, 1.0, 2e-4)


@pytest.mark.parametrize("make", [
    lambda: horizontal_lift(FrontTrackSpec.circle(2.0, 0.0, 12.0), 0.3, 0.7),
    lambda: flip_path(horizontal_lift(FrontTrackSpec.line(0.0, 10.0), -0.7)),
    _spline_lift,
    lambda: flip_path(_spline_lift()),
], ids=["circle", "line_flip", "spline", "spline_flip"])
def test_residuals_are_np_gradient_forms_bitwise(make):
    path = make()
    res, speed, st_res = _np_gradient_residuals(path)
    assert horizontality_residuals(path).tobytes() == res.tobytes()
    assert speed_errors(path).tobytes() == speed.tobytes()
    assert st_horizontality_residuals(path).tobytes() == st_res.tobytes()
    assert validate_path(path) == (float(res.max()), float(speed.max()))
