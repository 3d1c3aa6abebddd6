"""Geodesic flow, canonical reduction and horizontal lifts."""

import contextlib
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from bikegeo import cli
from bikegeo.closed_forms import line_lift_theta, soliton_point, tractrix_point
from bikegeo.core import SampledBikePath, act, dilate_path
from bikegeo.errors import (DivergenceError, ImmersionError,
                            NotUnitSpeedError)
from bikegeo.holonomy import TransportSample, correspondent, fit_mobius
from bikegeo.integrate import (CotangentState, FrontTrackSpec, ReducedState,
                               _full_hamiltonian, _grid,
                               canonical_vertex_state, canonicalize,
                               hamiltonian_rhs, horizontal_lift,
                               integrate_geodesic, integrate_geodesics,
                               lift_frame_angles, reduced_rhs, rk4_geodesic,
                               soliton_vertex_state)
from bikegeo import numdiff
from bikegeo.verify import _rk4


class TestRightHandSides:
    def test_straight_ride(self):
        d = hamiltonian_rhs(CotangentState(0, 0, 0, px=1, py=0, ptheta=0))
        assert np.array_equal(d, [1, 0, 0, 0, 0, 0])

    def test_unit_circle_start(self):
        d = hamiltonian_rhs(CotangentState(0, 0, 0, px=0, py=0, ptheta=1))
        assert np.array_equal(d, [0, 1, 1, 0, 0, 0])

    def test_momenta_conserved_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            s = CotangentState(*rng.uniform(-2, 2, size=6))
            d = hamiltonian_rhs(s)
            assert d[3] == 0.0 and d[4] == 0.0

    def test_soliton_apex(self):
        # kappa = 1 + a and theta = pi/2 at a curvature maximum
        d = reduced_rhs(ReducedState(0, 0, math.pi / 2, kappa=2.0, a=1.0))
        assert np.allclose(d, [-1, 0, 1, 0], atol=1e-15)

    def test_circle_motion(self):
        d = reduced_rhs(ReducedState(0, 0, 0.0, kappa=1.0, a=0.0))
        assert np.allclose(d, [0, 1, 1, 0], atol=1e-15)

    def test_zero_curvature_invariant(self):
        for theta in (0.0, 0.4, -1.2):
            d = reduced_rhs(ReducedState(0, 0, theta, kappa=0.0, a=1.0))
            assert d[3] == 0.0  # kappa stays zero: the line solution

    def test_negative_momentum_rejected(self):
        with pytest.raises(ValueError):
            ReducedState(0, 0, 0, 1.0, a=-0.5)


class TestCanonicalize:
    def test_rotates_momentum_onto_axis(self):
        s = CotangentState(0, 0, 0, px=0.6, py=0.8, ptheta=0.0)
        r, g = canonicalize(s)
        assert abs(r.a - 1.0) <= 1e-12
        assert abs(g.rotation - (-math.atan2(0.8, 0.6))) <= 1e-12

    def test_already_reduced_is_identity(self):
        s = CotangentState(1, 2, 0.3, px=1.0, py=0.0,
                           ptheta=0.0)
        r, g = canonicalize(s)
        assert g.rotation == 0.0
        assert (r.x, r.y, r.theta) == (1.0, 2.0, 0.3)

    def test_zero_momentum_circle_case(self):
        s = CotangentState(0, 0, 0, px=0.0, py=0.0, ptheta=1.0)
        r, g = canonicalize(s)
        assert r.a == 0.0 and g.rotation == 0.0
        assert r.kappa == 1.0

    def test_rejects_off_shell(self):
        with pytest.raises(NotUnitSpeedError):
            canonicalize(CotangentState(0, 0, 0, px=2.0, py=0.0, ptheta=0.0))

    def test_kappa_is_ptheta(self):
        theta = 0.9
        ptheta = 0.35
        # build a unit-speed state with the wanted ptheta
        px = math.cos(0.4) + math.sin(theta) * ptheta
        py = math.sin(0.4) - math.cos(theta) * ptheta
        r, _ = canonicalize(CotangentState(0, 0, theta, px, py, ptheta))
        assert r.kappa == ptheta


class TestGeodesics:
    def test_soliton_matches_closed_form(self):
        p = integrate_geodesic(soliton_vertex_state(), 20.0, 1e-3)
        ref = soliton_point(p.t, 0.0, 1.0)
        assert np.max(np.abs(p.front - ref)) <= 1e-13

    def test_line_solution(self):
        # kappa = 0 at a = 1: the frame angle follows the line's lift,
        # tan(theta/2) = tan(theta0/2) exp(-t)
        p = integrate_geodesic(ReducedState(2.0, -1.0, 0.7, 0.0, 1.0), 10.0, 1e-3)
        assert np.max(np.abs(p.front[:, 0] - (2.0 + p.t))) <= 1e-14
        assert np.max(np.abs(p.front[:, 1] + 1.0)) == 0.0
        assert np.max(np.abs(p.kappa)) == 0.0
        theta = 2.0 * np.arctan(math.tan(0.35) * np.exp(-p.t))
        assert np.max(np.abs(p.theta - theta)) <= 1e-14

    def test_circle_closes(self):
        p = integrate_geodesic(ReducedState(0, 0, 0, 1.0, 0.0), 2 * math.pi, 1e-3)
        assert np.max(np.abs(p.front[-1] - p.front[0])) <= 1e-6

    def test_full_system_from_cotangent_state(self):
        s = CotangentState(0, 0, 0, px=1.0, py=0.0, ptheta=0.5)
        # H = (1 - 0.5 sin... adjust to unit speed via canonical values
        h = s.hamiltonian()
        scale = math.sqrt(2.0 * h)
        s = CotangentState(0, 0, 0, px=1.0 / scale, py=0.0, ptheta=0.5 / scale)
        p = integrate_geodesic(s, 10.0, 1e-3)
        assert p.drift <= 1e-10
        kfd = numdiff.curvature_from_track(p.front, p.t)
        sl = numdiff.interior(len(p), 2)
        assert np.max(np.abs(kfd[sl] - p.kappa[sl])) <= 1e-5

    def test_reduced_full_agree(self):
        s = CotangentState(0.3, -0.2, 1.1, px=0.5, py=-0.4, ptheta=0.8)
        h = s.hamiltonian()
        scale = math.sqrt(2.0 * h)
        s = CotangentState(0.3, -0.2, 1.1, px=0.5 / scale, py=-0.4 / scale,
                           ptheta=0.8 / scale)
        full = integrate_geodesic(s, 15.0, 1e-3)
        r, g = canonicalize(s)
        red = integrate_geodesic(r, 15.0, 1e-3)
        back = act(g.inverse(), red)
        assert np.max(np.abs(back.front - full.front)) <= 1e-7
        assert np.max(np.abs(back.theta - full.theta)) <= 1e-7

    def test_rejects_off_shell_reduced(self):
        with pytest.raises(NotUnitSpeedError):
            integrate_geodesic(ReducedState(0, 0, 0, 2.0, 0.3), 1.0)

    def test_batch_matches_single(self):
        # reduced and cotangent states share one flow, so they mix freely
        s = CotangentState(0.3, -0.2, 1.1, px=0.3, py=-0.4, ptheta=0.5)
        scale = math.sqrt(2.0 * s.hamiltonian())
        cotangent = CotangentState(0.3, -0.2, 1.1, px=0.3 / scale,
                                   py=-0.4 / scale, ptheta=0.5 / scale)
        states = [canonical_vertex_state(0.4), cotangent,
                  canonical_vertex_state(1.7)]
        batch = integrate_geodesics(states, 5.0, 1e-3)
        for s, p in zip(states, batch):
            q = integrate_geodesic(s, 5.0, 1e-3)
            for field in ("t", "front", "theta", "kappa"):
                assert np.array_equal(getattr(p, field), getattr(q, field))
            assert p.drift == q.drift

    def test_batch_budget_refused_before_allocation(self):
        # 10^6 steps fit one grid's budget, but 50 trajectories of them
        # would hold 1.6 GB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="batch budget"):
                integrate_geodesics([canonical_vertex_state(0.5)] * 50, 1e3, 1e-3)
            with pytest.raises(ValueError, match="batch budget"):
                lift_frame_angles(FrontTrackSpec.line(0.0, 1e3), np.zeros(50),
                                  1.0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_convergence_is_fourth_order(self):
        s = canonical_vertex_state(0.7)
        ref = rk4_geodesic(s, 5.0, 1e-3 / 8).front[-1]
        e1 = np.max(np.abs(rk4_geodesic(s, 5.0, 8e-3).front[-1] - ref))
        e2 = np.max(np.abs(rk4_geodesic(s, 5.0, 4e-3).front[-1] - ref))
        assert e1 / e2 >= 12.0

    def test_frame_length_rescaling(self):
        # the ell-geodesic is the dilation of the unit-frame geodesic
        a = 0.6
        unit = integrate_geodesic(canonical_vertex_state(a), 10.0, 1e-3, ell=1.0)
        phys = integrate_geodesic(
            ReducedState(0.0, 0.0, math.pi / 2, (1 + a) / 2.0, a),
            20.0, 2e-3, ell=2.0)
        ref = dilate_path(unit, 2.0)
        assert np.max(np.abs(phys.front - ref.front)) <= 1e-9
        assert np.max(np.abs(phys.kappa - ref.kappa)) <= 1e-9

    def test_divergence_reports_time(self):
        # dy/dt = y^2 from y(0) = 1 blows up at t = 1
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                _rk4(lambda y: y * y, np.array([1.0]), 0.01, 1000)
        assert err.value.t is not None and 0.9 < err.value.t < 1.05

    def test_huge_momentum_diverges_at_its_step(self, tmp_path):
        # at curvature 1e9 the step 1e-3 cannot follow the flow: a stage
        # angle goes infinite, where math.sin raises instead of giving nan
        with pytest.raises(DivergenceError) as err:
            rk4_geodesic(canonical_vertex_state(1e9), 1.0)
        assert err.value.t == 0.015
        out, errs = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errs):
            rc = cli.main(["geodesic", "--a", "1e9", "--t-end", "1",
                           "--output", str(tmp_path / "g.csv")])
        assert rc == 3 and out.getvalue() == ""
        lines = errs.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "divergence", "message": "non-finite state at t = 0.015"}


def _cotangent(x, y, theta, alpha, ptheta, speed=1.0):
    """Cotangent state with P = speed * (cos alpha, sin alpha)."""
    px = speed * math.cos(alpha) + math.sin(theta) * ptheta
    py = speed * math.sin(alpha) - math.cos(theta) * ptheta
    return CotangentState(x, y, theta, px, py, ptheta)


class TestExactGeodesics:
    """integrate_geodesic samples the elliptic closed form."""

    @pytest.mark.parametrize("kappa", [1.0, -1.0])
    def test_circle_of_either_sign(self, kappa):
        x0, y0, th0 = 0.4, -1.2, 2.1
        p = integrate_geodesic(ReducedState(x0, y0, th0, kappa, 0.0), 20.0, 1e-3)
        th = th0 + kappa * p.t
        ref = np.stack([x0 + np.cos(th) - math.cos(th0),
                        y0 + np.sin(th) - math.sin(th0)], axis=1)
        assert np.max(np.abs(p.front - ref)) <= 1e-13
        assert np.max(np.abs(p.theta - th)) <= 1e-13
        assert np.all(p.kappa == kappa)

    @pytest.mark.parametrize("state", [
        canonical_vertex_state(0.3), canonical_vertex_state(2.0),
        _cotangent(0.5, -0.3, 1.2, 0.0, -0.9)], ids=["wide", "narrow", "cotangent"])
    def test_coarse_grid_samples_the_same_path(self, state):
        # theta depends on each arc length alone, never on the samples
        # before it: at step 4 it turns by more than pi between samples
        fine = integrate_geodesic(state, 24.0, 1e-3)
        for step in (0.5, 4.0):
            coarse = integrate_geodesic(state, 24.0, step)
            stride = round(step / 1e-3)
            for field in ("front", "theta", "kappa"):
                got, want = getattr(coarse, field), getattr(fine, field)[::stride]
                assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("state", [
        ReducedState(0.0, 0.0, 0.5 * math.pi, 1.6 * math.sqrt(1 + 5e-7),
                     0.6 * math.sqrt(1 + 5e-7)),
        _cotangent(0.5, -0.3, 1.2, 2.0, -0.9, math.sqrt(1 + 5e-7))],
        ids=["reduced", "cotangent"])
    def test_off_shell_state_matches_rk4(self, state):
        # 2H - 1 = 5e-7 is inside the gate: the closed form runs the
        # momenta scaled onto the unit shell at the state's own speed
        p = integrate_geodesic(state, 25.0, 1e-3)
        q = rk4_geodesic(state, 25.0, 1e-3)
        for field in ("front", "theta", "kappa"):
            assert np.max(np.abs(getattr(p, field) - getattr(q, field))) <= 1e-8
        assert p.drift <= 1e-14

    @pytest.mark.parametrize("ell", [1.0, 1.7])
    def test_sample_zero_is_the_state(self, ell):
        states = [ReducedState(0.3, -0.7, 2.0, 1.0 / ell, 0.0),
                  ReducedState(0.3, -0.7, 0.5 * math.pi, 1.5 / ell, 0.5),
                  ReducedState(0.3, -0.7, -0.4, 0.0, 1.0),
                  _cotangent(0.5, -0.3, 1.2, 2.0, -0.9),
                  _cotangent(-1.1, 0.8, -2.5, 0.3, 1.3)]
        for s in states:
            p = integrate_geodesic(s, 1.0, 1e-3, ell)
            q = rk4_geodesic(s, 1e-3, 1e-3, ell)
            assert np.array_equal(p.front[0], q.front[0])
            assert p.theta[0] == q.theta[0] == s.theta
            assert p.kappa[0] == pytest.approx(q.kappa[0], rel=1e-15, abs=1e-300)


def _array_flow(y, px, py):
    """The flow on (..., 4) rows (x, y, theta, ptheta), vectorized as the
    batch integrator had it: the reference the per-state stepper must
    reproduce bit for bit."""
    th, pth = y[..., 2], y[..., 3]
    s, c = np.sin(th), np.cos(th)
    return np.stack([px - s * pth, py + c * pth, pth + c * py - s * px,
                     pth * (c * px + s * py)], axis=-1)


def _array_geodesics(states, t_end, step, ell):
    """Batch RK4 of _array_flow through the array stepper, scaled and
    reported as rk4_geodesic does."""
    n, h = _grid(t_end / ell, step / ell)
    rows = np.array([
        (s.x / ell, s.y / ell, s.theta, s.kappa * ell, s.a, 0.0, 2.0)
        if isinstance(s, ReducedState) else
        (s.x / ell, s.y / ell, s.theta, s.ptheta, s.px, s.py, 1.0)
        for s in states])
    px, py, scale = rows[:, 4:].T.copy()
    traj = _rk4(lambda y: _array_flow(y, px, py), rows[:, :4], h, n)
    energy = _full_hamiltonian(traj, px, py)
    drift = scale * np.max(np.abs(energy - energy[0]), axis=0)
    t = ell * (np.arange(n + 1) * h)
    return [(t, ell * traj[:, j, :2], traj[:, j, 2], traj[:, j, 3] / ell,
             float(drift[j])) for j in range(len(states))]


@pytest.mark.parametrize("ell", [1.0, 1.7])
def test_stepper_matches_array_reference_bitwise(ell):
    s = CotangentState(0.3, -0.2, 1.1, px=0.3, py=-0.4, ptheta=0.5)
    scale = math.sqrt(2.0 * s.hamiltonian())
    states = [
        ReducedState(0.1, 0.2, 0.5 * math.pi, 1.4 / ell, 0.4),
        CotangentState(0.3, -0.2, 1.1, 0.3 / scale, -0.4 / scale, 0.5 / scale),
        ReducedState(0.0, 2.0 * ell, 0.5 * math.pi, 2.0 / ell, 1.0),
        ReducedState(0.0, 0.0, 0.0, 1.0 / ell, 0.0),
    ]
    paths = [rk4_geodesic(s, 3.0 * ell, 1e-3 * ell, ell) for s in states]
    for p, ref in zip(paths, _array_geodesics(states, 3.0 * ell, 1e-3 * ell, ell)):
        for got, want in zip((p.t, p.front, p.theta, p.kappa), ref[:4]):
            assert np.array_equal(got, want)
        assert p.drift == ref[4]


class TestHorizontalLift:
    def test_back_track_is_tractrix(self):
        t0 = 8.0
        theta0 = float(line_lift_theta(0.0, t0, 1.0))
        lift = horizontal_lift(FrontTrackSpec.line(0.0, 16.0), theta0, 1.0, 1e-3)
        ref = tractrix_point(lift.t, t0, 1.0)
        assert np.max(np.abs(lift.back - ref)) <= 1e-6

    def test_aligned_start_keeps_back_on_line(self):
        lift = horizontal_lift(FrontTrackSpec.line(0.0, 10.0), 0.0, 1.0, 1e-3)
        ref = np.stack([lift.t - 1.0, np.zeros_like(lift.t)], axis=1)
        assert np.max(np.abs(lift.back - ref)) <= 1e-12

    def test_circle_with_back_at_center(self):
        circ = FrontTrackSpec.circle(1.0, 0.0, 2 * math.pi)
        lift = horizontal_lift(circ, 0.0, 1.0, 1e-3)
        assert np.max(np.abs(lift.back)) <= 1e-9

    def test_immersion_error_on_constant_curve(self):
        const = FrontTrackSpec(
            curve=lambda t: np.zeros(np.shape(t) + (2,)),
            derivative=lambda t: np.zeros(np.shape(t) + (2,)),
            t0=0.0, t1=1.0)
        with pytest.raises(ImmersionError):
            horizontal_lift(const, 0.0)

    def test_reparametrization_invariance(self):
        # same line, quadratically stretched parameter: identical geometry
        fast = FrontTrackSpec(
            curve=lambda s: np.stack(np.broadcast_arrays(
                np.asarray(s, float) ** 2, np.zeros_like(np.asarray(s, float))), axis=-1),
            derivative=lambda s: np.stack(np.broadcast_arrays(
                2.0 * np.asarray(s, float), np.zeros_like(np.asarray(s, float))), axis=-1),
            t0=1.0, t1=3.0)
        lift_fast = horizontal_lift(fast, -1.0, 1.0, 1e-3)
        base = FrontTrackSpec.line(1.0, 9.0)
        lift_base = horizontal_lift(base, -1.0, 1.0, 1e-3)
        # compare frame angle as a function of arc length
        th = np.interp(lift_fast.t, lift_base.t, lift_base.theta)
        assert np.max(np.abs(lift_fast.theta - th)) <= 1e-6

    def test_frame_length_in_lift(self):
        # lift with ell = 2 dilates the unit lift of the half-speed line
        theta0 = -1.1
        unit = horizontal_lift(FrontTrackSpec.line(0.0, 10.0), theta0, 1.0, 1e-3)
        doubled = horizontal_lift(FrontTrackSpec.line(0.0, 20.0), theta0, 2.0, 2e-3)
        ref = dilate_path(unit, 2.0)
        assert np.max(np.abs(doubled.back - ref.back)) <= 1e-9


def circle_lift_theta(s, theta0, radius, ell):
    """Frame angle along the counterclockwise circle of radius > ell
    from the Riccati closed form; valid while |tan(theta0/2)| < k."""
    alpha = 0.5 * (1.0 / ell - 1.0 / radius)
    beta = 0.5 * (1.0 / ell + 1.0 / radius)
    k, omega = math.sqrt(alpha / beta), math.sqrt(alpha * beta)
    c = np.arctanh(np.tan(0.5 * np.asarray(theta0)) / k)
    return s / radius + 2.0 * np.arctan(k * np.tanh(omega * s + c))


class TestLiftFrameAngles:
    @pytest.mark.parametrize("radius, ell", [(2.0, 1.0), (3.0, 1.3), (5.0, 0.7)])
    def test_circle_matches_riccati_closed_form(self, radius, ell):
        theta0 = np.array([-0.8, -0.3, 0.0, 0.2, 0.5])
        track = FrontTrackSpec.circle(radius, 0.0, 4.0 * math.pi * radius)
        t, theta = lift_frame_angles(track, theta0, ell, 1e-3)
        assert np.array_equal(theta[0], theta0)
        ref = circle_lift_theta(t[:, None], theta0, radius, ell)
        assert np.max(np.abs(theta - ref)) <= 1e-9

    def test_long_ride_stays_on_closed_form(self):
        # 2e5 steps: the running transport product must be rescaled or
        # its entries overflow long before the end of the ride
        track = FrontTrackSpec.circle(2.0, 0.0, 2000.0)
        t, theta = lift_frame_angles(track, 0.3, 1.0, 1e-2)
        assert np.max(np.abs(theta - circle_lift_theta(t, 0.3, 2.0, 1.0))) <= 1e-8

    def test_single_angle_is_its_fiber_column(self):
        rng = np.random.default_rng(11)
        pts = np.cumsum(rng.normal(0.0, 1.0, size=(8, 2)), axis=0)
        track = FrontTrackSpec.from_spline(
            CubicSpline(np.linspace(0.0, 1.0, 8), pts, axis=0), 0.0, 1.0)
        thetas = np.linspace(-math.pi, math.pi, 64, endpoint=False) + 0.01
        _t, fiber = lift_frame_angles(track, thetas, 1.0, 1.25e-4)
        for j in (0, 17, 63):
            _t, single = lift_frame_angles(track, thetas[j], 1.0, 1.25e-4)
            assert np.array_equal(single, fiber[:, j])

    def test_nan_derivative_reports_time(self):
        def derivative(t):
            t = np.asarray(t, dtype=float)
            ones = np.where(t < 0.5, 1.0, np.nan)
            return np.stack([ones, np.zeros_like(t)], axis=-1)

        track = FrontTrackSpec(lambda t: np.zeros(np.shape(t) + (2,)),
                               derivative, 0.0, 1.0)
        with pytest.raises(DivergenceError) as err:
            lift_frame_angles(track, [0.1, 0.4], 1.0, 1e-2)
        assert err.value.t == pytest.approx(0.5)


@pytest.mark.parametrize("build", [
    lambda: FrontTrackSpec.line(0.0, math.inf),
    lambda: FrontTrackSpec.circle(math.inf, 0.0, 1.0),
    lambda: SampledBikePath([0.0, 1.0], [[0.0, 0.0], [1.0, math.nan]],
                            [0.0, 0.0], [0.0, 0.0]),
], ids=["line_t1_inf", "circle_radius_inf", "path_nan_front"])
def test_non_finite_input_rejected(build):
    with pytest.raises(ValueError):
        build()


def _unevaluated_track():
    def derivative(t):
        raise AssertionError("track evaluated before theta0 was checked")
    return FrontTrackSpec(derivative, derivative, 0.0, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: lift_frame_angles(_unevaluated_track(), math.nan), "theta0"),
    (lambda: lift_frame_angles(_unevaluated_track(), [0.1, math.inf]), "theta0"),
    (lambda: correspondent(_unevaluated_track(), -math.inf), "theta0"),
    (lambda: fit_mobius([TransportSample(a, math.nan if a == 0.0 else a)
                         for a in np.linspace(-3.0, 3.0, 9).tolist()]),
     "finite"),
], ids=["lift_nan", "fiber_inf", "correspondent_inf", "mobius_nan_sample"])
def test_non_finite_angle_rejected(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


def test_energy_conservation_short():
    rng = np.random.default_rng(5)
    states = []
    for _ in range(5):
        alpha = rng.uniform(-math.pi, math.pi)
        ptheta = rng.uniform(-1.5, 1.5)
        theta = rng.uniform(-math.pi, math.pi)
        px = math.cos(alpha) + math.sin(theta) * ptheta
        py = math.sin(alpha) - math.cos(theta) * ptheta
        states.append(CotangentState(0, 0, theta, px, py, ptheta))
    for p in integrate_geodesics(states, 20.0, 1e-3):
        assert p.drift <= 1e-10
