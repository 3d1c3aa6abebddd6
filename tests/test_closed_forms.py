"""Exact tractrix/soliton evaluators and the elliptic period/advance
pair against their defining properties."""

import math

import numpy as np
import pytest

from bikegeo.analysis import canonical_orient, period_and_advance
from bikegeo.closed_forms import (elliptic_period_advance, geodesic,
                                  geodesic_phase, line_lift_theta,
                                  soliton_arclength, soliton_curvature,
                                  soliton_point, tractrix_point)
from bikegeo.errors import NoPeriodError
from bikegeo.integrate import canonical_vertex_state, rk4_geodesic
from bikegeo import numdiff


class TestTractrix:
    def test_apex(self):
        assert np.allclose(tractrix_point(3.0, 3.0, 1.0), [3.0, 1.0], atol=1e-15)

    def test_asymptotics(self):
        p = tractrix_point(400.0, 0.0, 1.0)
        assert abs(p[1]) < 1e-12
        assert abs(p[0] - 400.0 + 1.0) < 1e-12

    def test_width_band(self):
        for ell in (0.5, 1.0, 2.0):
            t = np.linspace(-40 * ell, 40 * ell, 8001)
            y = tractrix_point(t, 0.0, ell)[:, 1]
            w = y.max() - y.min()
            assert ell - 1e-6 <= w <= ell

    def test_no_overflow_far_out(self):
        p = tractrix_point(1e6, 0.0, 1.0)
        assert np.all(np.isfinite(p))
        assert p[1] == 0.0  # sech underflows to exactly zero


class TestSoliton:
    def test_apex_height(self):
        assert np.allclose(soliton_point(5.0, 5.0, 1.0), [5.0, 2.0], atol=1e-15)
        assert np.allclose(soliton_point(0.0, 0.0, 2.0), [0.0, 4.0], atol=1e-15)

    def test_symmetry(self):
        t0 = 2.0
        for s in (0.5, 1.5, 4.0):
            p_plus = soliton_point(t0 + s, t0, 1.0)
            p_minus = soliton_point(t0 - s, t0, 1.0)
            assert abs(p_plus[0] + p_minus[0] - 2 * t0) < 1e-14
            assert abs(p_plus[1] - p_minus[1]) < 1e-14

    def test_flip_identity_is_exact(self):
        t = np.linspace(-25.0, 25.0, 2001)
        for ell in (0.5, 1.0, 2.0):
            tr = tractrix_point(t, 0.7, ell)
            so = soliton_point(t, 0.7, ell)
            line = np.stack([t, np.zeros_like(t)], axis=1)
            assert np.array_equal(2.0 * tr - line, so)

    def test_parameter_is_arc_length(self):
        t = np.linspace(-15.0, 15.0, 30001)
        s = soliton_arclength(t, 0.0, 1.0)
        assert np.max(np.abs(s - (t - t[0]))) <= 1e-9

    def test_curvature_profile(self):
        # kappa(s) = (2/ell) sech((s - s0)/ell), checked against finite
        # differences of the closed-form track
        t = np.arange(-12.0, 12.0, 0.02)
        pts = soliton_point(t, 0.0, 1.0)
        kfd = numdiff.curvature_from_track(pts, t)
        sl = numdiff.interior(t.size, 2)
        ref = soliton_curvature(t, 0.0, 1.0)
        assert np.max(np.abs(kfd[sl] - ref[sl])) <= 1e-5

    def test_energy_form_without_confinement(self):
        # B = 0, A = -1 for the unit-frame soliton
        s = np.arange(-10.0, 10.0, 1e-3)
        k = soliton_curvature(s, 0.0, 1.0)
        kd = numdiff.deriv1_uniform(k, 1e-3)
        sl = numdiff.interior(s.size, 2)
        res = 0.5 * kd[sl] ** 2 + 0.125 * k[sl] ** 4 - 0.5 * k[sl] ** 2
        assert np.max(np.abs(res)) <= 1e-9


class TestLineLiftTheta:
    def test_apex_value(self):
        assert abs(line_lift_theta(4.0, 4.0, 1.0) + math.pi / 2) < 1e-15

    def test_limits(self):
        assert -1e-12 < line_lift_theta(60.0, 0.0, 1.0) < 0.0
        assert abs(line_lift_theta(-60.0, 0.0, 1.0) + math.pi) < 1e-12

    def test_ode_residual(self):
        t = np.arange(-8.0, 8.0, 1e-3)
        for ell in (0.5, 1.0, 2.0):
            th = line_lift_theta(t, 0.0, ell)
            dth = numdiff.deriv1_uniform(th, 1e-3)
            sl = numdiff.interior(t.size, 2)
            assert np.max(np.abs(ell * dth[sl] + np.sin(th[sl]))) <= 1e-9


class TestEllipticPeriodAdvance:
    def test_gap_limits(self):
        # T - L -> 4*ell at the soliton limit a -> 1, where T diverges,
        # and T - L -> 0 only in the line limit a -> inf
        for a in (0.999, 1.001):
            T, L = elliptic_period_advance(a)
            assert T > 17.9
            assert abs((T - L) - 4.0) <= 2.5e-3
        T, L = elliptic_period_advance(1.0 - 1e-6)
        assert abs((T - L) - 4.0) <= 1e-5
        T, L = elliptic_period_advance(50.0)
        assert 0.0 < T - L < 0.125

    def test_ell_scaling(self):
        for a in (0.3, 2.0):
            T1, L1 = elliptic_period_advance(a)
            for ell in (0.5, 3.0):
                T, L = elliptic_period_advance(a, ell)
                assert T == pytest.approx(ell * T1, rel=1e-15)
                assert L == pytest.approx(ell * L1, rel=1e-15)

    def test_rejects_aperiodic_and_invalid(self):
        for a in (0.0, 1.0):
            with pytest.raises(NoPeriodError):
                elliptic_period_advance(a)
        for a in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                elliptic_period_advance(a)

    @pytest.mark.parametrize("a", [1e-8, 1e-6, 1e-4])
    def test_small_momentum_advance(self, a):
        # near the circle limit L = pi a (1 + 3a^2/8 + O(a^4)); the E-form
        # of L cancels O(1) terms and loses it to roundoff there
        _T, L = elliptic_period_advance(a)
        assert abs(L / (math.pi * a * (1.0 + 3.0 * a * a / 8.0)) - 1.0) <= 1e-6

    @pytest.mark.parametrize("a", [2e-9, 1e-6, 1e-3, 0.1, 0.3, 3 - 2 * math.sqrt(2),
                                   3.0, 3 + 2 * math.sqrt(2), 10.0, 1e3, 1e6,
                                   1e9, 1e12, 1e16])
    def test_advance_matches_mpmath(self, a):
        # L is O(m) with m = 4a/(1+a)^2 at both ends of the momentum range
        mp = pytest.importorskip("mpmath")
        with mp.workdps(80):
            b = mp.mpf(a)
            T_ref = 4 * mp.ellipk(4 * b / (1 + b) ** 2) / (1 + b)
            L_ref = ((1 + b * b) * T_ref
                     - 4 * (1 + b) * mp.ellipe(4 * b / (1 + b) ** 2)) / (2 * b)
            T, L = elliptic_period_advance(a)
            assert abs(L / L_ref - 1) <= 1e-13
            assert abs(T / T_ref - 1) <= 1e-13

    def test_near_soliton_matches_rk4(self):
        # the complementary-parameter form keeps K accurate where
        # 1 - m = 2.5e-13; RK4 measures (T, L) over one period
        a = 1.0 - 1e-6
        T_ref, L_ref = elliptic_period_advance(a)
        p = rk4_geodesic(canonical_vertex_state(a), T_ref + 2.0, 1e-3)
        T, L = period_and_advance(canonical_orient(p)[0])
        assert abs(T - T_ref) <= 1e-6
        assert abs(L - L_ref) <= 1e-6


def mp_geodesic(a, s, dps=40):
    """Canonical vertex geodesic from mpmath's ellipfun and ellipe at dps
    digits, with m, the phase and every cancelling form taken in mp
    arithmetic from a: x = ((1+a^2) s - 2(1+a) E(am u)) / (2a),
    y = (1+a)(dn - 1)/a, and theta from the continuous am u."""
    mp = pytest.importorskip("mpmath")
    rows = []
    with mp.workdps(dps):
        b = mp.mpf(a)
        m = 4 * b / (1 + b) ** 2
        K, E = mp.ellipk(m), mp.ellipe(m)
        for si in np.asarray(s, dtype=float).tolist():
            u = (1 + b) * mp.mpf(si) / 2
            j = mp.floor((u + K) / (2 * K))
            sn, cn, dn = (mp.ellipfun(f, u - 2 * j * K, m=m) for f in ("sn", "cn", "dn"))
            am = mp.atan2(sn, cn)
            x = ((1 + b * b) * 2 * u / (1 + b)
                 - 2 * (1 + b) * (mp.ellipe(am, m) + 2 * j * E)) / (2 * b)
            am += j * mp.pi
            if b < 1:
                theta = (mp.pi / 2 + 2 * am
                         - mp.atan2(b * mp.sin(2 * am), 1 + b * mp.cos(2 * am)))
            else:
                theta = mp.pi / 2 + mp.atan2(mp.sin(2 * am), b + mp.cos(2 * am))
            rows.append([float(x), float((1 + b) * (dn - 1) / b), float(theta),
                         float((1 + b) * dn)])
    return np.array(rows)


class TestExactGeodesic:
    S = np.linspace(-5.0, 25.0, 21) + 0.0137

    @pytest.mark.parametrize("a", [1e-6, 1e-3, 0.3, 3 - 2 * math.sqrt(2), 0.5,
                                   0.999, 1 - 1e-6, math.nextafter(1.0, 0.0),
                                   math.nextafter(1.0, 2.0), 1 + 1e-6, 1.001,
                                   2.0, 3 + 2 * math.sqrt(2), 4.0])
    def test_matches_mpmath(self, a):
        # near a = 0 the 1/a forms cancel, near a = 1 the parameter
        # m = 1 - 2.5e-13 loses its complement to rounding; both sides of
        # the m = 1/2 switch (a = 3 -+ 2 sqrt 2) are covered, and a = 1 -+ 1
        # ulp has the largest K, so the lattice's exponents are largest
        got = np.stack(geodesic(a, self.S), axis=1)
        assert np.max(np.abs(got - mp_geodesic(a, self.S, dps=50))) <= 1e-13

    @pytest.mark.parametrize("a", [0.01, 0.15, 6.0, 100.0])
    def test_long_arcs_match_mpmath(self, a):
        # m <= 1/2, where a Carlson form of the advance L cancels: x gains
        # L once per period, thousands of times over these arcs
        s = np.array([1e3, 1e4, 3e4]) + 0.37
        x = geodesic(a, s)[0]
        x_ref = mp_geodesic(a, s, dps=50)[:, 0]
        assert np.max(np.abs(x - x_ref) / np.maximum(1.0, np.abs(x_ref))) <= 5e-14

    def test_vertex_pose(self):
        for a in (0.0, 1e-6, 0.5, 1.0, 1 + 1e-6, 3.0):
            x, y, theta, kappa = geodesic(a, 0.0)
            assert abs(x) <= 1e-15 and abs(y) <= 1e-15
            assert theta == 0.5 * math.pi and kappa == pytest.approx(1.0 + a, rel=1e-15)

    def test_circle_and_soliton_limits(self):
        s = np.linspace(-20.0, 20.0, 801)
        x, y, theta, kappa = geodesic(0.0, s)
        assert np.max(np.hypot(x, y + 1.0) - 1.0) <= 1e-15
        assert np.array_equal(theta, 0.5 * math.pi + s) and np.all(kappa == 1.0)
        x, y, theta, kappa = geodesic(1.0, s)
        ref = soliton_point(s) - np.array([0.0, 2.0])
        assert np.max(np.abs(np.stack([x, y], axis=1) - ref)) <= 1e-14
        assert np.max(np.abs(kappa - soliton_curvature(s))) <= 1e-15
        # the limits are continuous in a (near a = 1 only for |s| well
        # inside the half period K ~ ln(4 / sqrt(p)))
        s = np.linspace(-8.0, 8.0, 33)
        for a, lim in ((1e-12, 0.0), (1.0 - 1e-12, 1.0), (1.0 + 1e-12, 1.0)):
            near, at = np.stack(geodesic(a, s)), np.stack(geodesic(lim, s))
            assert np.max(np.abs(near - at)) <= 1e-8

    def test_phase_inverts_geodesic(self):
        # the phase is defined up to whole curvature periods T
        for a in (1e-3, 0.4, 1 - 1e-6, 1.001, 2.5):
            T, _L = elliptic_period_advance(a)
            s = np.linspace(-3.0, 3.0, 13)
            _x, _y, theta, kappa = geodesic(a, s)
            back = np.array([geodesic_phase(a, th, k)
                             for th, k in zip(theta.tolist(), kappa.tolist())])
            assert np.all(np.abs(back) <= 0.5 * T)
            turns = (back - s) / T
            assert np.max(np.abs(turns - np.rint(turns))) * T <= 1e-9

    def test_rejects_invalid_momentum(self):
        for a in (-0.5, -3.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                geodesic(a, [0.0, 1.0])
            with pytest.raises(ValueError):
                geodesic_phase(a, 0.5, 1.0)

    @pytest.mark.parametrize("a", [0.0, 0.05, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e17, -1e300])
    def test_rejects_non_finite_arc_length(self, a, bad):
        with pytest.raises(ValueError):
            geodesic(a, [0.0, bad, 1.0])
        with pytest.raises(ValueError):
            geodesic(a, bad)

    def test_phase_rejects_invalid_state(self):
        for theta, kappa in ((math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan),
                             (0.5, math.inf), (0.5, 0.0), (0.5, -1.0)):
            with pytest.raises(ValueError):
                geodesic_phase(0.5, theta, kappa)
