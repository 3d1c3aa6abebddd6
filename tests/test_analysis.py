"""Elastica diagnostics: parameters, classification, widths, vertices."""

import math

import numpy as np
import pytest

from bikegeo import analysis
from bikegeo.analysis import (ElasticaParams, back_width, canonical_orient,
                              classify, energy_residual, find_vertices,
                              fit_elastica_params, front_width,
                              period_and_advance, strip_width)
from bikegeo.core import RigidMotion, SampledBikePath, act
from bikegeo.errors import (InsufficientExtentError, InvalidPeriodError,
                            NoDirectrixError, NoPeriodError)
from bikegeo.integrate import (ReducedState, canonical_vertex_state,
                               integrate_geodesic, soliton_vertex_state)


def unit_circle_path(n=20001):
    t = np.linspace(0.0, 2 * math.pi, n)
    front = np.stack([np.cos(t), np.sin(t)], axis=1)
    return SampledBikePath(t, front, t, np.ones_like(t))


def straight_path(n=2001):
    t = np.linspace(0.0, 10.0, n)
    front = np.stack([t, np.zeros_like(t)], axis=1)
    return SampledBikePath(t, front, np.zeros_like(t), np.zeros_like(t))


class TestElasticaParams:
    def test_soliton_regime(self):
        p = ElasticaParams.from_momentum(1.0)
        assert (p.A, p.B, p.mu) == (-1.0, 0.0, 0.0)

    def test_circle_regime(self):
        p = ElasticaParams.from_momentum(0.0)
        assert (p.A, p.B, p.mu) == (-0.5, -0.125, 1.0)

    def test_reciprocal_momenta_share_shape(self):
        assert ElasticaParams.from_momentum(2.0).mu == pytest.approx(9 / 25, abs=1e-15)
        assert ElasticaParams.from_momentum(0.5).mu == pytest.approx(9 / 25, abs=1e-15)

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            ElasticaParams(A=1.0, B=-10.0, mu=0.0)


class TestClassify:
    @pytest.mark.parametrize("a,k0,tag", [
        (0.5, 1.2, analysis.WIDE_NIE),
        (3.0, 4.0, analysis.NARROW_NIE),
        (1.0, 0.0, analysis.LINE),
        (1.0, 2.0, analysis.SOLITON),
        (0.0, 1.0, analysis.CIRCLE),
    ])
    def test_table(self, a, k0, tag):
        assert classify(a, k0).tag == tag

    def test_boundary_tolerance(self):
        assert classify(1.0 + 1e-12, 2.0).tag == analysis.SOLITON
        assert classify(1e-12, 1.0).tag == analysis.CIRCLE
        assert classify(1.0 + 1e-6, 2.0).tag == analysis.NARROW_NIE

    def test_negative_momentum_rejected(self):
        with pytest.raises(ValueError):
            classify(-0.1, 1.0)


class TestEnergyResidual:
    def test_integrated_geodesic(self, geodesic_cache):
        p = geodesic_cache(0.7)
        r = energy_residual(p, ElasticaParams.from_momentum(0.7))
        assert r <= 1e-6

    def test_straight_line_zero(self):
        p = straight_path()
        params = ElasticaParams(A=-3.0, B=0.0, mu=0.0)
        assert energy_residual(p, params) == 0.0

    def test_unit_circle_constant_curvature(self):
        p = unit_circle_path()
        params = ElasticaParams(A=-0.5, B=-0.125, mu=1.0)
        assert energy_residual(p, params) <= 1e-9

    def test_too_few_samples_rejected(self):
        from bikegeo.errors import DegenerateInputError
        p = straight_path(n=4)
        with pytest.raises(DegenerateInputError):
            energy_residual(p, ElasticaParams(A=-1.0, B=0.0, mu=0.0))


class TestVertices:
    def test_values_and_angles(self, geodesic_cache):
        rep = find_vertices(geodesic_cache(0.5))
        assert len(rep.maxima()) >= 4 and len(rep.minima()) >= 4
        for v in rep.maxima():
            assert abs(v.kappa - 1.5) <= 1e-5
            assert abs(v.theta - math.pi / 2) <= 1e-4
        for v in rep.minima():
            assert abs(v.kappa - 0.5) <= 1e-5
            assert abs(v.theta + math.pi / 2) <= 1e-4

    def test_narrow_min_angle(self, geodesic_cache):
        rep = find_vertices(geodesic_cache(2.0))
        for v in rep.minima():
            assert abs(v.theta - math.pi / 2) <= 1e-4
            assert abs(v.kappa - 1.0) <= 1e-5

    def test_kinds_alternate(self, geodesic_cache):
        rep = find_vertices(geodesic_cache(0.5))
        kinds = [v.kind for v in rep]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))

    def test_line_has_no_vertices(self):
        assert len(find_vertices(straight_path())) == 0

    def test_circle_has_no_vertices(self):
        assert len(find_vertices(unit_circle_path())) == 0

    def test_soliton_tail_empty(self):
        # window strictly past the apex: curvature decays monotonically
        p = integrate_geodesic(soliton_vertex_state(), 20.0, 1e-3)
        tail = SampledBikePath(p.t[5000:], p.front[5000:], p.theta[5000:],
                               p.kappa[5000:])
        assert len(find_vertices(tail)) == 0


class TestCanonicalOrient:
    def test_canonical_input_is_fixed(self, geodesic_cache):
        _, g = canonical_orient(geodesic_cache(0.5))
        assert abs(g.rotation) <= 1e-6
        assert abs(g.translation[0]) <= 1e-6
        assert abs(g.translation[1]) <= 1e-6
        assert g.orientation == 1

    def test_recovers_rotation(self, geodesic_cache):
        p = geodesic_cache(0.5)
        moved = act(RigidMotion.rotation_about(0.7, (2.0, 1.0)), p)
        _, g = canonical_orient(moved)
        assert abs(g.rotation + 0.7) <= 1e-4

    def test_handles_reflected_path(self, geodesic_cache):
        p = geodesic_cache(0.5)
        reflected = act(RigidMotion.reflection_x(), p)
        oriented, g = canonical_orient(reflected)
        assert g.orientation == -1
        assert np.max(np.abs(oriented.front - p.front)) <= 1e-6

    def test_soliton_asymptote(self):
        p = integrate_geodesic(soliton_vertex_state(), 30.0, 1e-3)
        shifted = act(RigidMotion(0.3, (1.0, -2.0)), p)
        oriented, _ = canonical_orient(shifted)
        apex = oriented.front[np.argmax(oriented.front[:, 1])]
        assert abs(apex[0]) <= 1e-3
        assert abs(apex[1] - 2.0) <= 1e-5
        # asymptote is y = 0
        assert abs(oriented.front[-1, 1]) <= 1e-4

    def test_line_rejected(self):
        with pytest.raises(NoDirectrixError):
            canonical_orient(straight_path())

    def test_circle_rejected(self):
        with pytest.raises(InsufficientExtentError):
            canonical_orient(unit_circle_path())


class TestWidths:
    def test_wide(self, geodesic_cache):
        p, _ = canonical_orient(geodesic_cache(0.5))
        assert abs(front_width(p) - 2.0) <= 1e-4
        assert abs(back_width(p) - (1 - math.sqrt(0.75)) / 0.5) <= 1e-4

    def test_narrow(self, geodesic_cache):
        p, _ = canonical_orient(geodesic_cache(2.0))
        assert abs(front_width(p) - 1.0) <= 1e-4
        assert abs(back_width(p) - 1.0) <= 1e-4

    def test_soliton_needs_long_window(self):
        p = integrate_geodesic(soliton_vertex_state(), 50.0, 1e-3)
        assert abs(front_width(p) - 2.0) <= 1e-4
        short = integrate_geodesic(soliton_vertex_state(), 12.0, 1e-3)
        with pytest.raises(InsufficientExtentError) as err:
            front_width(short)
        assert err.value.partial_extent is not None
        assert 0.0 < err.value.partial_extent <= 2.0

    def test_tractrix_back_width(self):
        # back track of a long line lift: sup sech = 1, inf -> 0
        # (apex 20 units in: the angle offset exp(-20) is still well
        # inside double precision; exp(-40) would not be)
        from bikegeo.integrate import FrontTrackSpec, horizontal_lift
        from bikegeo.closed_forms import line_lift_theta
        theta0 = float(line_lift_theta(0.0, 20.0, 1.0))
        lift = horizontal_lift(FrontTrackSpec.line(0.0, 40.0), theta0, 1.0, 1e-3)
        y = lift.back[:, 1]
        assert abs((y.max() - y.min()) - 1.0) <= 1e-4

    def test_strip_infimum_agrees(self, geodesic_cache):
        p, _ = canonical_orient(geodesic_cache(0.5))
        T, _ = period_and_advance(p)
        window = p.front[p.t <= 2 * T]
        assert abs(front_width(p) - strip_width(window)) <= 1e-4


class TestPeriodAdvance:
    @pytest.mark.parametrize("a", [0.3, 0.5, 2.0, 4.0])
    def test_advance_below_period(self, geodesic_cache, a):
        p, _ = canonical_orient(geodesic_cache(a))
        T, L = period_and_advance(p)
        assert 0 < L < T

    def test_y_periodicity_cross_check(self, geodesic_cache):
        # independent of the vertex machinery: y(t + T) = y(t)
        p = geodesic_cache(0.5)
        T, L = period_and_advance(p)
        tq = p.t[p.t + T <= p.t[-1]]
        y0 = p.front_at(tq)[:, 1]
        y1 = p.front_at(tq + T)[:, 1]
        assert np.max(np.abs(y1 - y0)) <= 1e-4
        x0 = p.front_at(tq)[:, 0]
        x1 = p.front_at(tq + T)[:, 0]
        assert np.max(np.abs(x1 - x0 - L)) <= 1e-4

    def test_circle_rejected(self):
        with pytest.raises(NoPeriodError):
            period_and_advance(unit_circle_path())

    def test_soliton_rejected(self):
        p = integrate_geodesic(soliton_vertex_state(), 30.0, 1e-3)
        with pytest.raises(NoPeriodError):
            period_and_advance(p)


class TestFits:
    def test_recovers_energy_coefficients(self, geodesic_cache):
        p = geodesic_cache(0.7)
        fit = fit_elastica_params(p)
        ref = ElasticaParams.from_momentum(0.7)
        assert abs(fit.A - ref.A) <= 1e-8
        assert abs(fit.B - ref.B) <= 1e-8
        assert abs(fit.mu - ref.mu) <= 1e-8
        assert abs(fit.a - 0.7) <= 1e-7

    def test_dilation_covariance(self, geodesic_cache):
        from bikegeo.core import dilate_path
        p = geodesic_cache(0.7)
        base = fit_elastica_params(p)
        for lam in (0.5, 2.0):
            fit = fit_elastica_params(dilate_path(p, lam))
            assert abs(fit.A - base.A / lam**2) <= 1e-4 * abs(base.A / lam**2)
            assert abs(fit.B - base.B / lam**4) <= 1e-4 * abs(base.B / lam**4)
            assert abs(fit.mu - base.mu) <= 1e-6
