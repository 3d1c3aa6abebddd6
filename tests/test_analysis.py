"""Elastica diagnostics: parameters, classification, widths, vertices."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from bikegeo import analysis
from bikegeo.analysis import (ElasticaParams, back_width, canonical_orient,
                              classify, energy_residual, find_vertices,
                              fit_elastica_params, front_width,
                              period_and_advance, strip_width)
from bikegeo.closed_forms import elliptic_period_advance, geodesic
from bikegeo.core import RigidMotion, SampledBikePath, act
from bikegeo.errors import (InsufficientExtentError, InvalidPeriodError,
                            NoDirectrixError, NoPeriodError)
from bikegeo.integrate import (ReducedState, canonical_vertex_state,
                               integrate_geodesic, soliton_vertex_state)
from bikegeo.io import path_to_csv


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

    @pytest.mark.parametrize("A, B", [(math.nan, 0.0), (0.0, math.nan),
                                      (math.nan, math.nan)])
    def test_nan_coefficients_rejected(self, A, B):
        with pytest.raises(ValueError, match="must not be NaN"):
            ElasticaParams(A=A, B=B, mu=0.0)

    def test_zero_A_keeps_infinite_mu(self):
        assert ElasticaParams(A=0.0, B=1.0, mu=math.inf).mu == math.inf

    def test_huge_A_is_checked_without_overflow(self):
        # A * A is inf here, where A**2 raises OverflowError
        assert ElasticaParams(A=1e200, B=0.0, mu=0.0).A == 1e200

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_non_finite_momentum_rejected(self, a):
        with pytest.raises(ValueError, match=f"a = {a!r} must be finite"):
            ElasticaParams.from_momentum(a)


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

    @pytest.mark.parametrize("a, kappa0, name", [
        (1.0, math.nan, "kappa0 = nan"), (0.5, math.inf, "kappa0 = inf"),
        (0.5, -math.inf, "kappa0 = -inf"), (math.nan, 1.0, "a = nan")])
    def test_non_finite_input_rejected(self, a, kappa0, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            classify(a, kappa0)


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


def fresh_copy(path):
    """The same samples as a new value, with nothing memoized on it."""
    return SampledBikePath(path.t, path.front, path.theta, path.kappa,
                           path.ell, path.drift)


def reference_paths(geodesic_cache):
    """The reference paths of test_windows_match_extended_arrays: vertices
    in the interior and within half a spacing of either end."""
    h = 1e-3
    paths = [geodesic_cache(0.5), geodesic_cache(2.0, 25.0)]
    for a in (0.5, 2.0, 0.9):
        T, _L = elliptic_period_advance(a)
        for f in (-0.4, -0.1, 0.1, 0.4):
            s = f * h + np.arange(int(round(2 * T / h)) + 1) * h
            x, y, theta, kappa = geodesic(a, s)
            paths.append(SampledBikePath(s, np.stack([x, y], axis=1), theta, kappa))
    return paths


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

    def test_raw_extrema_match_loop(self, geodesic_cache):
        def loop(kappa):  # the per-sample reference the masks replace
            dk = np.diff(kappa)
            idx, kinds = [], []
            for i in range(1, kappa.size - 1):
                if dk[i - 1] > 0 and not dk[i] > 0:
                    idx.append(i)
                    kinds.append("max")
                elif dk[i - 1] < 0 and not dk[i] < 0:
                    idx.append(i)
                    kinds.append("min")
            return idx, kinds

        rng = np.random.default_rng(8)
        for kappa in (geodesic_cache(0.5).kappa, rng.normal(size=500),
                      np.repeat(rng.normal(size=40), 5), np.ones(50)):
            assert analysis._raw_extrema(kappa) == loop(kappa)

    @pytest.mark.parametrize("a", [0.5, 2.0])
    @pytest.mark.parametrize("f", [0.1, 0.29])
    def test_maximum_just_past_the_end(self, a, f):
        # the fifth period ends f spacings past the last sample; its
        # vertex time must be extrapolated, not clipped to the path
        T_ref, _ = elliptic_period_advance(a)
        h = 1e-3
        p = integrate_geodesic(canonical_vertex_state(a), 5 * T_ref - f * h, h)
        T, _ = period_and_advance(canonical_orient(p)[0])
        assert abs(T - T_ref) <= 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_noisy_curvature_keeps_interior_vertices(self, geodesic_cache, seed):
        # noise at 1% of the jitter tolerance must not cost a vertex
        p = geodesic_cache(2.0, 25.0)
        noise = np.random.default_rng(seed).normal(0.0, 1e-6, len(p))
        noisy = find_vertices(SampledBikePath(p.t, p.front, p.theta,
                                              p.kappa + noise))
        interior = [v for v in find_vertices(p) if 0.1 < v.t < 24.9]
        assert len(interior) == 14
        for v in interior:
            assert any(w.kind == v.kind and abs(w.t - v.t) <= 1e-2 for w in noisy)

    def test_jitter_exposed_by_a_merge_is_pruned(self):
        def vertex(kind, kappa):
            return analysis.Vertex(0.0, kind, kappa, 0.0, (0.0, 0.0))

        entries = [vertex("min", 1.0), vertex("max", 0.0), vertex("max", 0.99999)]
        assert analysis._prune_jitter(entries, 1.0) == []

    def test_prune_jitter_matches_restart_loop(self):
        def restart_loop(entries, tol):  # the reference the stack pass replaces
            entries = list(entries)
            changed = True
            while changed and len(entries) > 1:
                changed = False
                for j in range(len(entries) - 1):
                    a, b = entries[j], entries[j + 1]
                    if a.kind != b.kind and abs(a.kappa - b.kappa) < tol:
                        del entries[j:j + 2]
                        changed = True
                        break
                    if a.kind == b.kind:
                        keep = a if (a.kappa > b.kappa) == (a.kind == "max") else b
                        entries[j:j + 2] = [keep]
                        changed = True
                        break
            return entries

        rng = np.random.default_rng(9)
        levels = np.array([0.0, 5e-5, 1e-4, 0.5, 1.0])
        for _ in range(2000):
            n = int(rng.integers(0, 12))
            entries = [analysis.Vertex(float(i), str(kind), float(kappa), 0.0, (0.0, 0.0))
                       for i, kind, kappa in zip(range(n),
                                                 rng.choice(["max", "min"], n),
                                                 rng.choice(levels, n))]
            assert analysis._prune_jitter(entries, 1.0) == restart_loop(entries, 1e-4)

    @staticmethod
    def extended_array_vertices(path):
        # the reference the windowed reads replace: every column extended
        # by one extrapolated sample at each end, then read at the extremum
        def extended(x):
            return np.concatenate([[3.0 * x[0] - 3.0 * x[1] + x[2]], x,
                                   [3.0 * x[-1] - 3.0 * x[-2] + x[-3]]])

        def quad_value(values, i, s):
            y0, y1, y2 = values[i - 1], values[i], values[i + 1]
            return y1 + 0.5 * s * (y2 - y0) + 0.5 * s * s * (y2 - 2.0 * y1 + y0)

        kmax = float(np.max(np.abs(path.kappa)))
        krange = float(np.max(path.kappa) - np.min(path.kappa))
        if krange <= 1e-8 * max(1.0, kmax):
            return analysis.VertexReport(())
        t, k = extended(path.t), extended(path.kappa)
        theta, front = extended(path.theta), extended(path.front)
        entries = []
        for i, kind in zip(*analysis._raw_extrema(k)):
            denom = k[i - 1] - 2.0 * k[i] + k[i + 1]
            if denom == 0.0:
                tv, s = float(t[i]), 0.0
            else:
                s = float(np.clip(0.5 * (k[i - 1] - k[i + 1]) / denom, -1.0, 1.0))
                tv = float(t[i] + s * (0.5 * (t[i + 1] - t[i - 1])))
            pos = quad_value(front, i, s)
            entries.append(analysis.Vertex(
                tv, kind, float(quad_value(k, i, s)),
                analysis.normalize_angle(float(quad_value(theta, i, s))),
                (float(pos[0]), float(pos[1]))))
        return analysis.VertexReport(tuple(analysis._prune_jitter(entries, krange)))

    def test_windows_match_extended_arrays(self, geodesic_cache):
        # vertices within half a spacing of the first or last sample,
        # on either side of it, read the extrapolated end samples
        h = 1e-3
        paths = reference_paths(geodesic_cache)
        paths += [act(RigidMotion.reflection_x(), p) for p in paths]
        noise = np.random.default_rng(3).normal(0.0, 1e-6, len(paths[1]))
        paths.append(SampledBikePath(paths[1].t, paths[1].front, paths[1].theta,
                                     paths[1].kappa + noise))
        ends = 0
        for p in paths:
            report = find_vertices(p)
            assert len(report) > 0
            assert repr(report) == repr(self.extended_array_vertices(p))
            ends += sum(min(abs(v.t - p.t[0]), abs(v.t - p.t[-1])) <= 0.5 * h
                        for v in report)
        assert ends >= 24

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


class TestVertexMemo:
    def test_memoized_reports_equal_fresh_scans(self, geodesic_cache):
        reflect = RigidMotion.reflection_x()
        for base in reference_paths(geodesic_cache):
            for path in (fresh_copy(base), act(reflect, base)):  # kappa > 0, < 0
                first = find_vertices(path)
                assert find_vertices(path) is first  # memoized
                oriented, g = canonical_orient(path)
                assert g.orientation == (1 if path.kappa[0] > 0 else -1)
                report = find_vertices(oriented)
                assert find_vertices(oriented) is report
                for got, ref in ((first, find_vertices(fresh_copy(path))),
                                 (report, find_vertices(fresh_copy(oriented)))):
                    assert len(ref) > 0
                    assert got == ref and repr(got) == repr(ref)

    def test_measurements_on_memoized_paths_equal_fresh_ones(self, geodesic_cache):
        path = act(RigidMotion(0.4, (1.0, -2.0), -1), geodesic_cache(2.0))
        params = ElasticaParams.from_momentum(2.0)
        oriented, _g = canonical_orient(path)

        def measure(p, o):
            return (repr(find_vertices(o)), period_and_advance(o), front_width(o),
                    back_width(o), fit_elastica_params(p), energy_residual(p, params))

        assert measure(path, oriented) == measure(fresh_copy(path), fresh_copy(oriented))

    def test_memo_is_invisible(self, geodesic_cache):
        bare = fresh_copy(geodesic_cache(0.5, 13.0))  # two periods
        memoized = copy.copy(bare)  # the same arrays
        canonical_orient(memoized)
        fit_elastica_params(memoized)
        energy_residual(memoized, ElasticaParams.from_momentum(0.5))
        assert "_analysis_memo" in vars(memoized)
        assert "_analysis_memo" not in vars(bare)
        assert memoized == bare and bare == memoized
        assert "_analysis_memo" not in [f.name for f in dataclasses.fields(memoized)]
        assert repr(memoized) == repr(bare)
        g = RigidMotion(0.3, (1.0, -2.0), -1)
        moved, moved_bare = act(g, memoized), act(g, bare)
        assert "_analysis_memo" not in vars(moved)
        for field in ("t", "front", "theta", "kappa", "ell", "drift"):
            assert np.array_equal(getattr(moved, field), getattr(moved_bare, field))
        assert path_to_csv(memoized) == path_to_csv(bare)


class TestCanonicalOrient:
    def test_canonical_input_is_fixed(self, geodesic_cache):
        _, g = canonical_orient(geodesic_cache(0.5))
        assert abs(g.rotation) <= 1e-6
        assert abs(g.translation[0]) <= 1e-6
        assert abs(g.translation[1]) <= 1e-6
        assert g.orientation == 1

    def test_recovers_rotation(self, geodesic_cache):
        p = geodesic_cache(0.5)
        about = RigidMotion.translation_by((2.0, 1.0))
        moved = act(about @ RigidMotion(0.7) @ about.inverse(), p)
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

    def test_reflected_soliton_asymptote(self):
        p = integrate_geodesic(soliton_vertex_state(), 30.0, 1e-3)
        shifted = act(RigidMotion(0.3, (1.0, -2.0), -1), p)
        oriented, g = canonical_orient(shifted)
        assert g.orientation == -1
        apex = oriented.front[np.argmax(oriented.front[:, 1])]
        assert abs(apex[0]) <= 1e-3
        assert abs(apex[1] - 2.0) <= 1e-5
        assert abs(oriented.front[-1, 1]) <= 1e-4

    @staticmethod
    def reflected_copy_orient(path):
        # the reference canonical_orient replaces: a negative-curvature
        # path is reflected as a whole and the copy scanned again
        reflect, work = RigidMotion(), path
        if find_vertices(path).vertices[0].kappa < 0.0:
            reflect = RigidMotion.reflection_x()
            work = act(reflect, path)
        maxima = find_vertices(work).maxima()
        if len(maxima) >= 2:
            first = np.asarray(maxima[0].position)
            chord = np.asarray(maxima[-1].position) - first
            rot = RigidMotion(-math.atan2(chord[1], chord[0]))
            move = RigidMotion.translation_by(-rot.apply_point(first)) @ rot @ reflect
            return act(move, path), move
        apex = maxima[0]  # a soliton
        if float(work.t[-1]) - apex.t >= apex.t - float(work.t[0]):
            tangent = work.front[-1] - work.front[-2]
        else:
            tangent = work.front[1] - work.front[0]
        rot = RigidMotion(-math.atan2(tangent[1], tangent[0]))
        target = np.array([0.0, 2.0 * work.ell])
        shift = target - rot.apply_point(np.asarray(apex.position))
        move = RigidMotion.translation_by(shift) @ rot @ reflect
        return act(move, path), move

    def test_matches_reflected_copy_reference(self, geodesic_cache, monkeypatch):
        s = np.arange(-30000, 2001) * 1e-3  # a soliton whose apex is near its end
        x, y, theta, kappa = geodesic(1.0, s)
        bases = [geodesic_cache(0.5), geodesic_cache(2.0),
                 integrate_geodesic(soliton_vertex_state(), 30.0, 1e-3),
                 SampledBikePath(s, np.stack([x, y], axis=1), theta, kappa)]
        motions = [RigidMotion.reflection_x(), RigidMotion(0.7, (2.0, 1.0)),
                   RigidMotion(-2.3, (-1.5, 4.0), -1), RigidMotion(3.0, (0.2, -0.3), -1)]
        calls = {"find_vertices": 0, "act": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for base in bases:
            for g in motions:
                path = act(g, base)
                ref, ref_move = self.reflected_copy_orient(fresh_copy(path))
                with monkeypatch.context() as m:
                    for name in calls:
                        calls[name] = 0
                        m.setattr(analysis, name, counted(name, getattr(analysis, name)))
                    got, move = canonical_orient(path)
                assert calls == {"find_vertices": 1, "act": 1}
                assert move.orientation == g.orientation
                assert repr(move) == repr(ref_move)  # -0.0 and 0.0 differ here
                for field in ("t", "front", "theta", "kappa"):
                    assert (getattr(got, field).tobytes()
                            == getattr(ref, field).tobytes())

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
