"""Shortcut construction and the metric-line dichotomy."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bikegeo import analysis, metriclines
from bikegeo.closed_forms import elliptic_period_advance
from bikegeo.core import horizontality_residuals, default_horizontality_tol
from bikegeo.errors import EndpointMismatchError, InvalidPeriodError
from bikegeo.metriclines import (ShortcutReport, build_shortcut,
                                 is_metric_line_candidate, shortcut_analysis,
                                 shortcut_threshold)


class TestThreshold:
    def test_worked_example(self):
        assert shortcut_threshold(2.0, 1.0, 1.0) == 4

    def test_soliton_limit_blows_up(self):
        assert shortcut_threshold(5.0, 5.0 - 1e-12, 1.0) > 1e12

    def test_rejects_bad_period(self):
        with pytest.raises(InvalidPeriodError):
            shortcut_threshold(1.0, 1.5, 1.0)
        with pytest.raises(InvalidPeriodError):
            shortcut_threshold(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("T, L", [(math.inf, 1.0), (2.0, math.nan),
                                      (math.nan, 1.0)])
    def test_rejects_non_finite_period(self, T, L):
        with pytest.raises(ValueError,
                           match=f"T = {T!r} and L = {L!r} must both be finite"):
            shortcut_threshold(T, L, 1.0)

    def test_rejects_overflowing_count(self):
        # pi * ell is past the largest double: there is no N to floor
        with pytest.raises(ValueError, match="overflows for T = 2.0, L = 1.0"):
            shortcut_threshold(2.0, 1.0, 5.8e307)

    @given(st.floats(0.5, 10.0), st.floats(0.01, 0.99), st.floats(0.2, 3.0))
    def test_minimality(self, T, frac, ell):
        L = frac * T
        n = shortcut_threshold(T, L, ell)
        assert math.pi * ell + n * L < n * T
        if n > 1:
            assert not (math.pi * ell + (n - 1) * L < (n - 1) * T)


class TestBuildShortcut:
    def test_total_length(self):
        cut = build_shortcut(3, 1.7, 1.0)
        nominal = math.pi + 3 * 1.7
        assert abs((cut.t[-1] - cut.t[0]) - nominal) <= 1e-9

    def test_is_horizontal(self):
        cut = build_shortcut(2, 1.0, 1.0)
        assert horizontality_residuals(cut).max() <= default_horizontality_tol(cut)

    def test_endpoint_configuration(self):
        N, L = 2, 1.3
        cut = build_shortcut(N, L, 1.0)
        end = cut.config(len(cut) - 1)
        assert abs(end.x - N * L) <= 1e-12
        assert abs(end.y) <= 1e-12
        assert abs(end.theta - math.pi / 2) <= 1e-12

    def test_endpoint_check(self, monkeypatch):
        # an advance 1% short puts the shortcut's end off the geodesic's
        def short_advance(a, ell):
            T, L = elliptic_period_advance(a, ell)
            return T, 0.99 * L

        monkeypatch.setattr(metriclines, "elliptic_period_advance", short_advance)
        with pytest.raises(EndpointMismatchError, match="shortcut endpoint off"):
            shortcut_analysis(0.5)

    def test_step_budget_refused_before_allocation(self):
        # the straight ride asks for 1.1 * 10^6 steps, over the step budget
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                build_shortcut(1100, 1.0, 1.0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestShortcutAnalysis:
    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_beats_geodesic(self, a):
        report, geod, cut = shortcut_analysis(a)
        assert report.margin >= 1e-3
        assert report.shortcut_length < report.geodesic_length
        assert cut.config(len(cut) - 1).gap(geod.config(len(geod) - 1)) <= 1e-4

    def test_below_threshold_is_longer(self):
        report, _, _ = shortcut_analysis(4.0)
        assert report.N_star >= 2
        n = report.N_star - 1
        assert math.pi * report.ell + n * report.L > n * report.T

    def test_report_invariant_enforced(self):
        with pytest.raises(InvalidPeriodError):
            ShortcutReport(T=2.0, L=1.0, ell=1.0, N_star=1,
                           geodesic_length=2.0, shortcut_length=math.pi + 1.0)


class TestCandidates:
    @pytest.mark.parametrize("a,k0,want", [
        (1.0, 0.0, True),    # line
        (1.0, 2.0, True),    # soliton
        (0.5, 1.5, False),
        (2.0, 3.0, False),
        (0.0, 1.0, False),   # circle
    ])
    def test_table(self, a, k0, want):
        assert is_metric_line_candidate(analysis.classify(a, k0)) is want
