"""Finite differences against np.gradient, and the closed-form
two-column least squares against np.linalg.lstsq."""

import math

import numpy as np
import pytest

from bikegeo import numdiff
from bikegeo.analysis import fit_elastica_params
from bikegeo.errors import DegenerateInputError
from bikegeo.holonomy import FIT_SPACING, correspondent, pressurized_fit
from bikegeo.integrate import (CotangentState, FrontTrackSpec,
                               canonical_vertex_state, integrate_geodesic)


def lstsq_reference(x, rhs, rcond=1e-6):
    """np.linalg.lstsq on the columns [x, -1]: the solver affine_lstsq
    replaces in the elastica fits."""
    rows = np.stack([x, -np.ones(x.size)], axis=1)
    (A, B), *_ = np.linalg.lstsq(rows, rhs, rcond=rcond)
    return float(A), float(B)


def assert_close(got, want, rtol):
    for g, w in zip(got, want):
        assert abs(g - w) <= rtol * abs(w), (got, want)


def energy_system(path):
    """fit_elastica_params' system: (A/2) kappa^2 - B = -(kappa'^2/2 + kappa^4/8)."""
    k = path.kappa
    kd = numdiff.deriv1(k, path.t)
    sl = numdiff.interior(len(path), 2)
    return 0.5 * k[sl] ** 2, -(0.5 * kd[sl] ** 2 + 0.125 * k[sl] ** 4)


def pressurized_system(path):
    """pressurized_fit's system: A kappa - C = -(kappa'' + kappa^3 / 2)."""
    stride = max(1, int(round(FIT_SPACING / float(np.median(np.diff(path.t))))))
    f, t = path.front[::stride], path.t[::stride]
    kappa = numdiff.curvature_from_track(f, t)
    kdd = numdiff.deriv2(kappa, t)
    k = kappa[numdiff.interior(f.shape[0], 5)]
    return k, -(kdd[numdiff.interior(f.shape[0], 5)] + 0.5 * k**3)


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 2.0, 4.0])
def test_survey_fits_agree_with_lstsq(a):
    reduced = integrate_geodesic(canonical_vertex_state(a), 17.0, 1e-3)
    phi, kappa = 0.8, 0.5 * (abs(1.0 - a) + 1.0 + a)
    theta = math.asin((kappa * kappa + a * a - 1.0) / (2.0 * a * kappa))
    rotated = integrate_geodesic(
        CotangentState(0.3, -1.2, theta + phi, a * math.cos(phi),
                       a * math.sin(phi), kappa), 17.0, 1e-3)
    for path in (reduced, rotated):
        fit = fit_elastica_params(path)
        assert_close((fit.A, fit.B), lstsq_reference(*energy_system(path)), 1e-12)


@pytest.mark.parametrize("r", [2.0, 2.5, 3.0])
def test_pressurized_fits_agree_with_lstsq(r):
    corr = correspondent(FrontTrackSpec.circle(r, 0.0, 4.0 * math.pi * r), 0.7)
    A, C, _residual = pressurized_fit(corr)
    assert_close((A, C), lstsq_reference(*pressurized_system(corr)), 1e-12)


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 3.0])
def test_constant_column_gives_the_minimum_norm_solution(c):
    # a circle of curvature kappa: x = kappa^2 / 2 constant, kappa' = 0
    kappa = math.sqrt(2.0 * c)
    x = np.full(2001, c)
    rhs = np.full(2001, -0.125 * kappa**4)
    got = numdiff.affine_lstsq(x, rhs)
    mean = float(rhs.mean())
    assert_close(got, (c * mean / (c * c + 1.0), -mean / (c * c + 1.0)), 1e-15)
    assert_close(got, lstsq_reference(x, rhs), 1e-13)


@pytest.mark.parametrize("delta, kept", [(1e-5, True), (4e-6, True),
                                         (3e-6, False), (1e-7, False)])
def test_rank_decision_matches_lstsq_on_each_side_of_rcond(delta, kept):
    n = 1001
    x = 1.0 + delta * np.linspace(-1.0, 1.0, n)
    sv = np.linalg.svd(np.stack([x, -np.ones(n)], axis=1), compute_uv=False)
    assert (sv[1] > 1e-6 * sv[0]) == kept  # s2 / s1 is about 0.29 delta
    noise = np.random.default_rng(5).normal(0.0, 1e-12, n)
    rhs = 0.3 * x - 0.2 + noise
    got = numdiff.affine_lstsq(x, rhs)
    # kept: near the generating (0.3, 0.2); dropped: the minimum norm
    # solution near (0.05, -0.05), as lstsq has it.  Kept near the bound
    # the system's condition number is 1e5 to 1e6.
    assert_close(got, (0.3, 0.2) if kept else (0.05, -0.05), 1e-3)
    assert_close(got, lstsq_reference(x, rhs), 1e-9 if kept else 1e-12)


def _grids(n):
    rng = np.random.default_rng(n)
    near = 0.3 + np.arange(n) * 1e-3
    return {
        "uniform": np.arange(n) * 0.25,
        # uniform to 1e-8, not exactly: np.gradient's weights, not its step
        "near_uniform": near,
        "random": np.cumsum(rng.uniform(0.05, 1.0, n)),
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 3000])
@pytest.mark.parametrize("grid", ["uniform", "near_uniform", "random"])
@pytest.mark.parametrize("width", [None, 2, 3])
def test_gradient_is_np_gradient_bitwise(n, grid, width):
    t = _grids(n)[grid]
    if grid == "near_uniform" and n == 3000:
        assert not (np.diff(t) == np.diff(t)[0]).all() and numdiff.is_uniform(t)
    y = np.random.default_rng(7).normal(size=(n,) if width is None else (n, width))
    want = np.gradient(y, t, axis=0).tobytes()
    assert numdiff.gradient(y, t).tobytes() == want
    assert numdiff.gradient(y, numdiff.spacing(t)).tobytes() == want
    h = t[1] - t[0]
    assert numdiff.gradient(y, h).tobytes() == np.gradient(y, h, axis=0).tobytes()


@pytest.mark.parametrize("n", [0, 1])
def test_gradient_needs_two_samples(n):
    with pytest.raises(ValueError, match="at least 2 samples"):
        numdiff.gradient(np.zeros(n), np.arange(n, dtype=float))
    with pytest.raises(ValueError, match="at least 2 samples"):
        numdiff.gradient(np.zeros((n, 2)), 0.1)
    with pytest.raises(ValueError, match="at least 2 samples"):
        numdiff.deriv1(np.zeros(n), np.arange(n, dtype=float))


def test_gradient_refuses_a_grid_of_another_length():
    with pytest.raises(ValueError, match="5 samples on a grid of 4"):
        numdiff.gradient(np.zeros(5), np.arange(4.0))


def _np_gradient_deriv2(y, t):
    """deriv2 on a non-uniform grid as np.gradient of np.gradient."""
    return np.gradient(np.gradient(y, t, axis=0), t, axis=0)


@pytest.mark.parametrize("n", [3, 4, 5, 200])
@pytest.mark.parametrize("grid", ["uniform", "near_uniform", "random"])
def test_derivatives_match_np_gradient_forms_bitwise(n, grid):
    t = _grids(n)[grid]
    rng = np.random.default_rng(3)
    pts = np.stack([np.cos(t), np.sin(2.0 * t)], axis=1) + rng.normal(0.0, 1e-3, (n, 2))
    if numdiff.is_uniform(t):
        h = t[1] - t[0]
        d1 = np.gradient(pts, h, axis=0) if n < 5 else numdiff.deriv1_uniform(pts, h)
        d2 = (np.gradient(np.gradient(pts, h, axis=0), h, axis=0) if n < 5
              else numdiff.deriv2_uniform(pts, h))
    else:
        d1, d2 = np.gradient(pts, t, axis=0), _np_gradient_deriv2(pts, t)
    assert numdiff.deriv1(pts, t).tobytes() == d1.tobytes()
    assert numdiff.deriv2(pts, t).tobytes() == d2.tobytes()
    kappa = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / (
        d1[:, 0] ** 2 + d1[:, 1] ** 2) ** 1.5
    assert numdiff.curvature_from_track(pts, t).tobytes() == kappa.tobytes()


@pytest.mark.parametrize("scale", [1e25, 1e30, 1e40, 1e77, 1e150])
def test_fit_past_the_float_range_refused(scale):
    # from about 1e25 the fit's sums pass 1e308: its coefficients would
    # be NaN, or 0 over an infinite divisor
    from bikegeo.core import SampledBikePath
    t = np.linspace(0.0, 20.0, 2001)
    path = SampledBikePath(t, np.stack([t, 0.0 * t], axis=1), 0.0 * t,
                           scale * (2.0 + np.sin(t)))
    with pytest.raises(DegenerateInputError, match="overflow"):
        fit_elastica_params(path)


def test_affine_lstsq_refuses_infinite_sums():
    x = np.linspace(1.0, 2.0, 11)
    for rhs in (x * 1e307, x * math.inf):
        with pytest.raises(DegenerateInputError, match="overflow"):
            numdiff.affine_lstsq(x * 1e300, rhs)
