"""Closed-form tractrix, soliton, and geodesic period and advance.

When the front wheel rides along the x-axis with the back wheel off the
line, the back wheel traces a tractrix of width ell; flipping the frame
about the back wheel turns the line into the soliton of width 2*ell.
These evaluators are exact and serve as ground truth for the integrators.

The parameter t is the arc length of the *line*.  Because the flip
preserves front-track speed, t is simultaneously the arc length of the
soliton, and the quadrature reparametrization below is the identity up
to quadrature error.

The curvature of a periodic geodesic front track is an elliptic
function of arc length, so its curvature period T and directrix
advance L are complete elliptic integrals of the momentum a.
"""

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.special import ellipe, ellipkm1

from .analysis import CLASS_TOL
from .core import _ell_value
from .errors import NoPeriodError

# beyond this argument sech underflows double precision anyway
_SECH_CLAMP = 700.0


def _sech(x):
    x = np.asarray(x, dtype=float)
    out = 1.0 / np.cosh(np.clip(x, -_SECH_CLAMP, _SECH_CLAMP))
    return np.where(np.abs(x) > _SECH_CLAMP, 0.0, out)


def tractrix_point(t, t0=0.0, ell=1.0):
    """Back-track point of the generic lift of the line at parameter t.

    Returns (t - ell*tanh((t-t0)/ell), ell*sech((t-t0)/ell)); the curve
    has width ell and its cusp-free apex sits at t = t0.
    """
    ell = _ell_value(ell)
    u = (np.asarray(t, dtype=float) - t0) / ell
    return np.stack(np.broadcast_arrays(t - ell * np.tanh(u), ell * _sech(u)), axis=-1)


def soliton_point(t, t0=0.0, ell=1.0):
    """Soliton at parameter t: the flip of the line about the tractrix.

    (t - 2*ell*tanh((t-t0)/ell), 2*ell*sech((t-t0)/ell)); apex height
    2*ell at t = t0, asymptote y = 0.  Computed literally as
    2 * tractrix_point - (t, 0) so that the defining flip identity is
    exact in floating point.
    """
    ell = _ell_value(ell)
    u = (np.asarray(t, dtype=float) - t0) / ell
    x = 2.0 * (t - ell * np.tanh(u)) - t
    y = 2.0 * (ell * _sech(u))
    return np.stack(np.broadcast_arrays(x, y), axis=-1)


def line_lift_theta(t, t0=0.0, ell=1.0):
    """Frame angle of the generic horizontal lift of the line.

    theta(t) = -2 * arccot(exp((t - t0)/ell)), the solution of
    ell * theta' + sin(theta) = 0 with theta(t0) = -pi/2.  It decays to
    0 as t -> +inf and to -pi as t -> -inf.
    """
    ell = _ell_value(ell)
    u = (np.asarray(t, dtype=float) - t0) / ell
    # arccot(e^u) = arctan(e^-u) for e^u > 0
    return -2.0 * np.arctan(np.exp(-u))


def soliton_curvature(s, s0=0.0, ell=1.0):
    """Curvature of the soliton as a function of its arc length:
    kappa(s) = (2/ell) * sech((s - s0)/ell)."""
    ell = _ell_value(ell)
    return (2.0 / ell) * _sech((np.asarray(s, dtype=float) - s0) / ell)


def soliton_arclength(t, t0=0.0, ell=1.0):
    """Cumulative arc length of the soliton over the grid t.

    Computed by trapezoidal quadrature of the speed.  The speed is
    identically 1, so this returns t - t[0] up to quadrature error; it is
    kept as an independent numerical check of that identity.
    """
    ell = _ell_value(ell)
    t = np.asarray(t, dtype=float)
    u = (t - t0) / ell
    sech, tanh = _sech(u), np.tanh(u)
    speed = np.hypot(1.0 - 2.0 * sech**2, -2.0 * sech * tanh)
    return cumulative_trapezoid(speed, t, initial=0.0)


def elliptic_period_advance(a, ell=1.0):
    """Curvature period T and directrix advance L of the geodesic with
    momentum a, from complete elliptic integrals.

    With p = ((1-a)/(1+a))^2 the complementary parameter,
    T = 4 K(1-p) / (1+a) and L = ((1+a^2) T - 4 (1+a) E(1-p)) / (2a),
    both in units of ell.  K is evaluated through ellipkm1(p), which
    keeps full precision near the soliton limit a -> 1 where T diverges
    logarithmically; T - L tends to 4*ell there and to 0 as a -> inf.
    Circles (a = 0) and solitons (a = 1), as classified within
    CLASS_TOL, have no period and raise NoPeriodError.
    """
    a = float(a)
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"momentum parameter a must be finite and >= 0, got {a}")
    ell = _ell_value(ell)
    if a <= CLASS_TOL or abs(a - 1.0) <= CLASS_TOL:
        raise NoPeriodError(f"no curvature period at a={a}: circle or soliton")
    p = ((1.0 - a) / (1.0 + a)) ** 2
    T = 4.0 * float(ellipkm1(p)) / (1.0 + a)
    L = ((1.0 + a * a) * T - 4.0 * (1.0 + a) * float(ellipe(1.0 - p))) / (2.0 * a)
    return ell * T, ell * L
