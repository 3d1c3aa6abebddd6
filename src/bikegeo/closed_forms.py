"""Closed-form tractrix, soliton, geodesics, and their period and advance.

When the front wheel rides along the x-axis with the back wheel off the
line, the back wheel traces a tractrix of width ell; flipping the frame
about the back wheel turns the line into the soliton of width 2*ell.
These evaluators are exact and serve as ground truth for the integrators.

The parameter t is the arc length of the *line*.  Because the flip
preserves front-track speed, t is simultaneously the arc length of the
soliton, and the quadrature reparametrization below is the identity up
to quadrature error.

The curvature of a geodesic front track is an elliptic function of
arc length, kappa(s) = (1+a) dn((1+a) s / 2 | m) with m = 4a/(1+a)^2,
so the whole geodesic has a closed form in sn, cn, dn and an
incomplete elliptic integral (:func:`geodesic`), and its curvature
period T and directrix advance L are complete elliptic integrals of
the momentum a.
"""

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.special import (ellipe, ellipj, ellipk, ellipkm1, elliprd,
                           elliprf)

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
    L = ((1+a^2) T - 4 (1+a) E) / (2a) is the small difference of two
    large terms whenever m = 1-p = 4a/(1+a)^2 is small, that is both as
    a -> 0 (L ~ pi*a) and as a -> inf (L ~ pi/a^2).  For m <= 1/2 it is
    therefore summed as the positive series
    L = 2 pi/(1+a) * sum_{n>=1} c_n n/(n+1) m^n, c_n = ((1/2)_n/n!)^2,
    the term-by-term sum of 4 (2(K-E)/m - K) / (1+a); it has no
    cancellation.  Above m = 1/2 it is evaluated in the Carlson form
    4 (2 R_D(0,p,1)/3 - R_F(0,p,1)) / (1+a).  Against 80-digit
    references L is within 1.3e-15 relative for a in [2e-9, 1e16].
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
    m = 4.0 * a / (1.0 + a) / (1.0 + a)
    if m <= 0.5:
        # 53 terms: m^n <= 2^-n reaches double rounding
        n = np.arange(1.0, 54.0)
        c = np.cumprod(((n - 0.5) / n) ** 2)
        L = 2.0 * math.pi / (1.0 + a) * float(np.sum(c * n / (n + 1.0) * m**n))
    else:
        L = 4.0 * (2.0 * float(elliprd(0.0, p, 1.0)) / 3.0
                   - float(elliprf(0.0, p, 1.0))) / (1.0 + a)
    return ell * T, ell * L


def _periodic_parts(a, u, K, p, m):
    """(dn, sn^2, sn cn, D, S) at phases u in [-K, K], where
    D = int_0^u sn^2 and S = 1 + a - 2 sn^2.

    For m <= 1/2 these come from ellipj, with D in the Carlson form
    sn^3 R_D(cn^2, dn^2, 1) / 3.  Above m = 1/2 ellipj would lose the
    complement p = 1 - m to rounding (all of it as a -> 1), so dn is
    summed as the soliton lattice
    dn(u) = c sum_n sech(c (u - 2nK)) with c = pi / (2 K(p)),
    and its derivative and integral follow term by term:
    sn cn = -dn' / m and
    int_0^u dn^2 = (1 - E(p)/K(p)) u + c sum_n tanh(c (u - 2nK)).
    The pulses beyond n_max are below 2 exp(-pi (2 n_max - 1) K / (2 K(p)))
    < 1e-17.  S is then taken as 2 (dn^2 - (1-a)/(1+a)) / m, which keeps
    its full relative precision where it is as small as sqrt(p).
    """
    if m <= 0.5:
        sn, cn, dn, _am = ellipj(u, m)
        sn2 = sn * sn
        d = sn * sn2 * elliprd(cn * cn, dn * dn, 1.0) / 3.0
        return dn, sn2, sn * cn, d, 1.0 + a - 2.0 * sn2
    kp = float(ellipk(p))
    c = 0.5 * math.pi / kp
    n_max = math.ceil(13.0 * kp / K) + 1
    dn, ddn, tanh_sum = np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)
    for n in range(-n_max, n_max + 1):
        z = c * (u - 2.0 * n * K)
        sech, tanh = 1.0 / np.cosh(z), np.tanh(z)
        dn += sech
        ddn += sech * tanh
        tanh_sum += tanh
    dn *= c
    ddn *= -c * c
    dn2 = dn * dn
    d = (float(ellipe(p)) / kp * u - c * tanh_sum) / m
    r = (1.0 - a) / (1.0 + a)
    return dn, (1.0 - dn2) / m, -ddn / m, d, 2.0 * (dn2 - r) / m


def geodesic(a, s):
    """Unit-speed geodesic with momentum a >= 0 at arc lengths s (ell = 1).

    Returns the arrays (x, y, theta, kappa) of the canonical vertex
    geodesic: at s = 0 the front is at the origin at a curvature
    maximum kappa = 1 + a with frame angle pi/2, and the momentum is
    (px, py) = (a, 0).  With u = (1+a) s / 2 and m = 4a/(1+a)^2,

        kappa = (1+a) dn(u),   y = -4 sn^2 / ((1+a) (1 + dn)),
        x = (4 D(u) - 2u) / (1+a),   D(u) = int_0^u sn^2,
        theta = pi/2 + arg(1 + a - 2 sn^2 + 2i sn cn),

    written so that nothing is divided by a.  The phase is reduced to
    u = 2jK + u_r with |u_r| <= K first: x then advances L per period
    (see :func:`elliptic_period_advance`), and theta by 2 pi per period
    for a < 1, so theta is continuous and depends on each s alone.  The
    circle (a = 0) and the soliton (a = 1) are evaluated directly.
    """
    a = float(a)
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"momentum parameter a must be finite and >= 0, got {a}")
    s = np.asarray(s, dtype=float)
    if a == 0.0:
        return (-np.sin(s), -2.0 * np.sin(0.5 * s) ** 2, 0.5 * math.pi + s,
                np.ones_like(s))
    if a == 1.0:
        sech, tanh = _sech(s), np.tanh(s)
        return (s - 2.0 * tanh, -2.0 * tanh * tanh / (1.0 + sech),
                0.5 * math.pi + 2.0 * np.arctan(np.tanh(0.5 * s)), 2.0 * sech)
    p = ((1.0 - a) / (1.0 + a)) ** 2
    m = 4.0 * a / (1.0 + a) / (1.0 + a)
    K = float(ellipkm1(p))
    u = 0.5 * (1.0 + a) * s
    j = np.rint(0.5 * u / K)
    u_r = u - 2.0 * K * j
    dn, sn2, sncn, d, S = _periodic_parts(a, u_r, K, p, m)
    advance = 4.0 * (2.0 * float(elliprd(0.0, p, 1.0)) / 3.0 - K) / (1.0 + a)
    x = (4.0 * d - 2.0 * u_r) / (1.0 + a) + advance * j
    y = -4.0 * sn2 / ((1.0 + a) * (1.0 + dn))
    psi = np.arctan2(2.0 * sncn, S)
    if a < 1.0:
        # psi runs from -pi to pi over |u_r| <= K; at the ends the rounded
        # sign of sn cn may put it on the wrong side of the cut
        cut = (np.abs(psi) > 0.5 * math.pi) & (psi * u_r < 0.0)
        psi += np.where(cut, np.copysign(2.0 * math.pi, u_r), 0.0) + 2.0 * math.pi * j
    return x, y, 0.5 * math.pi + psi, (1.0 + a) * dn


def geodesic_phase(a, theta, kappa):
    """Arc length s0 at which :func:`geodesic` passes through a reduced
    unit-speed state with frame angle theta and curvature kappa > 0.

    On the unit shell sin 2 am(u) = -kappa cos(theta) and
    cos 2 am(u) = kappa sin(theta) - a (kappa' = a kappa cos(theta) fixes
    the half period), and u = F(am | m) is evaluated as
    sin(am) R_F(cos^2 am, cos^2 am + p sin^2 am, 1) with the complement
    p = ((1-a)/(1+a))^2, so it stays exact as a -> 1.
    """
    a = float(a)
    phi = 0.5 * math.atan2(-kappa * math.cos(theta), kappa * math.sin(theta) - a)
    p = ((1.0 - a) / (1.0 + a)) ** 2
    s, c = math.sin(phi), math.cos(phi)
    u = s * float(elliprf(c * c, c * c + p * s * s, 1.0))
    return 2.0 * u / (1.0 + a)
