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
from scipy.special import (ellipe, ellipj, ellipk, ellipkm1, elliprd,
                           elliprf)

from . import numdiff
from .core import _ell_value
from .errors import NoPeriodError

#: classification tolerance around the boundary momenta a in {0, 1}
CLASS_TOL = 1e-9
# beyond this argument sech underflows double precision anyway
_SECH_CLAMP = 700.0
# largest phase |u| = (1+a) |s| / 2 that geodesic accepts, for every
# momentum: below it the rounding of u (at most 2^-21, half a unit in
# the last place of 2^32) and of the reduction u - 2jK keep the reduced
# phase within about 2^-20 ~ 1e-6; past it the phase loses a digit per
# decade of s, and by |u| ~ 1e15 all of them
MAX_PHASE = 2.0**32


def _momentum(a):
    a = float(a)
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"momentum parameter a must be finite and >= 0, got {a}")
    return a


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
    p = 2.0 * tractrix_point(t, t0, ell)
    p[..., 0] -= t
    return p


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
    return numdiff.cumulative_trapezoid(speed, t)


def _advance(a, p, m, K):
    """Directrix advance L per curvature period (ell = 1), given
    p = ((1-a)/(1+a))^2, m = 1 - p and K = ellipkm1(p).  For m <= 1/2,
    where L = ((1+a^2) T - 4 (1+a) E) / (2a) cancels (a -> 0 and a -> inf),
    it is the positive series 2 pi/(1+a) sum_{n>=1} c_n n/(n+1) m^n with
    c_n = ((1/2)_n/n!)^2, the term-by-term sum of 4 (2(K-E)/m - K) / (1+a);
    above m = 1/2 it is the Carlson form 4 (2 R_D(0,p,1)/3 - K) / (1+a).
    """
    if m <= 0.5:
        # 53 terms: m^n <= 2^-n reaches double rounding
        n = np.arange(1.0, 54.0)
        c = np.cumprod(((n - 0.5) / n) ** 2)
        return 2.0 * math.pi / (1.0 + a) * float(np.sum(c * n / (n + 1.0) * m**n))
    return 4.0 * (2.0 * float(elliprd(0.0, p, 1.0)) / 3.0 - K) / (1.0 + a)


def elliptic_period_advance(a, ell=1.0):
    """Curvature period T and directrix advance L of the geodesic with
    momentum a, from complete elliptic integrals.

    With p = ((1-a)/(1+a))^2 the complementary parameter,
    T = 4 K(1-p) / (1+a) and L = ((1+a^2) T - 4 (1+a) E(1-p)) / (2a),
    both in units of ell.  K is evaluated through ellipkm1(p), which
    keeps full precision near the soliton limit a -> 1 where T diverges
    logarithmically; T - L tends to 4*ell there and to 0 as a -> inf.
    L is the per-period advance of :func:`geodesic` (:func:`_advance`).
    Circles (a = 0) and solitons (a = 1), as classified within
    CLASS_TOL, have no period and raise NoPeriodError.
    """
    a = _momentum(a)
    ell = _ell_value(ell)
    if a <= CLASS_TOL or abs(a - 1.0) <= CLASS_TOL:
        raise NoPeriodError(f"no curvature period at a={a}: circle or soliton")
    p = ((1.0 - a) / (1.0 + a)) ** 2
    m = 4.0 * a / (1.0 + a) / (1.0 + a)
    K = float(ellipkm1(p))
    return ell * (4.0 * K / (1.0 + a)), ell * _advance(a, p, m, K)


def _periodic_parts(a, u, K, p, m):
    """(dn, sn^2, sn cn, D, S) at phases u in [-K, K], where
    D = int_0^u sn^2 and S = 1 + a - 2 sn^2.

    For m <= 1/2 these come from ellipj, with D in the Carlson form
    sn^3 R_D(cn^2, dn^2, 1) / 3.  Above m = 1/2 ellipj would lose the
    complement p = 1 - m to rounding (all of it as a -> 1), so dn is
    summed as the soliton lattice (DLMF 22.11)
    dn(u) = c sum_n sech(x - n alpha) with x = c u, c = pi / (2 K(p))
    and alpha = 2 c K, and its derivative and integral follow term by
    term: sn cn = -dn' / m and
    int_0^u dn^2 = (1 - E(p)/K(p)) u + c sum_n tanh(x - n alpha).
    Every pulse comes from w = e^x, since e^(x - n alpha) = w q^n with
    q = e^-alpha.  The pulses |n| <= 1 are summed as they are; each tail
    |n| >= 2 is a series in y = e^(+-x) q^2 <= e^(-3 alpha / 2) <= 0.009,
    sum sech = 2 sum_k (-1)^k y^(2k+1) / (1 - q^(2k+1)), and likewise
    for sech tanh and tanh.  One to four terms are kept, so that the
    first one dropped is below 2^-56 e^(-alpha / 2), under a rounding
    unit of dn's minimum sqrt(p) ~ 4 c e^(-alpha / 2).  S is then taken
    as 2 (dn^2 - (1-a)/(1+a)) / m, which keeps its full relative
    precision where it is as small as sqrt(p).
    """
    if m <= 0.5:
        sn, cn, dn, _am = ellipj(u, m)
        sn2 = sn * sn
        d = sn * sn2 * elliprd(cn * cn, dn * dn, 1.0) / 3.0
        return dn, sn2, sn * cn, d, 1.0 + a - 2.0 * sn2
    kp = float(ellipk(p))
    c = 0.5 * math.pi / kp
    alpha = 2.0 * c * K
    q = math.exp(-alpha)
    # half_dn, half_dd and half_tc hold sum sech / 2, sum sech tanh / 2
    # and (3 - sum tanh) / 2 over the lattice; every array is updated in
    # place, since on arrays this size a fresh array costs more than the
    # arithmetic; the six Horner sums share the buffer acc
    half_dn, half_dd, half_tc = np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)
    acc = np.empty_like(u)
    w = np.exp(c * u)
    # the tails by Horner in y^2; the first power dropped is
    # y^(2 terms + 1) <= 2^-56 e^(-alpha / 2)
    terms = max(1, math.ceil(56.0 * math.log(2.0) / (3.0 * alpha) - 1.0 / 3.0))
    odd = [(-1.0) ** k / -math.expm1(-(2 * k + 1) * alpha) for k in range(terms)]
    odd_dd = [(2 * k + 1) * b for k, b in enumerate(odd)]
    even = [(-1.0) ** k / -math.expm1(-(2 * k + 2) * alpha) for k in range(terms)]
    for y, upper in ((q * q * w, True), (q * q / w, False)):
        # y = q^2 w sums the pulses n >= 2, where sech tanh < 0 and
        # tanh ~ -1; y = q^2 / w the pulses n <= -2
        y2 = y * y
        for total, coef, power, add in ((half_dn, odd, y, True),
                                        (half_dd, odd_dd, y, not upper),
                                        (half_tc, even, y2, not upper)):
            acc.fill(coef[-1])
            for b in coef[-2::-1]:
                acc *= y2
                acc += b
            acc *= power
            if add:
                total += acc
            else:
                total -= acc
    # pulses n = 1, -1, 0 with r = 1 / (1 + w^2): sech = 2wr, tanh = 1 - 2r;
    # the last one overwrites w
    for wn in (q * w, w / q, w):
        r = wn * wn
        r += 1.0
        np.reciprocal(r, out=r)
        half_tc += r
        wn *= r
        half_dn += wn
        half_dd += wn
        wn *= r
        wn *= 2.0
        half_dd -= wn
    dn = half_dn
    dn *= 2.0 * c
    S = dn * dn
    sn2 = 1.0 - S
    sn2 /= m
    S -= (1.0 - a) / (1.0 + a)
    S *= 2.0 / m
    half_dd *= 2.0 * c * c / m
    # D = (E(p)/K(p) u - c sum tanh) / m with sum tanh = 3 - 2 half_tc
    d = half_tc
    d *= 2.0 * c / m
    d += (float(ellipe(p)) / (kp * m)) * u
    d -= 3.0 * c / m
    return dn, sn2, half_dd, d, S


def _check_phase(a, s):
    """Raise ValueError unless every arc length s is finite with
    (1+a)|s|/2 <= MAX_PHASE, the bound of :func:`geodesic` at a momentum
    a >= 0; one read of s rejects nan, inf and phases past the bound."""
    s_max = MAX_PHASE / (0.5 * (1.0 + a))
    if not np.all(np.abs(s) <= s_max):
        raise ValueError(f"arc lengths s must be finite with (1+a)|s|/2 <= "
                         f"{MAX_PHASE:.0f}, i.e. |s| <= {s_max:.6g} at a = {a}")


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
    u = 2jK + u_r with |u_r| <= K first: x then advances by the L of
    :func:`elliptic_period_advance` per period, and theta by 2 pi per period
    for a < 1, so theta is continuous and depends on each s alone.  The
    circle (a = 0) and the soliton (a = 1) are evaluated directly.

    Every |u| must be at most MAX_PHASE = 2^32, for every momentum;
    rounding then moves the reduced phase by about 2^-20 ~ 1e-6 at most.
    A non-finite s, or one past the bound, raises ValueError.
    """
    a = _momentum(a)
    s = np.asarray(s, dtype=float)
    _check_phase(a, s)
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
    # the arrays are updated in place, as in _periodic_parts
    u = 0.5 * (1.0 + a) * s.reshape(-1)
    j = 0.5 * u
    j /= K
    np.rint(j, out=j)
    u_r = u
    u_r -= 2.0 * K * j
    dn, y, psi, x, S = _periodic_parts(a, u_r, K, p, m)
    advance = _advance(a, p, m, K)
    # x = (4 D - 2 u_r) / (1 + a) + advance j, y = -4 sn^2 / ((1 + a) (1 + dn))
    x *= 4.0
    x -= 2.0 * u_r
    x /= 1.0 + a
    x += advance * j
    y *= -4.0 / (1.0 + a)
    y /= 1.0 + dn
    psi *= 2.0
    np.arctan2(psi, S, out=psi)
    if a < 1.0:
        # psi runs from -pi to pi over |u_r| <= K; at the ends the rounded
        # sign of sn cn may put it on the wrong side of the cut.  There
        # psi and u_r differ in sign, which picks out the few samples to
        # test; a sample across the cut adds +-2 pi + 2 pi j as one summand
        j *= 2.0 * math.pi
        near = np.flatnonzero(np.multiply(psi, u_r, out=S) < 0.0)
        cut = near[np.abs(psi[near]) > 0.5 * math.pi]
        j[cut] += np.copysign(2.0 * math.pi, u_r[cut])
        psi += j
    psi += 0.5 * math.pi
    dn *= 1.0 + a
    return tuple(v.reshape(s.shape) for v in (x, y, psi, dn))


def geodesic_phase(a, theta, kappa):
    """Arc length s0 at which :func:`geodesic` passes through a reduced
    unit-speed state with frame angle theta and curvature kappa > 0.

    On the unit shell sin 2 am(u) = -kappa cos(theta) and
    cos 2 am(u) = kappa sin(theta) - a (kappa' = a kappa cos(theta) fixes
    the half period), and u = F(am | m) is evaluated as
    sin(am) R_F(cos^2 am, cos^2 am + p sin^2 am, 1) with the complement
    p = ((1-a)/(1+a))^2, so it stays exact as a -> 1.  The momentum a
    must be finite and >= 0, theta finite and kappa finite and > 0.
    """
    a = _momentum(a)
    theta, kappa = float(theta), float(kappa)
    if not (math.isfinite(theta) and math.isfinite(kappa) and kappa > 0.0):
        raise ValueError(f"need a finite theta and a finite kappa > 0, got "
                         f"theta={theta}, kappa={kappa}")
    phi = 0.5 * math.atan2(-kappa * math.cos(theta), kappa * math.sin(theta) - a)
    p = ((1.0 - a) / (1.0 + a)) ** 2
    s, c = math.sin(phi), math.cos(phi)
    u = s * float(elliprf(c * c, c * c + p * s * s, 1.0))
    return 2.0 * u / (1.0 + a)
