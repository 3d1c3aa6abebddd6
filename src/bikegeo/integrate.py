"""Geodesic flow and horizontal lifts.

The unit-speed geodesics of the no-skid geometry are the projections of
the Hamiltonian flow of H = (P1^2 + P2^2)/2 on the cotangent bundle,
with P1 = px - sin(theta) * ptheta and P2 = py + cos(theta) * ptheta.
px and py are conserved; rotating them onto (a, 0) with a >= 0 gives
the reduced system in (x, y, theta, kappa), which is the same flow with
ptheta = kappa, the signed curvature of the front track.  A reduced
state is therefore integrated as the cotangent point (px, py) = (a, 0),
and every geodesic runs through one flow on (x, y, theta, ptheta).

Geodesics are sampled from the elliptic closed form
(:func:`closed_forms.geodesic`): the curvature of a unit-speed geodesic
is (1+a) dn((1+a) s / 2 | 4a/(1+a)^2), every state lies on the
canonical vertex geodesic up to a phase, a rotation and a reflection,
and the flow of a state off the unit shell is the unit-speed flow at
the speed sqrt(2H).  :func:`rk4_geodesic` integrates the same flow with
classical fixed-step RK4 on Python floats; it is kept as the
independent oracle that the checks pin, and the ``geodesic`` command
and the shortcut use it.  A batch is a list of single geodesics.
Conserved quantities are reported as drift, never projected back.

The horizontal lift ell * theta' = cos(theta) * y' - sin(theta) * x' is
a Riccati equation, linear on v = (sin(theta/2), cos(theta/2)):
v' = A v with A = [[-x', y'], [y', x']] / (2 ell).  One RK4 step of it
is a 2x2 matrix, acting on the fiber circle as a Moebius map, and the
lift to every sample is the running product of these matrices.  The
matrices are held as four entry arrays, multiplied entrywise, and the
product is built by log-depth doubling.  Each fiber angle then reads
its half angle psi = atan2 of the transported v, which is continuous,
so it is unwrapped by exact multiples of 2 pi.
"""

import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import RigidMotion, SampledBikePath, _ell_value
from . import closed_forms, numdiff
from .errors import DivergenceError, ImmersionError, NotUnitSpeedError

DEFAULT_STEP = 1e-3
# Largest number of steps on one time grid, checked before anything is
# allocated: a single geodesic at the budget holds 32 MB of trajectory.
MAX_STEPS = 10**6
# Largest number of samples times batch width (states or fiber angles)
# on one grid: four trajectories at the step budget, 128 MB of geodesics.
_MAX_BATCH_SAMPLES = 4 * MAX_STEPS


@dataclass(frozen=True)
class CotangentState:
    """Full phase-space point (x, y, theta, px, py, ptheta)."""

    x: float
    y: float
    theta: float
    px: float
    py: float
    ptheta: float

    @property
    def p1(self):
        return self.px - math.sin(self.theta) * self.ptheta

    @property
    def p2(self):
        return self.py + math.cos(self.theta) * self.ptheta

    def hamiltonian(self):
        return 0.5 * (self.p1**2 + self.p2**2)


@dataclass(frozen=True)
class ReducedState:
    """Canonical unit-speed geodesic state (x, y, theta, kappa) with
    constant momentum a >= 0."""

    x: float
    y: float
    theta: float
    kappa: float
    a: float

    def __post_init__(self):
        if not (self.a >= 0.0):
            raise ValueError("momentum parameter a must be >= 0")


def canonical_vertex_state(a):
    """Reduced state at a maximum-curvature vertex in canonical pose:
    front at the origin, frame angle pi/2, kappa = 1 + a."""
    return ReducedState(0.0, 0.0, 0.5 * math.pi, 1.0 + float(a), float(a))


def soliton_vertex_state():
    """Apex state of the width-2 soliton with asymptote y = 0."""
    return ReducedState(0.0, 2.0, 0.5 * math.pi, 2.0, 1.0)


def _flow(theta, ptheta, px, py):
    """Time derivative (x', y', theta', ptheta') of the full system at one
    state, as Python floats; px and py enter as constants."""
    s, c = math.sin(theta), math.cos(theta)
    return (px - s * ptheta, py + c * ptheta, ptheta + c * py - s * px,
            ptheta * (c * px + s * py))


def hamiltonian_rhs(state):
    """Time derivative (x', y', theta', px', py', ptheta') of the full
    system at a cotangent state.  px and py are conserved."""
    dx, dy, dtheta, dptheta = _flow(state.theta, state.ptheta, state.px, state.py)
    return np.array([dx, dy, dtheta, 0.0, 0.0, dptheta])


def reduced_rhs(state):
    """Time derivative (x', y', theta', kappa') of the reduced system."""
    return np.array(_flow(state.theta, state.kappa, state.a, 0.0))


def canonicalize(state, tol=1e-9):
    """Rotate a unit-speed cotangent state into the reduced frame.

    Returns (reduced, g) where g is the rotation about the origin taking
    the given trajectory onto the reduced one: the rotated state has
    py = 0, px = a >= 0, and kappa = ptheta.  Applying g.inverse() to the
    reduced trajectory reproduces the original one.
    """
    h = state.hamiltonian()
    if not (abs(h - 0.5) <= tol):
        raise NotUnitSpeedError(f"H = {h!r}, expected 1/2 (tol {tol})")
    a = math.hypot(state.px, state.py)
    phi = -math.atan2(state.py, state.px) if a > 0.0 else 0.0
    c, s = math.cos(phi), math.sin(phi)
    x = c * state.x - s * state.y
    y = s * state.x + c * state.y
    reduced = ReducedState(x, y, state.theta + phi, state.ptheta, a)
    return reduced, RigidMotion(phi)


def _geodesic_rk4(x, y, theta, ptheta, px, py, h, n_steps):
    """Fixed-step classical RK4 of the flow from one state.

    Stage states are formed for theta and ptheta only: x and y never
    feed back.  Returns the trajectory as an (n_steps + 1, 4) array of
    rows (x, y, theta, ptheta) and raises DivergenceError with the
    offending time if a state goes non-finite.
    """
    hh, h6 = 0.5 * h, h / 6.0
    traj = array("d", (x, y, theta, ptheta))
    for _ in range(n_steps):
        try:
            x1, y1, t1, p1 = _flow(theta, ptheta, px, py)
            x2, y2, t2, p2 = _flow(theta + hh * t1, ptheta + hh * p1, px, py)
            x3, y3, t3, p3 = _flow(theta + hh * t2, ptheta + hh * p2, px, py)
            x4, y4, t4, p4 = _flow(theta + h * t3, ptheta + h * p3, px, py)
        except ValueError:  # math.sin of an infinite stage angle
            break
        x = x + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4)
        y = y + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4)
        theta = theta + h6 * (t1 + 2.0 * t2 + 2.0 * t3 + t4)
        ptheta = ptheta + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)
                and math.isfinite(ptheta)):
            break
        traj.extend((x, y, theta, ptheta))
    done = len(traj) // 4
    if done <= n_steps:
        raise DivergenceError(f"non-finite state at t = {done * h!r}", t=done * h)
    return np.frombuffer(traj).reshape(done, 4)


def _grid(t_end, step, width=1):
    """Step count and size covering t_end for width trajectories, checked
    against the step and batch budgets before anything is allocated."""
    if not (step > 0 and t_end > 0):
        raise ValueError("step and t_end must be positive")
    if not (t_end / step <= MAX_STEPS):
        raise ValueError(f"t_end / step = {t_end / step:.3g} exceeds the "
                         f"budget of {MAX_STEPS} steps")
    n = max(1, math.ceil(round(t_end / step, 9)))
    if (n + 1) * width > _MAX_BATCH_SAMPLES:
        raise ValueError(f"{width} trajectories of {n + 1} samples exceed the "
                         f"batch budget of {_MAX_BATCH_SAMPLES} samples")
    h = t_end / n
    return n, h


def _full_hamiltonian(traj, px, py):
    th, pth = traj[..., 2], traj[..., 3]
    p1 = px - np.sin(th) * pth
    p2 = py + np.cos(th) * pth
    return 0.5 * (p1**2 + p2**2)


def _exact_geodesic(x, y, theta, ptheta, px, py, h, n_steps):
    """The flow from one state sampled every h, from the closed form.

    H is homogeneous of degree 2 in the momenta, so the flow is the
    unit-speed flow of the momenta divided by lam = sqrt(2H), run at
    lam times its speed.  That unit-speed state is rotated into the
    reduced frame (:func:`canonicalize`) and reflected to kappa >= 0;
    it is then the canonical vertex geodesic at the phase
    :func:`closed_forms.geodesic_phase`, moved rigidly.  kappa = 0 is
    the line (a = 1), where the frame angle follows the line's lift
    theta' = -a sin(theta).  Returns rows (x, y, theta, ptheta) like
    :func:`_geodesic_rk4`; the first row is the state itself, ptheta to
    rounding.
    """
    lam = math.sqrt(2.0 * CotangentState(x, y, theta, px, py, ptheta).hamiltonian())
    # the scaled state is off the shell by rounding only, which grows
    # with the momenta; the caller's gate already bounds 2H - 1 by 1e-6
    reduced, g = canonicalize(
        CotangentState(x, y, theta, px / lam, py / lam, ptheta / lam), tol=5e-7)
    a, sign = reduced.a, -1.0 if reduced.kappa < 0.0 else 1.0
    th0 = sign * reduced.theta
    tau = (lam * h) * np.arange(n_steps + 1)
    if reduced.kappa == 0.0:
        c, s = math.cos(0.5 * th0), math.sin(0.5 * th0)
        dx, dy = a * tau, np.zeros_like(tau)
        dth = 2.0 * (np.arctan2(s * np.exp(-a * tau), c) - math.atan2(s, c))
        kappa = np.zeros_like(tau)
    else:
        s0 = closed_forms.geodesic_phase(a, th0, abs(reduced.kappa))
        gx, gy, gth, kappa = closed_forms.geodesic(a, s0 + tau)
        dx, dy, dth = gx - gx[0], gy - gy[0], gth - gth[0]
    # undo the reflection, then the rotation g
    c, s = math.cos(g.rotation), math.sin(g.rotation)
    dy = sign * dy
    traj = np.empty((n_steps + 1, 4))
    traj[:, 0] = x + (c * dx + s * dy)
    traj[:, 1] = y + (c * dy - s * dx)
    traj[:, 2] = theta + sign * dth
    traj[:, 3] = (sign * lam) * kappa
    return traj


def _sample_geodesic(state, t_end, step, ell, flow):
    """Sample one unit-speed geodesic with flow (:func:`_exact_geodesic`
    or :func:`_geodesic_rk4`); see :func:`integrate_geodesic`."""
    ell = _ell_value(ell)
    n, h = _grid(t_end / ell, step / ell)
    if isinstance(state, ReducedState):
        ptheta, px, py, drift_scale = state.kappa * ell, state.a, 0.0, 2.0
    else:
        ptheta, px, py, drift_scale = state.ptheta, state.px, state.py, 1.0
    x, y, theta, ptheta, px, py = map(
        float, (state.x / ell, state.y / ell, state.theta, ptheta, px, py))
    speed2 = 2.0 * _full_hamiltonian(np.array([x, y, theta, ptheta]), px, py)
    if not (abs(speed2 - 1.0) <= 1e-6):
        raise NotUnitSpeedError(f"front speed^2 = 2H = {float(speed2)!r}, "
                                "expected 1 for a unit-speed state")
    traj = flow(x, y, theta, ptheta, px, py, float(h), n)
    energy = _full_hamiltonian(traj, px, py)
    drift = drift_scale * float(np.max(np.abs(energy - energy[0])))
    t = ell * (np.arange(n + 1) * h)
    return SampledBikePath(t, ell * traj[:, :2], traj[:, 2], traj[:, 3] / ell,
                           ell, drift)


def integrate_geodesics(states, t_end, step=DEFAULT_STEP, ell=1.0):
    """Sample a batch of geodesics on one time grid, one state at a
    time; see :func:`integrate_geodesic`.  The batch budget is checked
    before anything is evaluated.  Returns a list of SampledBikePath.
    """
    ell = _ell_value(ell)
    if states:
        _grid(t_end / ell, step / ell, len(states))
    return [integrate_geodesic(s, t_end, step, ell) for s in states]


def integrate_geodesic(state, t_end, step=DEFAULT_STEP, ell=1.0):
    """Sample one unit-speed geodesic every step from 0 to t_end, exactly.

    A CotangentState or a ReducedState, which runs as the cotangent point
    (px, py) = (a, 0) with ptheta = kappa.  For a frame length other than
    1 the state is read in physical units (positions and curvature in
    length units); the flow runs in normalized units and the samples are
    scaled back.  kappa holds the front-track curvature (ptheta);
    ``drift`` is the worst change of the front speed squared (2H) for a
    reduced state, of H for a cotangent state.  The samples come from
    the elliptic closed form (:func:`closed_forms.geodesic`); states
    within 1e-6 of the unit shell are accepted and followed exactly.
    """
    return _sample_geodesic(state, t_end, step, ell, _exact_geodesic)


def rk4_geodesic(state, t_end, step=DEFAULT_STEP, ell=1.0):
    """:func:`integrate_geodesic` by fixed-step RK4 of the flow.

    The independent oracle of the closed form: same states, grid,
    budgets and drift, with the discretization error of RK4 and a
    DivergenceError where a state goes non-finite.
    """
    return _sample_geodesic(state, t_end, step, ell, _geodesic_rk4)


@dataclass(frozen=True)
class FrontTrackSpec:
    """A prescribed front track on [t0, t1].

    curve and derivative are vectorized callables returning (..., 2);
    the curve must be immersed (derivative never zero).  arc_length
    marks parametrization by arc length, in which case sample parameters
    double as the output path's arc length.
    """

    curve: Callable
    derivative: Callable
    t0: float
    t1: float
    arc_length: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)
                and self.t1 > self.t0):
            raise ValueError("need finite t0 < t1")

    @classmethod
    def line(cls, t0=0.0, t1=20.0):
        """The x-axis traversed at unit speed."""
        return cls(
            curve=lambda t: np.stack(np.broadcast_arrays(
                np.asarray(t, dtype=float), np.zeros_like(np.asarray(t, dtype=float))), axis=-1),
            derivative=lambda t: np.stack(np.broadcast_arrays(
                np.ones_like(np.asarray(t, dtype=float)), np.zeros_like(np.asarray(t, dtype=float))), axis=-1),
            t0=float(t0), t1=float(t1), arc_length=True)

    @classmethod
    def circle(cls, radius=1.0, t0=0.0, t1=None, center=(0.0, 0.0)):
        """Counterclockwise circle, parametrized by arc length."""
        r = float(radius)
        cx, cy = center
        if not (0.0 < r < math.inf and math.isfinite(cx) and math.isfinite(cy)):
            raise ValueError("radius must be finite and positive, center finite")
        if t1 is None:
            t1 = t0 + 2.0 * math.pi * r

        def curve(t):
            ang = np.asarray(t, dtype=float) / r
            return np.stack(np.broadcast_arrays(
                cx + r * np.cos(ang), cy + r * np.sin(ang)), axis=-1)

        def derivative(t):
            ang = np.asarray(t, dtype=float) / r
            return np.stack(np.broadcast_arrays(-np.sin(ang), np.cos(ang)), axis=-1)

        return cls(curve, derivative, float(t0), float(t1), arc_length=True)

    @classmethod
    def from_spline(cls, spline, t0, t1, arc_length=False):
        """Wrap a scipy spline (PPoly-like with .derivative())."""
        d = spline.derivative()
        return cls(curve=lambda t: np.asarray(spline(t), dtype=float),
                   derivative=lambda t: np.asarray(d(t), dtype=float),
                   t0=float(t0), t1=float(t1), arc_length=arc_length)


def _lift_generator(d, ell):
    """Generator A = [[-x', y'], [y', x']] / (2 ell), shape (..., 2, 2)."""
    a = np.stack([-d[..., 0], d[..., 1], d[..., 1], d[..., 0]], axis=-1)
    return a.reshape(d.shape[:-1] + (2, 2)) / (2.0 * ell)


def _entries(m):
    """Entries (m00, m01, m10, m11) of a (..., 2, 2) stack of matrices."""
    return m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]


def _mat_mul(a, b):
    """Elementwise 2x2 product of matrix stacks held as entries."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _eye_plus(c, m):
    """Entries of I + c m."""
    return 1.0 + c * m[0], c * m[1], c * m[2], 1.0 + c * m[3]


def lift_frame_angles(track, theta0, ell=1.0, step=DEFAULT_STEP):
    """Integrate the no-skid constraint along a prescribed front track.

    theta0 may be a scalar or an array of initial frame angles (the whole
    fiber is lifted in one sweep).  Returns (t, theta) with theta of
    shape (n_samples,) + shape(theta0); theta is continuous, not wrapped.

    The lift solves ell * theta' = cos(theta) * y' - sin(theta) * x',
    which is the no-skid condition for any parametrization.  A
    non-finite theta0 raises ValueError before the track is evaluated.
    """
    ell = _ell_value(ell)
    theta0 = np.asarray(theta0, dtype=float)
    if not np.all(np.isfinite(theta0)):
        raise ValueError("theta0 must be finite")
    n, h = _grid(track.t1 - track.t0, step, theta0.size)
    t = track.t0 + np.arange(n + 1) * h
    d_grid = np.asarray(track.derivative(t), dtype=float).reshape(n + 1, 2)
    d_half = np.asarray(track.derivative(t[:-1] + 0.5 * h),
                        dtype=float).reshape(n, 2)
    speeds = np.hypot(d_grid[:, 0], d_grid[:, 1])
    if np.min(speeds) < 1e-9 * max(1.0, float(np.max(speeds))):
        raise ImmersionError("front track has (near-)vanishing velocity")
    a = _lift_generator(d_grid, ell)
    a0, a1 = _entries(a[:-1]), _entries(a[1:])
    ah = _entries(_lift_generator(d_half, ell))
    k2 = _mat_mul(ah, _eye_plus(0.5 * h, a0))
    k3 = _mat_mul(ah, _eye_plus(0.5 * h, k2))
    k4 = _mat_mul(a1, _eye_plus(h, k3))
    # maps[:, i] = entries of M[i-1]...M[0] (M[i]: RK4 step map) by
    # doubling; rescaling each new product to a largest |entry| of 1
    # stops overflow and moves no angle
    maps = np.empty((4, n + 1))
    maps[:, 0] = (1.0, 0.0, 0.0, 1.0)
    maps[:, 1:] = _eye_plus(h / 6.0, [p + 2.0 * q + 2.0 * r + s
                                      for p, q, r, s in zip(a0, k2, k3, k4)])
    for k in (1 << r for r in range(n.bit_length())):
        prod = np.array(_mat_mul(maps[:, k:], maps[:, :-k]))
        np.divide(prod, np.abs(prod).max(axis=0), out=maps[:, k:])
    m00, m01, m10, m11 = maps
    # one row per fiber angle, returned transposed; the half angle psi
    # of M v is continuous, so it is unwrapped by whole turns
    rows = np.empty((theta0.size, n + 1))
    for row, th0 in zip(rows, theta0.ravel().tolist()):
        s, c = math.sin(0.5 * th0), math.cos(0.5 * th0)
        psi = np.arctan2(m00 * s + m01 * c, m10 * s + m11 * c)
        turns = np.cumsum(np.rint(np.diff(psi) / (2.0 * math.pi)))
        psi[1:] -= 2.0 * math.pi * turns
        row[:] = th0 + 2.0 * (psi - psi[0])
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=0))
    if bad.size:
        raise DivergenceError(f"non-finite frame angle at t = {t[bad[0]]}",
                              t=float(t[bad[0]]))
    return t, rows.T.reshape((n + 1,) + theta0.shape)


def horizontal_lift(track, theta0, ell=1.0, step=DEFAULT_STEP):
    """Horizontal lift of a front track from an initial frame angle.

    Returns a SampledBikePath whose parameter is the front-track arc
    length (cumulative, exact for arc-length tracks) and whose curvature
    is computed from the track by finite differences.
    """
    ell = _ell_value(ell)
    t, theta = lift_frame_angles(track, float(theta0), ell, step)
    front = np.asarray(track.curve(t), dtype=float).reshape(t.size, 2)
    if track.arc_length:
        s = t - t[0]
    else:
        d = np.asarray(track.derivative(t), dtype=float).reshape(t.size, 2)
        speed = np.hypot(d[:, 0], d[:, 1])
        s = np.concatenate([[0.0], np.cumsum(
            0.5 * (speed[1:] + speed[:-1]) * np.diff(t))])
    kappa = numdiff.curvature_from_track(front, s)
    return SampledBikePath(s, front, theta, kappa, ell)
