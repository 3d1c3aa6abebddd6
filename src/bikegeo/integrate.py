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
classical fixed-step RK4 on Python floats; it is kept only as the
independent oracle that the checks pin, and no product path runs it.
A batch is a list of single geodesics.
Conserved quantities are reported as drift, never projected back.
The sampler works in place: the closed form's new arrays are
differenced, reflected, rotated and scaled where they lie, the drift
is measured in two buffers, and the path takes the arrays without a
copy, after the constructor's checks.

The horizontal lift ell * theta' = cos(theta) * y' - sin(theta) * x' is
a Riccati equation, linear on v = (sin(theta/2), cos(theta/2)):
v' = A v with A = [[-x', y'], [y', x']] / (2 ell).  One RK4 step of it
is a 2x2 matrix, acting on the fiber circle as a Moebius map, and the
lift to every sample is the running product of these matrices.  A is
traceless, so A^2 = -det(A) I, and the four RK4 stages collapse into a
closed form in the generator at the step's two ends and its middle.
A step is refused past RK4's real stability bound, where the fiber's
contracting direction would grow.  The matrices are held as four entry
arrays, multiplied entrywise, and the running product is built by an
odd-even prefix scan, about two products per step.  A sample's angles
are finite exactly when its product is, so the product is checked
once, before any angle is read.  Each fiber angle then reads its half
angle psi = atan2 of the transported v into a preallocated row; psi is
continuous, so where it jumps by more than pi it is unwrapped by exact
multiples of 2 pi.  A jump of more than pi needs the row to span more
than pi, so only rows that do are searched for jumps.
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
# RK4's growth factor 1 + z + z^2/2 + z^3/6 + z^4/24 on the negative real
# axis exceeds 1 past z = -RK4_REAL_STABILITY, the real root of
# x^3 - 4 x^2 + 12 x - 24 = 0; a lift step past it makes the fiber's
# contracting direction grow.
RK4_REAL_STABILITY = 2.785293563405282


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
    feed back.  Returns the trajectory as :func:`_exact_geodesic` does,
    positions xy of shape (n_steps + 1, 2) and contiguous theta and
    ptheta, and raises DivergenceError with the offending time if a
    state goes non-finite.
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
    rows = np.frombuffer(traj).reshape(done, 4)
    return rows[:, :2].copy(), rows[:, 2].copy(), rows[:, 3].copy()


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


def _full_hamiltonian(theta, ptheta, px, py):
    """H at samples of theta and ptheta, for the momenta (px, py)."""
    if np.ndim(theta) == 0:
        return 0.5 * ((px - np.sin(theta) * ptheta) ** 2
                      + (py + np.cos(theta) * ptheta) ** 2)
    # on arrays p1 = px - sin(theta) ptheta and p2 = py + cos(theta) ptheta
    # are formed in place (a scalar's ** 2 is pow, not the product x x)
    p1, p2 = np.sin(theta), np.cos(theta)
    p1 *= ptheta
    np.subtract(px, p1, out=p1)
    p2 *= ptheta
    p2 += py
    np.square(p1, out=p1)
    p1 += np.square(p2, out=p2)
    p1 *= 0.5
    return p1


def _exact_geodesic(x, y, theta, ptheta, px, py, h, n_steps):
    """The flow from one state sampled every h, from the closed form.

    H is homogeneous of degree 2 in the momenta, so the flow is the
    unit-speed flow of the momenta divided by lam = sqrt(2H), run at
    lam times its speed.  That unit-speed state is rotated into the
    reduced frame (:func:`canonicalize`) and reflected to kappa >= 0;
    it is then the canonical vertex geodesic at the phase
    :func:`closed_forms.geodesic_phase`, moved rigidly.  kappa = 0 is
    the line (a = 1), where the frame angle follows the line's lift
    theta' = -a sin(theta).  Returns the samples as columns: positions
    xy of shape (n_steps + 1, 2), theta and ptheta, like
    :func:`_geodesic_rk4`; the first sample is the state itself, ptheta
    to rounding.
    """
    lam = math.sqrt(2.0 * CotangentState(x, y, theta, px, py, ptheta).hamiltonian())
    # the scaled state is off the shell by rounding only, which grows
    # with the momenta; the caller's gate already bounds 2H - 1 by 1e-6
    reduced, g = canonicalize(
        CotangentState(x, y, theta, px / lam, py / lam, ptheta / lam), tol=5e-7)
    a, sign = reduced.a, -1.0 if reduced.kappa < 0.0 else 1.0
    th0 = sign * reduced.theta
    tau = np.arange(n_steps + 1, dtype=float)
    tau *= lam * h
    if reduced.kappa == 0.0:
        c, s = math.cos(0.5 * th0), math.sin(0.5 * th0)
        dx, dy = a * tau, np.zeros_like(tau)
        dth = 2.0 * (np.arctan2(s * np.exp(-a * tau), c) - math.atan2(s, c))
        kappa = np.zeros_like(tau)
    else:
        tau += closed_forms.geodesic_phase(a, th0, abs(reduced.kappa))
        dx, dy, dth, kappa = closed_forms.geodesic(a, tau)
        dx -= dx[0]
        dy -= dy[0]
        dth -= dth[0]
    # undo the reflection, then the rotation g: front x + (c dx + s dy),
    # y + (c dy - s dx), built in its columns with dx and dy as buffers
    if sign < 0.0:
        np.negative(dy, out=dy)
        np.negative(dth, out=dth)
    c, s = math.cos(g.rotation), math.sin(g.rotation)
    xy = np.empty((n_steps + 1, 2))
    fx, fy = xy[:, 0], xy[:, 1]
    np.multiply(dx, c, out=fx)
    np.multiply(dy, c, out=fy)
    fx += np.multiply(dy, s, out=dy)
    fx += x
    fy -= np.multiply(dx, s, out=dx)
    fy += y
    dth += theta
    kappa *= sign * lam
    return xy, dth, kappa


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
    # the phase bound of the closed form, on the momentum as given: from
    # a ~ 1e14 the rounding of a state's momenta alone moves 2H off the
    # shell, and the flow divides the momenta by sqrt(2H)
    closed_forms._check_phase(math.hypot(px, py), n * h)
    speed2 = 2.0 * _full_hamiltonian(theta, ptheta, px, py)
    if not (abs(speed2 - 1.0) <= 1e-6):
        raise NotUnitSpeedError(f"front speed^2 = 2H = {float(speed2)!r}, "
                                "expected 1 for a unit-speed state")
    xy, th, pth = flow(x, y, theta, ptheta, px, py, float(h), n)
    # the flow's arrays are new and distinct: they are scaled in place
    # and handed to the path without copies
    energy = _full_hamiltonian(th, pth, px, py)
    energy -= energy[0]
    drift = drift_scale * float(np.abs(energy, out=energy).max())
    t = np.arange(n + 1, dtype=float)
    t *= h
    if ell != 1.0:
        t *= ell
        xy *= ell
        pth /= ell
    return SampledBikePath._own(t, xy, th, pth, ell, drift)


def integrate_geodesics(states, t_end, step=DEFAULT_STEP):
    """Sample a batch of geodesics of frame length 1 on one time grid,
    one state at a time; see :func:`integrate_geodesic`.  The batch
    budget is checked before anything is evaluated.  Returns a list of
    SampledBikePath.
    """
    if states:
        _grid(t_end, step, len(states))
    return [integrate_geodesic(s, t_end, step) for s in states]


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
    An arc length t_end / ell past the phase bound of the closed form at
    the momentum |(px, py)| raises ValueError naming that momentum.
    """
    return _sample_geodesic(state, t_end, step, ell, _exact_geodesic)


def rk4_geodesic(state, t_end, step=DEFAULT_STEP, ell=1.0):
    """:func:`integrate_geodesic` by fixed-step RK4 of the flow.

    The independent oracle of the closed form, which only the checks
    use: same states, grid, budgets (the phase bound among them) and
    drift, with the discretization error of RK4 and a DivergenceError
    where a state goes non-finite.  On the soliton its frame-angle error
    grows like e^t, because the tail approaches the unstable fixed point
    theta = pi of the line's lift: at step 1e-3 it is 3.8e-4 at t = 25
    while the front is within 1e-6.  Past t ~ 20 on a soliton it is an
    oracle for positions only.
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
    def circle(cls, radius, t0, t1):
        """Counterclockwise circle about the origin, parametrized by arc
        length on [t0, t1]; arc length 0 is the point (radius, 0)."""
        r = float(radius)
        if not 0.0 < r < math.inf:
            raise ValueError("radius must be finite and positive")

        def curve(t):
            ang = np.asarray(t, dtype=float) / r
            return np.stack(np.broadcast_arrays(
                r * np.cos(ang), r * np.sin(ang)), axis=-1)

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


def _generator_entries(d, ell):
    """The two distinct entries (X, Y) of the lift generator
    A = [[-X, Y], [Y, X]] = [[-x', y'], [y', x']] / (2 ell)."""
    return d[..., 0] / (2.0 * ell), d[..., 1] / (2.0 * ell)


def _step_maps(d_grid, d_half, h, ell):
    """Entries (m00, m01, m10, m11) of the RK4 step maps as a (4, n + 1)
    array: column 0 is the identity, column i + 1 the map from sample i
    to sample i + 1.

    The generator is traceless, so Ah^2 = r2 I with r2 = -det(Ah), and
    the RK4 stages k2 = Ah (I + h/2 A0), k3 = Ah (I + h/2 k2) and
    k4 = A1 (I + h k3) collapse into the step map
      M = I + h/6 [(A0 + A1)(1 + 2 w) + 4 Ah + h r2 I
                   + h (Ah A0 + A1 (Ah + w A0))],   w = h^2 r2 / 4.
    A product of two generators [[-X, Y], [Y, X]] is [[P, Q], [-Q, P]],
    so M = [[a - xs, ys + b], [ys - b, a + xs]] with a, b from the
    products and xs, ys from the sum of generators.
    """
    x, y = _generator_entries(d_grid, ell)
    x0, x1, y0, y1 = x[:-1], x[1:], y[:-1], y[1:]
    xh, yh = _generator_entries(d_half, ell)
    r2 = xh * xh + yh * yh
    w = (0.25 * h * h) * r2
    # Ah + w A0, the right factor of A1 (Ah + w A0)
    xb, yb = xh + w * x0, yh + w * y0
    hh6 = h * h / 6.0
    a = 1.0 + hh6 * (r2 + xh * x0 + yh * y0 + x1 * xb + y1 * yb)
    b = hh6 * (yh * x0 - xh * y0 + y1 * xb - x1 * yb)
    f = (h / 6.0) * (1.0 + 2.0 * w)
    xs = f * (x0 + x1) + (4.0 * h / 6.0) * xh
    ys = f * (y0 + y1) + (4.0 * h / 6.0) * yh
    maps = np.empty((4, x.size))
    maps[:, 0] = (1.0, 0.0, 0.0, 1.0)
    np.subtract(a, xs, out=maps[0, 1:])
    np.add(ys, b, out=maps[1, 1:])
    np.subtract(ys, b, out=maps[2, 1:])
    np.add(a, xs, out=maps[3, 1:])
    return maps


def _mat_mul(a, b):
    """Elementwise 2x2 product of matrix stacks held as entries."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _rescaled_product(a, b, out=None):
    """Elementwise product a b, each column divided by its largest
    |entry|; this stops overflow and moves no angle."""
    prod = np.array(_mat_mul(a, b))
    return np.divide(prod, np.abs(prod).max(axis=0), out=out)


def _running_product(m):
    """Turn the columns m[0], m[1], ... of a (4, k) entry array, in place,
    into the running products m[j] ... m[0] by an odd-even scan: about
    2k products in log2(k) levels.

    Neighbouring columns are multiplied in pairs, the pair products'
    running products (the odd columns) come from the same scan, and
    each even column then takes one product.  Every new column is
    rescaled to a largest |entry| of 1.
    """
    if m.shape[1] > 1:
        m[:, 1::2] = _running_product(_rescaled_product(m[:, 1::2], m[:, :-1:2]))
        _rescaled_product(m[:, 2::2], m[:, 1:-1:2], out=m[:, 2::2])
    return m


def lift_frame_angles(track, theta0, ell=1.0, step=DEFAULT_STEP):
    """Integrate the no-skid constraint along a prescribed front track.

    theta0 may be a scalar or an array of initial frame angles (the whole
    fiber is lifted in one sweep).  Returns (t, theta) with theta of
    shape (n_samples,) + shape(theta0); theta is continuous, not wrapped.

    The lift solves ell * theta' = cos(theta) * y' - sin(theta) * x',
    which is the no-skid condition for any parametrization, by RK4 on
    the half-angle vector.  Each RK4 step map is built in closed form
    from the generator at the step's ends and middle, and the running
    product of the maps by an odd-even scan.  A sample's angles are
    finite exactly when its product is, so the product is checked once,
    before any angle is read: the first non-finite sample raises
    DivergenceError with its time.  A non-finite theta0 raises
    ValueError before the track is evaluated, and so does a step past
    RK4's real stability bound, step * max|track'| / (2 ell) > 2.785...,
    where the contracting direction of the fiber would grow instead of
    decay.

    Each fiber angle's half angle psi is read row by row and unwrapped
    by whole turns where it jumps by more than pi; a row is searched
    for jumps only where its values span more than pi, which every row
    with such a jump does.
    """
    t, theta, _d_grid = _lift(track, theta0, ell, step)
    return t, theta


def _lift(track, theta0, ell, step):
    """:func:`lift_frame_angles`, with the track's derivative on the
    grid t as a third output: (t, theta, d_grid)."""
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
    top = float(np.max(speeds))
    if np.min(speeds) < 1e-9 * max(1.0, top):
        raise ImmersionError("front track has (near-)vanishing velocity")
    x = h * top / (2.0 * ell)
    if x > RK4_REAL_STABILITY:
        raise ValueError(f"step * max speed / (2 ell) = {x:.6g} is past RK4's "
                         f"stability bound {RK4_REAL_STABILITY} for the lift")
    # maps[:, i] = entries of M[i-1]...M[0] (M[i]: RK4 step map)
    maps = _step_maps(d_grid, d_half, h, ell)
    _running_product(maps[:, 1:])
    bad = np.flatnonzero(~np.isfinite(maps).all(axis=0))
    if bad.size:
        raise DivergenceError(f"non-finite frame angle at t = {t[bad[0]]}",
                              t=float(t[bad[0]]))
    m00, m01, m10, m11 = maps
    # one row per fiber angle, returned transposed.  The half angle psi
    # of M v is continuous, so where it jumps by more than pi it is
    # unwrapped by whole turns.  v = (sin, cos)(th0 / 2) is divided by
    # its larger entry, which shifts psi by 0 or pi; the shift cancels
    # in theta = th0 + 2 (psi - psi[0]).
    rows = np.empty((theta0.size, n + 1))
    num, den, tmp = np.empty((3, n + 1))
    for psi, th0 in zip(rows, theta0.ravel().tolist()):
        s, c = math.sin(0.5 * th0), math.cos(0.5 * th0)
        if abs(c) >= abs(s):
            u = s / c
            np.add(np.multiply(m00, u, out=num), m01, out=num)
            np.add(np.multiply(m10, u, out=den), m11, out=den)
        else:
            u = c / s
            np.add(np.multiply(m01, u, out=num), m00, out=num)
            np.add(np.multiply(m11, u, out=den), m10, out=den)
        np.arctan2(num, den, out=psi)
        # a neighbour difference rounds to more than pi only if the
        # rounded span max - min does
        if psi.max() - psi.min() > math.pi:
            dpsi = np.subtract(psi[1:], psi[:-1], out=tmp[1:])
            jumps = np.flatnonzero(np.abs(dpsi, out=num[1:]) > math.pi)
            turns = np.cumsum(np.rint(dpsi[jumps] / (2.0 * math.pi))).tolist()
            starts = (jumps + 1).tolist()
            for lo, hi, k in zip(starts, starts[1:] + [n + 1], turns):
                psi[lo:hi] -= 2.0 * math.pi * k
        # theta = 2 psi + (th0 - 2 psi[0]), with theta[0] == th0 exactly
        shift = th0 - 2.0 * float(psi[0])
        psi *= 2.0
        psi += shift
        psi[0] = th0
    return t, rows.T.reshape((n + 1,) + theta0.shape), d_grid


def horizontal_lift(track, theta0, ell=1.0, step=DEFAULT_STEP):
    """Horizontal lift of a front track from an initial frame angle.

    Returns a SampledBikePath whose parameter is the front-track arc
    length (cumulative, exact for arc-length tracks; otherwise the
    trapezoid integral of the speed at the derivative samples the lift
    itself took) and whose curvature is computed from the track by
    finite differences.
    """
    ell = _ell_value(ell)
    t, theta, d = _lift(track, float(theta0), ell, step)
    # the track's callable may keep what it returns: the front is copied
    front = np.array(track.curve(t), dtype=float).reshape(t.size, 2)
    if track.arc_length:
        s = t - t[0]
    else:
        s = numdiff.cumulative_trapezoid(np.hypot(d[:, 0], d[:, 1]), t)
    kappa = numdiff.curvature_from_track(front, s)
    return SampledBikePath._own(s, front, theta, kappa, ell)
