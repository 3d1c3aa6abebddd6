"""Parallel transport of the frame angle is a Moebius map.

Rides the front wheel along a random smooth curve for a whole circle of
initial frame angles, fits a linear fractional transformation through
the (in, out) angle pairs, and confirms that the four-point cross-ratio
of tan(theta/2) values survives the ride.

Run:  python3 demos/frame_transport.py
"""

import numpy as np
from scipy.interpolate import CubicSpline

from bikegeo import (FrontTrackSpec, cross_ratio_angles, fit_mobius,
                     normalize_angles, transport_samples)

rng = np.random.default_rng(8)
ctrl = np.cumsum(rng.normal(0, 0.5, size=(8, 2)), axis=0)
track = FrontTrackSpec.from_spline(
    CubicSpline(np.linspace(0, 1, 8), ctrl, axis=0), 0.0, 1.0)

thetas = np.linspace(-np.pi, np.pi, 12, endpoint=False) + 0.05
samples = transport_samples(track, thetas, ell=1.0, step=2e-4)
for s in samples[:4]:
    print(f"theta_in = {s.theta_in:+.4f}  ->  theta_out = {s.theta_out:+.4f}")
print("...")

mob, residual = fit_mobius(samples)
print(f"\nMoebius fit residual over 12 fiber points: {residual:.2e}")
print("fitted matrix on (sin(theta/2), cos(theta/2)), |det| = 1:")
print(np.array2string(mob.chart_matrix, precision=4))

probe = np.array([-2.0, -0.7, 0.5, 1.8])
probe_samples = transport_samples(track, probe, ell=1.0, step=2e-4)
cr_in = cross_ratio_angles(probe)
cr_out = cross_ratio_angles(normalize_angles([s.theta_out for s in probe_samples]))
print(f"\ncross-ratio before: {cr_in:.12f}")
print(f"cross-ratio after:  {cr_out:.12f}   (drift {abs(cr_in - cr_out):.2e})")
