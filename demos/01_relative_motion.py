#!/usr/bin/env python3
"""Relative-motion basics: propagate a deputy about the chief in Hill's
frame, check the integrator against the closed-form solution, and scale a
trajectory into laboratory units.  A state is the array
[x, y, z, xd, yd, zd] in m and m/s; every propagation flies the one
chief/deputy pair, whose constants DynamicsParams() reads out."""

import math

import numpy as np

from cwinspect import DynamicsParams, cw_stm, step, sun_vector

pair = DynamicsParams()  # read-only: it takes no arguments
n = pair.mean_motion
print(f"chief mean motion n = {n} rad/s "
      f"(orbit period {2 * math.pi / n / 60:.1f} min), deputy mass "
      f"{pair.mass} kg, thrust limit {pair.u_max} N per axis")

# the reference mission initial condition: 48.5 m from the chief, at rest
state = np.array([21.8, -11.3, 41.8, 0.0, 0.0, 0.0])
sun_angle = 3.42
print(f"initial range {np.linalg.norm(state[:3]):.2f} m, "
      f"sun direction {np.round(sun_vector(sun_angle), 3)}")

# free drift for 30 minutes: each 10 s step applies the cached end-of-hold
# map of dynamics.hold_maps (50 RK4 substeps of 0.2 s, composed once),
# compared with the exact transition matrix
drift_rk4 = state
for _ in range(180):
    drift_rk4 = step(drift_rk4, np.zeros(3), 10.0)
drift_exact = cw_stm(1800.0) @ state
err = np.abs(drift_rk4 - drift_exact).max()
print(f"\nafter 1800 s of free drift: range "
      f"{np.linalg.norm(drift_rk4[:3]):.2f} m")
print(f"propagation vs closed form, worst component difference: {err:.2e}")

# a radial offset is not an equilibrium: it drifts along-track
one_orbit = cw_stm(2 * math.pi / n)
radial = one_orbit @ np.array([100.0, 0, 0, 0, 0, 0])
print(f"\n100 m radial offset drifts {radial[1]:.0f} m in-track per orbit")
# ... unless the in-track rate cancels the secular term (2:1 ellipse)
closed = one_orbit @ np.array([100.0, 0, 0, 0, -2 * n * 100.0, 0])
print(f"with ydot0 = -2 n x0 it returns to "
      f"{np.round(closed[:3], 9)} after one orbit")

# thrust enters through the mass: a 1 N radial pulse for 60 s
pushed = step(state, np.array([1.0, 0, 0]), 60.0)
print(f"\n1 N radial thrust for 60 s changes xdot by "
      f"{pushed[3] - state[3]:.4f} m/s "
      f"(~ F/m * t = {1.0 / pair.mass * 60:.4f})")

# shrink the space trajectory into a flight volume: divide positions by 65
# (and time by 10), so 48.5 m of range becomes 0.75 m of lab space
lab_position = state[:3] / 65.0
print(f"\nlab-frame start: position {np.round(lab_position, 4)} m, "
      f"i.e. {np.linalg.norm(lab_position):.3f} m from the lab origin")
