#!/usr/bin/env python3
"""Relative-motion basics: propagate a deputy about the chief in Hill's
frame, check the integrator against the closed-form solution, and scale a
trajectory into laboratory units."""

import math

import numpy as np

from cwinspect import (DynamicsParams, RelativeState, analytic_propagate,
                       space_to_lab, step, sun_vector)

params = DynamicsParams()
print(f"chief mean motion n = {params.mean_motion} rad/s "
      f"(orbit period {2 * math.pi / params.mean_motion / 60:.1f} min)")

# the reference mission initial condition: 48.5 m from the chief, at rest
state = RelativeState([21.8, -11.3, 41.8], [0.0, 0.0, 0.0],
                      sun_angle=3.42)
print(f"initial range {np.linalg.norm(state.position):.2f} m, "
      f"sun direction {np.round(sun_vector(state.sun_angle), 3)}")

# free drift for 30 minutes: each 10 s step applies the cached end-of-hold
# map of dynamics.hold_maps (50 RK4 substeps of 0.2 s, composed once),
# compared with the exact transition matrix
drift_rk4 = state
for _ in range(180):
    drift_rk4 = step(drift_rk4, np.zeros(3), 10.0, params)
drift_exact = analytic_propagate(state, 1800.0, params)
err = np.abs(drift_rk4.vector() - drift_exact.vector()).max()
print(f"\nafter 1800 s of free drift: range "
      f"{np.linalg.norm(drift_rk4.position):.2f} m")
print(f"propagation vs closed form, worst component difference: {err:.2e}")

# a radial offset is not an equilibrium: it drifts along-track
radial = RelativeState([100.0, 0, 0], [0.0, 0, 0])
one_orbit = analytic_propagate(radial, 2 * math.pi / params.mean_motion, params)
print(f"\n100 m radial offset drifts {one_orbit.position[1]:.0f} m "
      f"in-track per orbit")
# ... unless the in-track rate cancels the secular term (2:1 ellipse)
closed = RelativeState([100.0, 0, 0], [0.0, -2 * params.mean_motion * 100.0, 0])
back = analytic_propagate(closed, 2 * math.pi / params.mean_motion, params)
print(f"with ydot0 = -2 n x0 it returns to "
      f"{np.round(back.position, 9)} after one orbit")

# thrust enters through the mass: a 1 N radial pulse for 60 s
pushed = step(state, np.array([1.0, 0, 0]), 60.0, params)
print(f"\n1 N radial thrust for 60 s changes xdot by "
      f"{pushed.velocity[0] - state.velocity[0]:.4f} m/s "
      f"(~ F/m * t = {1.0 / params.mass * 60:.4f})")

# shrink the space trajectory into a flight volume: divide positions by 65
# and time by 10, so 48.5 m of range becomes 0.75 m of lab space
pose = space_to_lab(state, position_scale=65.0, time_scale=10.0)
print(f"\nlab-frame start: position {np.round(pose.position, 4)} m, "
      f"i.e. {np.linalg.norm(pose.position):.3f} m from the lab origin")
