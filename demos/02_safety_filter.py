#!/usr/bin/env python3
"""The safety filter at work: barrier values, minimal modification of a
desired thrust, and the collision-course experiment where the filter parks
an origin-seeking LQR at the 10 m keep-out boundary.  The filter takes the
safety constants alone: it plans the one 2 s hold of the one spacecraft."""

import numpy as np

from cwinspect import (SafetyParams, default_experiment, emit, filter_control,
                       h_values, run)

safety = SafetyParams()

# six barriers: keep-out braking cone, keep-in braking cone, range-scaled
# speed limit, and per-axis velocity limits
x_safe = np.array([100.0, 0, 0, 0, 0, 0])
print("barriers at rest, 100 m out:", np.round(h_values(x_safe, safety), 4))
print("safe?", h_values(x_safe, safety).min() >= 0)

x_fast = np.array([100.0, 0, 0, 0, 1.5, 0])
print("\nbarriers moving 1.5 m/s in-track:",
      np.round(h_values(x_fast, safety), 4))
print("safe?", h_values(x_fast, safety).min() >= 0)

# the filter leaves a harmless request alone ...
res = filter_control(x_safe, np.array([0.05, 0.0, -0.02]), safety)
print(f"\nbenign request: intervened={res.intervened} "
      f"deviation={res.deviation:.3f} N")

# ... and minimally modifies one that would violate a barrier: at the +x
# velocity limit, any further +x thrust is clipped to zero
x_limit = np.array([0.0, 500.0, 0.0, 1.0, 0.0, 0.0])
res = filter_control(x_limit, np.array([1.0, 0.0, 0.0]), safety)
print(f"at the +x speed limit, request (1,0,0) N becomes "
      f"{np.round(res.u_act, 6)} N (active constraints {res.active_set})")

# the same call filters a batch: states (N, 6) with requests (N, 3) give
# one result whose fields hold a row per state
res = filter_control(np.stack([x_safe, x_limit]),
                     np.array([[0.05, 0.0, -0.02], [1.0, 0.0, 0.0]]), safety)
print(f"both requests as one batch: intervened={res.intervened}, "
      f"u_act rows {np.round(res.u_act, 6).tolist()}")

# collision-course experiment: the LQR alone would drive the deputy to the
# origin; with the filter it settles on the 10 m boundary instead
print("\nrunning the collision-course experiment (filter on) ...")
cfg = default_experiment(2)
log, summary = run(cfg)
dist = np.linalg.norm(log.states[:, :3], axis=1)
print(f"  {summary['steps']} control steps, "
      f"{summary['interventions']} interventions")
print(f"  closest approach {summary['min_distance']:.3f} m; "
      f"final 1000 s stay within "
      f"{np.abs(dist[log.t >= log.t[-1] - 1000] - 10).max():.2f} m of the boundary")

cfg_off = default_experiment(2)
cfg_off.rta_enabled = False
_, summary_off = run(cfg_off)
print(f"  same controller without the filter: closest approach "
      f"{summary_off['min_distance']:.3f} m (collision)")

path = emit(log, "svg", "exp2_boundary.svg")
print(f"  wrote {path} (x-y, x-z paths and barrier traces)")
