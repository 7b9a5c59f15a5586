#!/usr/bin/env python3
"""An inspection episode end to end: the 99-point chief model, illumination
gating, the uninspected-cluster observation, and the reward ledger of a
scripted circumnavigation."""

import numpy as np

from cwinspect import (EnvConfig, InspectionEnv, generate_points,
                       inspected_count, nearest_uninspected_cluster,
                       scripted_orbit_control, update_inspected)
from cwinspect.env import OBS_ALL_SENSORS

# the chief model: 99 lattice points on a 10 m sphere
sphere = generate_points()
print(f"{len(sphere.points)} inspection points at radius "
      f"{np.linalg.norm(sphere.points, axis=1).mean():.1f} m")

# one look from +x marks the visible hemisphere; with illumination gating
# only sun-lit points count
update_inspected(sphere, [100.0, 0, 0], sun_angle=0.0,
                 illumination_enabled=False)
print(f"one hemisphere pass marks {inspected_count(sphere)} points")

gated = generate_points()
update_inspected(gated, [100.0, 0, 0], sun_angle=np.pi / 2,
                 illumination_enabled=True)
print(f"with the sun at +y, the same pass marks only "
      f"{inspected_count(gated)} co-illuminated points")

# the all-sensors observation points the agent at what remains
direction = nearest_uninspected_cluster(sphere, [100.0, 0, 0])
print(f"nearest uninspected cluster: direction {np.round(direction, 3)}\n")

# a full episode: 10 s steps, reward 0.1 per new point minus 0.1 per m/s
env = InspectionEnv(EnvConfig(mode=OBS_ALL_SENSORS))
obs = env.reset()
print(f"reset: observation length {len(obs)}, normalized position "
      f"{np.round(obs[:3], 3)}")

total = 0.0
done = False
while not done:
    action = scripted_orbit_control(env.state.vector())
    obs, reward, done, info = env.step(action)
    total += reward
    if env.step_index % 50 == 0 or done:
        print(f"  step {env.step_index:4d}: inspected {info['inspected']:2d}/99, "
              f"delta-v {info['total_delta_v']:6.2f} m/s, "
              f"cumulative reward {total:6.2f}")

summary = env.summary()
print(f"\nepisode summary: {summary}")
print(f"reward identity 0.1*N - 0.1*dv = "
      f"{0.1 * summary['inspected'] - 0.1 * summary['delta_v']:.4f} "
      f"(telescoped {total:.4f})")
