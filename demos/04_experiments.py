#!/usr/bin/env python3
"""The six reference experiments, open loop and (for the first three) a
noisy closed-loop rerun.  Without trained policy weights the NNC rows run
the scripted circumnavigation stand-in; point a config's weights_path at a
weights JSON to use a real policy."""

from dataclasses import replace

from cwinspect import default_experiment, run

print(f"{'exp':>3} {'controller':>22} {'rta':>4} {'illum':>5} "
      f"{'scale':>8} {'loop':>7} {'N_p':>4} {'dv [m/s]':>9} "
      f"{'min d [m]':>9} {'in box':>6}")

for n in range(1, 7):
    for closed in ([False, True] if n <= 3 else [False]):
        # replace() checks the overridden fields; 3000 s keeps the demo quick
        cfg = replace(default_experiment(n), max_duration=3000.0, seed=n,
                      closed_loop=closed)
        log, s = run(cfg)
        scale = f"{cfg.position_scale:.0f}/{cfg.time_scale:.0f}"
        loop = "closed" if closed else "open"
        print(f"{n:>3} {cfg.controller:>22} {str(cfg.rta_enabled):>4} "
              f"{str(cfg.illumination):>5} {scale:>8} {loop:>7} "
              f"{s['inspected']:>4} {s['delta_v']:>9.2f} "
              f"{s['min_distance']:>9.2f} {str(s['in_aviary']):>6}")

print("\nnotes:")
print(" - experiment 2 is the collision-course case: the filter holds the")
print("   deputy near 10 m while the bare LQR would reach the origin")
print(" - closed loop feeds noise-corrupted state to controller and filter,")
print("   so trajectories wander and the filter reacts to sensed, not true,")
print("   range; reruns with the same seed are bit-identical")
