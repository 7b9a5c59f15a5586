"""Simulation and run-time assurance for the on-orbit inspection task.

A deputy spacecraft propagated with Clohessy-Wiltshire relative dynamics
inspects a 99-point chief model while a sampled-data Active Set Invariance
Filter built on six control barrier functions keeps arbitrary primary
controllers safe over every zero-order hold.
"""

from .control import (MlpPolicy, lqr_control, lqr_design, mlp_act, mlp_load,
                      mlp_save, random_policy, scripted_orbit_control)
from .dynamics import DynamicsParams, cw_matrices, cw_stm, step, sun_vector
from .env import (EnvConfig, InspectionEnv, RelativeState, build_observation,
                  delta_v, normalize_state)
from .harness import (ExperimentConfig, NoiseModel, TrajectoryLog,
                      default_experiment, emit, inject_noise, load_config,
                      run, run_batch)
from .inspection import (InspectionSphere, generate_points, inspected_count,
                         nearest_uninspected_cluster, update_inspected)
from .rta import FilterResult, filter_control, infeasible_fallback, solve_qp
from .safety import SafetyParams, cbf_rows, h_values

__version__ = "0.1.0"
