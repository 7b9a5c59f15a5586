"""Episodic environment for the inspection task.

Mirrors the training environment's semantics: 10 s steps under zero-order
hold, one inspection update per step, reward 0.1 * (newly inspected points)
- 0.1 * (step delta-v), and termination when the sphere is fully inspected
or after 1223 steps.  Observations come in two flavours:

    no_sensors : [x, y, z, xd, yd, zd]            (positions / 100, velocities * 2)
    all_sensors: + [N_p / 100, sun angle,
                    x_UPS, y_UPS, z_UPS]          (uninspected-cluster unit vector)

The cluster direction is the experiments' one k-means setup.  A non-finite
state or action, or a non-finite sun angle in all-sensors mode, is refused
with a ``ValueError``.  An episode starts from the paper's initial state, as
every experiment does, and holds a frozen :class:`RelativeState`: the
read-only 6-state from :func:`cwinspect.dynamics.step`, its sun angle, its clock.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import inspection
from .dynamics import (MASS, MEAN_MOTION, U_MAX, _clamp, _finite, _flag, _integer, _positive,
                       _vector, step)

__all__ = [
    "OBS_NO_SENSORS",
    "OBS_ALL_SENSORS",
    "POSITION_NORM",
    "VELOCITY_NORM",
    "POINTS_NORM",
    "MAX_EPISODE_STEPS",
    "RL_STEP_SECONDS",
    "PAPER_INITIAL_STATE",
    "PAPER_INITIAL_SUN_ANGLE",
    "delta_v",
    "normalize_state",
    "build_observation",
    "RelativeState",
    "EnvConfig",
    "InspectionEnv",
]

OBS_NO_SENSORS = "no_sensors"
OBS_ALL_SENSORS = "all_sensors"

POSITION_NORM = 100.0  # positions divided by this
VELOCITY_NORM = 2.0  # velocities multiplied by this
POINTS_NORM = 100.0  # inspected-point count divided by this

MAX_EPISODE_STEPS = 1223
RL_STEP_SECONDS = 10.0

# Reference initial condition used by all experiments:
# [x, y, z, xd, yd, zd] in m and m/s, plus the initial sun angle in rad.
PAPER_INITIAL_STATE = np.array([21.8, -11.3, 41.8, 0.0, 0.0, 0.0])
PAPER_INITIAL_SUN_ANGLE = 3.42

# normalize_state's divisors: dividing by 1 / VELOCITY_NORM = 0.5, a power
# of two, gives the bits of multiplying by VELOCITY_NORM
_STATE_DIVISORS = np.array([POSITION_NORM] * 3 + [1.0 / VELOCITY_NORM] * 3)


def delta_v(action, dt: float) -> float:
    """Fuel-use proxy (|Fx| + |Fy| + |Fz|) / m * dt in m/s for the deputy's
    mass m; a non-finite action, and a ``dt`` that is not a positive and
    finite number (or is a bool), is refused with a ``ValueError``."""
    dt = _positive(dt, "dt")
    fx, fy, fz = _vector(action, "action", 3).tolist()
    # summed left to right, as np.abs(F).sum() adds three entries
    return float((abs(fx) + abs(fy) + abs(fz)) / MASS * dt)


def normalize_state(vec6) -> np.ndarray:
    return _vector(vec6, "state", 6) / _STATE_DIVISORS


def build_observation(x, sun_angle: float, sphere, mode: str) -> np.ndarray:
    """Observation for ``mode`` of the 6-state ``x``, ``sun_angle`` wrapped to
    [0, 2pi).  The all-sensors observation is written into one (11,) array.
    Its cluster direction is memoized on the sphere's points and inspected
    mask (see :func:`cwinspect.inspection.nearest_uninspected_cluster`), so
    only a call after newly inspected points clusters again; a call with the
    same mask only picks the centre nearest the deputy.  Raises ValueError
    for a non-finite state, or in all-sensors mode a sun angle that is not a
    finite number (a bool included)."""
    base = normalize_state(x)
    if mode == OBS_NO_SENSORS:
        return base
    if mode != OBS_ALL_SENSORS:
        raise ValueError(f"unknown observation mode {mode!r}")
    _finite(sun_angle, "sun angle")
    obs = np.empty(11)
    obs[:6] = base
    obs[6] = inspection.inspected_count(sphere) / POINTS_NORM
    obs[7] = sun_angle % (2.0 * np.pi)
    obs[8:] = inspection.nearest_uninspected_cluster(sphere, x[:3])
    return obs


@dataclass(frozen=True, eq=False, slots=True)
class RelativeState:
    """Deputy state in Hill's frame plus the episode clock and the sun angle,
    stored unwrapped (monotone in time); :meth:`vector` copies the 6-state."""

    x: np.ndarray  # [m, m/s], shape (6,), read-only
    sun_angle: float  # [rad], unwrapped
    t: float  # [s], space frame

    def vector(self) -> np.ndarray:
        """Return a copy of the 6-vector [x, y, z, xd, yd, zd]."""
        return self.x.copy()


@dataclass
class EnvConfig:
    mode: str = OBS_NO_SENSORS
    illumination: bool = False
    max_steps: int = MAX_EPISODE_STEPS

    def __post_init__(self):
        if self.mode not in (OBS_NO_SENSORS, OBS_ALL_SENSORS):
            raise ValueError(f"unknown observation mode {self.mode!r}")
        self.illumination = _flag(self.illumination, "illumination")
        _integer(self.max_steps, "max_steps", 1)

    @property
    def dt(self) -> float:
        """The step length [s]: always :data:`RL_STEP_SECONDS`."""
        return RL_STEP_SECONDS


class InspectionEnv:
    """Gym-style episode: reset() -> obs, step(action) -> (obs, r, done, info)."""

    def __init__(self, config: EnvConfig | None = None):
        self.config = config if config is not None else EnvConfig()
        self.state: RelativeState | None = None
        self.sphere = None
        self.total_delta_v = 0.0
        self.total_reward = 0.0
        self.step_index = 0
        self.done = False

    def reset(self) -> np.ndarray:
        """Start a fresh episode; deterministic.  The config is checked again
        (fields may have been assigned after construction) and the episode
        runs on that checked copy; ValueError for a field it refuses."""
        self.config = dataclasses.replace(self.config)
        x = PAPER_INITIAL_STATE.copy()
        x.setflags(write=False)
        self.state = RelativeState(x, PAPER_INITIAL_SUN_ANGLE, 0.0)
        self.sphere = inspection.generate_points()
        self.total_delta_v = 0.0
        self.total_reward = 0.0
        self.step_index = 0
        self.done = False
        return self.observe()

    def observe(self) -> np.ndarray:
        """The observation of the current state; raises if the episode was
        never reset."""
        state = self.state
        if state is None:
            raise RuntimeError("call reset() before observe()")
        return build_observation(state.x, state.sun_angle, self.sphere, self.config.mode)

    def step(self, action):
        """Apply a thrust command for one 10 s step.

        Returns (observation, reward, done, info).  Raises if the episode
        already terminated, and ``ValueError`` for a non-finite action, which
        leaves the state and totals as they were; a finite action is clamped
        to the thrust box.
        """
        state = self.state
        if state is None:
            raise RuntimeError("call reset() before step()")
        if self.done:
            raise RuntimeError("episode is done; call reset()")
        u = _clamp(_vector(action, "action", 3), U_MAX)
        x = step(state.x, u, RL_STEP_SECONDS)
        x.setflags(write=False)
        state = self.state = RelativeState(
            x, state.sun_angle - MEAN_MOTION * RL_STEP_SECONDS,
            state.t + RL_STEP_SECONDS)
        newly = inspection.update_inspected(
            self.sphere, x[:3], state.sun_angle, self.config.illumination)
        dv = delta_v(u, RL_STEP_SECONDS)
        self.total_delta_v += dv
        reward = 0.1 * newly - 0.1 * dv
        self.total_reward += reward
        self.step_index += 1
        inspected = inspection.inspected_count(self.sphere)
        if inspected == len(self.sphere.inspected) or self.step_index >= self.config.max_steps:
            self.done = True
        info = {
            "newly_inspected": newly,
            "inspected": inspected,
            "step_delta_v": dv,
            "total_delta_v": self.total_delta_v,
            "t": state.t,
        }
        return self.observe(), reward, self.done, info

    def summary(self) -> dict:
        """Episode summary in the external JSON schema."""
        inspected = inspection.inspected_count(self.sphere) if self.sphere is not None else 0
        total = len(self.sphere.inspected) if self.sphere is not None else 0
        return {
            "inspected": inspected,
            "delta_v": self.total_delta_v,
            "reward": self.total_reward,
            "steps": self.step_index,
            "success": bool(total and inspected == total),
        }
