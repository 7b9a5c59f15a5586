"""Episode semantics: the episode record and its configuration,
observation normalization, reward and delta-v accounting, termination
rules."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cwinspect.dynamics import DynamicsParams, step
from cwinspect.env import (MAX_EPISODE_STEPS, OBS_ALL_SENSORS, OBS_NO_SENSORS,
                           POSITION_NORM, RL_STEP_SECONDS, VELOCITY_NORM, EnvConfig,
                           InspectionEnv, RelativeState, build_observation,
                           delta_v, normalize_state)
from cwinspect.inspection import generate_points


class TestState:
    def test_rejects_nonfinite(self):
        # the record holds only step outputs: a NaN thrust is refused before
        # one is built, and the state is kept
        env = InspectionEnv()
        env.reset()
        before = env.state
        with pytest.raises(ValueError, match="finite"):
            env.step([math.nan, 0.0, 0.0])
        assert env.state is before and env.step_index == 0

    @pytest.mark.parametrize("action", [
        [math.inf, -math.inf, 0.0], [0.0, 0.0, -math.inf], [0.3, math.nan, 0.0]])
    def test_nonfinite_action_refused(self, action):
        # [inf, -inf, 0] used to fly full thrust on two axes (step delta-v
        # 1.667) while a NaN was refused; the state, clock and totals stay
        env = InspectionEnv()
        env.reset()
        env.step([0.2, -0.4, 0.1])
        before = (env.state, env.total_delta_v, env.total_reward, env.step_index,
                  env.sphere.inspected.copy())
        with pytest.raises(ValueError, match="action must be finite"):
            env.step(action)
        after = (env.state, env.total_delta_v, env.total_reward, env.step_index)
        assert after == before[:4] and np.array_equal(env.sphere.inspected, before[4])
        env.step([0.2, -0.4, 0.1])
        assert env.step_index == 2

    def test_observe_before_reset_raises(self):
        # used to fail with AttributeError on the missing record
        with pytest.raises(RuntimeError, match="reset"):
            InspectionEnv().observe()

    def test_record_fields(self):
        assert [f.name for f in dataclasses.fields(RelativeState)] == ["x", "sun_angle", "t"]

    def test_record_is_frozen_and_its_state_read_only(self):
        env = InspectionEnv()
        env.reset()
        for _ in range(2):
            state = env.state
            with pytest.raises(dataclasses.FrozenInstanceError):
                state.x = np.zeros(6)
            with pytest.raises(ValueError, match="read-only"):
                state.x[0] = 0.0
            env.step([0.2, -0.4, 0.1])

    def test_vector_is_a_writable_copy_of_the_step(self):
        env = InspectionEnv()
        env.reset()
        x = env.state.vector()
        env.step([0.2, -0.4, 0.1])
        v = env.state.vector()
        assert v.tobytes() == step(x, [0.2, -0.4, 0.1], RL_STEP_SECONDS).tobytes()
        v[0] = 1e6
        assert env.state.x[0] != 1e6


class TestConfig:
    def test_defaults_accepted(self):
        cfg = EnvConfig(illumination=np.bool_(True), max_steps=np.int64(5))
        assert cfg.illumination is True
        assert [f.name for f in dataclasses.fields(EnvConfig)] == [
            "mode", "illumination", "max_steps"]

    @pytest.mark.parametrize("kwargs", [
        {"mode": "sensors"}, {"illumination": "no"}, {"illumination": 1},
        {"dt": -1.0}, {"dt": 0.0}, {"dt": math.nan}, {"dt": math.inf},
        {"max_steps": 0}, {"max_steps": -5}, {"max_steps": 2.5},
        {"initial_state": [0.0] * 5},
        {"initial_state": [math.nan, 0, 0, 0, 0, 0]},
        {"initial_sun_angle": math.inf}, {"initial_sun_angle": math.nan},
        {"dynamics": None},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        # dt=-1 used to fail only at the first step, max_steps=0 or -5 to
        # end the episode after one step, and illumination="no" to be taken;
        # the step, the initial state and sun angle and the dynamics are the
        # paper's constants, so their keywords are refused
        fields = {f.name for f in dataclasses.fields(EnvConfig)}
        with pytest.raises(ValueError if set(kwargs) <= fields else TypeError):
            EnvConfig(**kwargs)

    def test_dt_is_the_rl_step(self):
        cfg = EnvConfig()
        assert cfg.dt == RL_STEP_SECONDS
        with pytest.raises(AttributeError):
            cfg.dt = 1.0
        assert cfg.dt == RL_STEP_SECONDS

    @pytest.mark.parametrize("name, value", [("max_steps", 0), ("illumination", "no")])
    def test_reset_checks_fields_assigned_after_construction(self, name, value):
        # max_steps = 0 used to end the episode after one step, and
        # illumination = "no" to run gated (20 points on the first step)
        cfg = EnvConfig()
        setattr(cfg, name, value)
        env = InspectionEnv(cfg)
        with pytest.raises(ValueError, match=name):
            env.reset()
        assert env.state is None


class TestDeltaV:
    def test_zero_thrust(self):
        assert delta_v([0, 0, 0], 10.0) == 0.0

    def test_unit_thrust_each_axis(self):
        assert delta_v([1, 1, 1], 10.0) == pytest.approx(2.5)

    def test_linear_in_dt(self):
        a = delta_v([0.3, -0.7, 0.1], 10.0)
        b = delta_v([0.3, -0.7, 0.1], 20.0)
        assert b == pytest.approx(2 * a)

    @pytest.mark.parametrize("action", [
        [math.inf, 0.0, 0.0], [0.0, -math.inf, 0.0], [0.0, 0.0, math.nan]])
    def test_nonfinite_action_refused(self, action):
        # [inf, 0, 0] used to give an infinite delta-v
        with pytest.raises(ValueError, match="action must be finite"):
            delta_v(action, 10.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(F=arrays(float, 3, elements=st.floats(-1e100, 1e100, allow_subnormal=True)),
           dt=st.floats(1e-3, 1e3))
    def test_matches_the_numpy_formula_bit_for_bit(self, F, dt):
        assert delta_v(F, dt) == float(np.abs(F).sum() / DynamicsParams().mass * dt)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            delta_v([0, 0, 0], 0.0)
        # the mass is the one deputy's: no other can be passed
        with pytest.raises(TypeError):
            delta_v([0, 0, 0], 10.0, 12.0)
        for dt in (math.nan, math.inf):
            with pytest.raises(ValueError):
                delta_v([0, 0, 0], dt)


class TestObservations:
    def test_reset_matches_normalized_initial_state(self):
        env = InspectionEnv()
        obs = env.reset()
        assert np.allclose(obs, [0.218, -0.113, 0.418, 0, 0, 0])

    def test_all_sensors_layout(self):
        env = InspectionEnv(EnvConfig(mode=OBS_ALL_SENSORS))
        obs = env.reset()
        assert obs.shape == (11,)
        assert obs[6] == 0.0  # no points inspected yet
        assert obs[7] == pytest.approx(3.42)  # sun angle, wrapped
        assert abs(np.linalg.norm(obs[8:]) - 1.0) < 1e-12

    def test_same_seed_identical(self):
        a = InspectionEnv(EnvConfig(mode=OBS_ALL_SENSORS))
        b = InspectionEnv(EnvConfig(mode=OBS_ALL_SENSORS))
        assert np.array_equal(a.reset(), b.reset())

    def test_velocity_normalization(self):
        x = np.array([0, 0, 0, 0.5, 0, 0])
        obs = build_observation(x, 0.0, generate_points(), OBS_NO_SENSORS)
        assert obs[3] == pytest.approx(1.0)

    def test_origin_state_all_zero(self):
        obs = build_observation(np.zeros(6), 0.0, generate_points(), OBS_NO_SENSORS)
        assert np.allclose(obs, 0.0)

    def test_point_count_normalization(self):
        sphere = generate_points()
        sphere.inspected[:50] = True
        x = np.array([100, 0, 0, 0, 0, 0])
        obs = build_observation(x, -1.0, sphere, OBS_ALL_SENSORS)
        assert obs[6] == pytest.approx(0.5)
        assert obs[7] == pytest.approx(2 * np.pi - 1.0)  # sun angle, wrapped

    def test_normalization_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            x = np.concatenate([rng.normal(0, 80, 3), rng.normal(0, 0.5, 3)])
            obs = normalize_state(x)
            back = np.concatenate([obs[:3] * POSITION_NORM, obs[3:] / VELOCITY_NORM])
            assert np.all(np.abs(back - x) < 1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=arrays(float, 6, elements=st.floats(allow_nan=False, allow_infinity=False,
                                                 allow_subnormal=True)))
    def test_normalize_matches_the_scaling_bit_for_bit(self, x):
        # one division by (100, 100, 100, 0.5, 0.5, 0.5): the bits of
        # x[:3] / 100 and x[3:] * 2, signed zeros, subnormals and overflow
        # to infinity included
        with np.errstate(over="ignore"):
            expected = np.concatenate([x[:3] / POSITION_NORM, x[3:] * VELOCITY_NORM])
            assert normalize_state(x).tobytes() == expected.tobytes()
            assert normalize_state(list(x)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda x, theta: normalize_state(x),
        lambda x, theta: build_observation(x, 0.0, generate_points(), OBS_NO_SENSORS),
        lambda x, theta: build_observation(x, 0.0, generate_points(), OBS_ALL_SENSORS),
        lambda x, theta: build_observation(np.full(6, 50.0), theta, generate_points(),
                                           OBS_ALL_SENSORS),
    ], ids=["normalize_state", "no_sensors", "all_sensors", "all_sensors_sun_angle"])
    def test_nonfinite_input_rejected(self, call, bad):
        # a NaN state used to give six NaN observations
        x = np.full(6, 50.0)
        x[4] = bad
        with pytest.raises(ValueError, match="finite"):
            call(x, bad)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_observation(np.zeros(6), 0.0, generate_points(), "sensors")


class TestStep:
    def test_state_is_the_dynamics_step(self):
        env = InspectionEnv()
        env.reset()
        for action in ([0.2, -0.4, 0.1], [0.0, 0.0, 0.0]):
            x = env.state.vector()
            env.step(action)
            assert np.array_equal(env.state.vector(), step(x, action, 10.0))

    def test_sun_angle_arithmetic(self):
        env = InspectionEnv()
        env.reset()
        assert env.state.sun_angle == 3.42 and env.state.t == 0.0
        _, _, _, info = env.step(np.zeros(3))
        assert env.state.sun_angle == pytest.approx(3.40973, abs=1e-12)
        assert env.state.t == info["t"] == 10.0

    def test_zero_action_after_hemisphere_sweep(self):
        env = InspectionEnv()
        env.reset()
        env.step(np.zeros(3))  # marks the visible hemisphere
        # position barely changes over the next 10 s of free drift, so no
        # new points come into view and zero thrust costs nothing
        obs, reward, done, info = env.step(np.zeros(3))
        assert info["newly_inspected"] == 0
        assert reward == 0.0

    def test_thrust_cost_accounting(self):
        env = InspectionEnv()
        env.reset()
        env.step(np.zeros(3))
        obs, reward, done, info = env.step([1.0, -1.0, 0.5])
        assert info["step_delta_v"] == pytest.approx(2.5 / 12.0 * 10.0)
        assert info["step_delta_v"] == pytest.approx(2.0833, abs=1e-4)
        expected = 0.1 * info["newly_inspected"] - 0.1 * info["step_delta_v"]
        assert reward == pytest.approx(expected, abs=1e-12)

    def test_actions_clamped_to_box(self):
        env = InspectionEnv()
        env.reset()
        _, _, _, info = env.step([10.0, 0, 0])
        assert info["step_delta_v"] == pytest.approx(1.0 / 12.0 * 10.0)

    def test_step_before_reset_rejected(self):
        with pytest.raises(RuntimeError):
            InspectionEnv().step(np.zeros(3))

    def test_step_after_done_rejected(self):
        cfg = EnvConfig(max_steps=2)
        env = InspectionEnv(cfg)
        env.reset()
        env.step(np.zeros(3))
        _, _, done, _ = env.step(np.zeros(3))
        assert done
        with pytest.raises(RuntimeError):
            env.step(np.zeros(3))

    def test_episode_length_capped(self):
        cfg = EnvConfig(max_steps=5)
        env = InspectionEnv(cfg)
        env.reset()
        steps = 0
        done = False
        while not done:
            _, _, done, _ = env.step(np.zeros(3))
            steps += 1
        assert steps == 5
        assert env.step_index <= MAX_EPISODE_STEPS

    def test_reward_telescopes_to_totals(self):
        from cwinspect.control import scripted_orbit_control as ctrl
        env = InspectionEnv()
        env.reset()
        total = 0.0
        done = False
        k = 0
        while not done and k < 400:
            _, r, done, _ = env.step(ctrl(env.state.vector()))
            total += r
            k += 1
        summary = env.summary()
        assert total == pytest.approx(
            0.1 * summary["inspected"] - 0.1 * summary["delta_v"], abs=1e-9)
        assert total == pytest.approx(summary["reward"], abs=1e-12)

    def test_illumination_gating_slows_inspection(self):
        from cwinspect.control import scripted_orbit_control as ctrl

        def run_episode(illum, steps=120):
            env = InspectionEnv(EnvConfig(illumination=illum))
            env.reset()
            for _ in range(steps):
                _, _, done, info = env.step(ctrl(env.state.vector()))
                if done:
                    break
            return info["inspected"]

        assert run_episode(True) <= run_episode(False)

    def test_full_inspection_terminates_with_success(self):
        from cwinspect.control import scripted_orbit_control as ctrl
        env = InspectionEnv()
        env.reset()
        done = False
        k = 0
        while not done and k < MAX_EPISODE_STEPS:
            _, _, done, info = env.step(ctrl(env.state.vector()))
            k += 1
        summary = env.summary()
        assert summary["success"]
        assert summary["inspected"] == 99
        assert set(summary) == {"inspected", "delta_v", "reward", "steps", "success"}
