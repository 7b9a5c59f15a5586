"""Episode semantics: observation normalization, reward and delta-v
accounting, termination rules."""

import numpy as np
import pytest

from cwinspect.env import (MAX_EPISODE_STEPS, OBS_ALL_SENSORS, OBS_NO_SENSORS,
                           EnvConfig, InspectionEnv, build_observation,
                           delta_v, denormalize_state, normalize_state)
from cwinspect.inspection import generate_points


class TestDeltaV:
    def test_zero_thrust(self):
        assert delta_v([0, 0, 0], 10.0, 12.0) == 0.0

    def test_unit_thrust_each_axis(self):
        assert delta_v([1, 1, 1], 10.0, 12.0) == pytest.approx(2.5)

    def test_linear_in_dt(self):
        a = delta_v([0.3, -0.7, 0.1], 10.0, 12.0)
        b = delta_v([0.3, -0.7, 0.1], 20.0, 12.0)
        assert b == pytest.approx(2 * a)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            delta_v([0, 0, 0], 0.0, 12.0)
        with pytest.raises(ValueError):
            delta_v([0, 0, 0], 10.0, -1.0)


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
        assert np.array_equal(a.reset(seed=4), b.reset(seed=4))

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
            assert np.all(np.abs(denormalize_state(normalize_state(x)) - x) < 1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_observation(np.zeros(6), 0.0, generate_points(), "sensors")


class TestStep:
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
        from cwinspect.control import ScriptedOrbitController
        ctrl = ScriptedOrbitController(30.0)
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
        from cwinspect.control import ScriptedOrbitController
        ctrl = ScriptedOrbitController(30.0)

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
        from cwinspect.control import ScriptedOrbitController
        ctrl = ScriptedOrbitController(30.0)
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
