"""Controllers: LQR design/feedback, MLP loading and inference, and the
scripted circumnavigation stand-in."""

import json
import math

import numpy as np
import pytest

from cwinspect.control import (ScriptedOrbitController, lqr_control,
                               lqr_design, mlp_act, mlp_load, mlp_loads,
                               mlp_save, random_policy)
from cwinspect.dynamics import (DynamicsParams, RelativeState, cw_matrices,
                                step)

DP = DynamicsParams()


class TestLqr:
    def test_closed_loop_hurwitz(self):
        ctrl = lqr_design(DP)
        A, B = cw_matrices(DP)
        eigs = np.linalg.eigvals(A - B @ ctrl.K)
        assert np.all(eigs.real < 0.0)

    def test_riccati_residual(self):
        from scipy.linalg import solve_continuous_are
        A, B = cw_matrices(DP)
        for Q, R in ((None, None),
                     (np.diag([1.0, 2.0, 3.0, 0.1, 0.2, 0.3]), 5.0 * np.eye(3))):
            ctrl = lqr_design(DP, Q, R)
            # recover P and check the Riccati equation residual independently
            P = solve_continuous_are(A, B, ctrl.Q, ctrl.R)
            resid = A.T @ P + P @ A - P @ B @ np.linalg.solve(ctrl.R, B.T @ P) + ctrl.Q
            assert np.linalg.norm(resid, "fro") < 1e-8
            # the numpy Riccati solve gives SciPy's gain to rounding
            K_scipy = np.linalg.solve(ctrl.R, B.T @ P)
            assert np.abs(ctrl.K - K_scipy).max() <= 1e-12 * np.abs(K_scipy).max()

    @pytest.mark.parametrize("Q, R, match", [
        (np.zeros((6, 6)), None, "stable eigenvalues"),  # nothing to stabilize
        (None, -np.eye(3), "R must be positive definite"),
        (np.full((6, 6), np.nan), None, "Q must be a finite symmetric"),
        (np.eye(3), None, "Q must be a finite symmetric"),
    ])
    def test_invalid_weights_rejected(self, Q, R, match):
        with pytest.raises(ValueError, match=match):
            lqr_design(DP, Q, R)

    def test_zero_state_zero_control(self):
        ctrl = lqr_design(DP)
        assert np.allclose(lqr_control(ctrl, np.zeros(6), DP), 0.0)

    def test_far_state_saturates(self):
        ctrl = lqr_design(DP)
        u = lqr_control(ctrl, np.array([100.0, 0, 0, 0, 0, 0]), DP)
        raw = -ctrl.K @ np.array([100.0, 0, 0, 0, 0, 0])
        assert np.any(np.abs(raw) > DP.u_max)  # would exceed the box
        assert np.all(np.abs(u) <= DP.u_max)
        assert u[0] == -DP.u_max

    def test_linear_before_saturation(self):
        ctrl = lqr_design(DP)
        x = np.array([0.5, -0.2, 0.3, 0.001, 0, 0])
        u1 = lqr_control(ctrl, x, DP)
        u2 = lqr_control(ctrl, 2 * x, DP)
        assert np.all(np.abs(u2) < DP.u_max)
        assert np.allclose(u2, 2 * u1)

    def test_unfiltered_lqr_reaches_collision(self):
        # from the mission initial state the raw LQR passes inside 10 m,
        # so any safe outcome is attributable to the filter
        ctrl = lqr_design(DP)
        state = RelativeState([21.8, -11.3, 41.8], [0, 0, 0], 3.42)
        min_dist = np.linalg.norm(state.position)
        for _ in range(2000):
            u = lqr_control(ctrl, state.vector(), DP)
            state = step(state, u, 2.0, DP)
            min_dist = min(min_dist, np.linalg.norm(state.position))
            if min_dist < 10.0:
                break
        assert min_dist < 10.0


def policy_doc(input_dim=6, hidden=(4, 4), seed=0):
    policy = random_policy(input_dim, hidden, seed)
    return {
        "input_dim": policy.input_dim,
        "layers": [
            {"rows": l.weights.shape[0], "cols": l.weights.shape[1],
             "weights": l.weights.ravel().tolist(), "bias": l.bias.tolist(),
             "activation": l.activation}
            for l in policy.layers
        ],
    }


class TestMlpLoading:
    def test_canonical_shape_loads(self, tmp_path):
        path = tmp_path / "w.json"
        mlp_save(random_policy(6, hidden=(256, 256), seed=1), path)
        policy = mlp_load(path)
        assert policy.input_dim == 6
        assert [l.weights.shape[0] for l in policy.layers] == [256, 256, 6]
        assert [l.activation for l in policy.layers] == ["tanh", "tanh", "linear"]

    def test_eleven_input_variant_loads(self, tmp_path):
        path = tmp_path / "w11.json"
        mlp_save(random_policy(11, hidden=(8, 8), seed=2), path)
        assert mlp_load(path).input_dim == 11

    def test_seven_inputs_rejected(self):
        doc = policy_doc(6)
        doc["input_dim"] = 7
        doc["layers"][0]["cols"] = 7
        doc["layers"][0]["weights"] = [0.0] * (4 * 7)
        with pytest.raises(ValueError, match="input_dim"):
            mlp_loads(json.dumps(doc))

    def test_dimension_chain_break_rejected(self):
        doc = policy_doc(6)
        doc["layers"][1]["cols"] = 5
        doc["layers"][1]["weights"] = [0.0] * (4 * 5)
        with pytest.raises(ValueError, match="columns"):
            mlp_loads(json.dumps(doc))

    def test_unknown_activation_rejected(self):
        doc = policy_doc(6)
        doc["layers"][0]["activation"] = "relu"
        with pytest.raises(ValueError, match="activation"):
            mlp_loads(json.dumps(doc))

    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError):
            mlp_loads("not json at all {")
        with pytest.raises(ValueError):
            mlp_loads(json.dumps({"layers": []}))

    def test_shipped_tiny_policies_load(self):
        from importlib import resources
        for name, dim in (("tiny_policy_no_sensors.json", 6),
                          ("tiny_policy_all_sensors.json", 11)):
            text = resources.files("cwinspect.data").joinpath(name).read_text()
            assert mlp_loads(text).input_dim == dim


class TestMlpInference:
    def test_zero_weights_zero_output(self):
        doc = policy_doc(6, hidden=(4,))
        for l in doc["layers"]:
            l["weights"] = [0.0] * len(l["weights"])
            l["bias"] = [0.0] * len(l["bias"])
        policy = mlp_loads(json.dumps(doc))
        assert np.allclose(mlp_act(policy, np.ones(6)), 0.0)

    def test_single_path_matches_manual_forward(self):
        # one active path: obs e1 -> tanh(w1) -> tanh(w2 * .) -> w3 * .
        doc = {
            "input_dim": 6,
            "layers": [
                {"rows": 2, "cols": 6, "weights": [0.7, 0, 0, 0, 0, 0,
                                                   0, 0, 0, 0, 0, 0],
                 "bias": [0.0, 0.0], "activation": "tanh"},
                {"rows": 2, "cols": 2, "weights": [1.3, 0, 0, 0],
                 "bias": [0.0, 0.0], "activation": "tanh"},
                {"rows": 6, "cols": 2, "weights": [0.9, 0] + [0.0] * 10,
                 "bias": [0.0] * 6, "activation": "linear"},
            ],
        }
        policy = mlp_loads(json.dumps(doc))
        obs = np.array([1.0, 0, 0, 0, 0, 0])
        expected = 0.9 * math.tanh(1.3 * math.tanh(0.7))
        u = mlp_act(policy, obs)
        assert u[0] == pytest.approx(expected, abs=1e-15)
        assert u[1] == u[2] == 0.0

    def test_outputs_clamped_to_box(self):
        policy = random_policy(6, hidden=(16, 16), seed=5, scale=30.0)
        rng = np.random.default_rng(6)
        for _ in range(50):
            u = mlp_act(policy, rng.normal(0, 1, 6), u_max=1.0)
            assert np.all(np.abs(u) <= 1.0)

    def test_deterministic(self):
        policy = random_policy(11, hidden=(8, 8), seed=9)
        obs = np.linspace(-1, 1, 11)
        assert np.array_equal(mlp_act(policy, obs), mlp_act(policy, obs))

    def test_dimension_mismatch_rejected(self):
        policy = random_policy(6, hidden=(4,), seed=1)
        with pytest.raises(ValueError):
            mlp_act(policy, np.zeros(11))


class TestScriptedOrbit:
    def test_on_reference_control_is_small(self):
        ctrl = ScriptedOrbitController(30.0, params=DP)
        p = 30.0 * ctrl.e1
        v = ctrl.rate * 30.0 * np.cross(ctrl.normal, ctrl.e1)
        u = ctrl(np.concatenate([p, v]))
        assert np.linalg.norm(u) < 0.1

    def test_output_clamped(self):
        u = ScriptedOrbitController(30.0, params=DP)(
            np.array([500.0, 300, -200, 1, 1, -1]))
        assert np.all(np.abs(u) <= DP.u_max)

    def test_tracks_radius_within_five_percent(self):
        ctrl = ScriptedOrbitController(30.0, params=DP)
        state = RelativeState([21.8, -11.3, 41.8], [0, 0, 0], 3.42)
        period = 2 * math.pi / ctrl.rate
        radii = []
        t, dt = 0.0, 2.0
        while t < 2 * period:
            state = step(state, ctrl(state.vector()), dt, DP)
            t += dt
            if t > 1.5 * period:
                radii.append(np.linalg.norm(state.position))
        radii = np.array(radii)
        assert np.all(np.abs(radii - 30.0) / 30.0 < 0.05)

    def test_plane_tracking(self):
        # deputy converges into the plane orthogonal to the normal
        ctrl = ScriptedOrbitController(30.0, plane_normal=(0, 1, 0), params=DP)
        state = RelativeState([21.8, -11.3, 41.8], [0, 0, 0], 3.42)
        for _ in range(1500):
            state = step(state, ctrl(state.vector()), 2.0, DP)
        assert abs(state.position[1]) < 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ScriptedOrbitController(0.0, params=DP)
        with pytest.raises(ValueError):
            ScriptedOrbitController(30.0, plane_normal=(0, 0, 0), params=DP)

    @pytest.mark.parametrize("kwargs", [
        dict(radius=math.nan), dict(radius=math.inf), dict(rate=math.inf),
        dict(rate=math.nan), dict(plane_normal=(math.nan, 1, 0)),
        dict(gain=math.nan), dict(gain=math.inf), dict(gain=-0.1), dict(gain=0.0),
    ])
    def test_non_finite_or_degenerate_arguments_rejected(self, kwargs):
        kwargs = {"radius": 30.0, **kwargs}
        with pytest.raises(ValueError):
            ScriptedOrbitController(params=DP, **kwargs)
