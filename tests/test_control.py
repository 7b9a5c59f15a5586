"""Controllers: LQR design/feedback, MLP loading and inference, and the
scripted circumnavigation stand-in."""

import base64
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cwinspect.control import (DEFAULT_LQR_Q, DEFAULT_LQR_R, OUTPUT_DIM,
                               MlpLayer, MlpPolicy, lqr_control, lqr_design,
                               mlp_act, mlp_load, mlp_loads, mlp_save,
                               random_policy, scripted_orbit_control)
from cwinspect.dynamics import DynamicsParams, cw_matrices, step

DP = DynamicsParams()


class TestLqr:
    def test_closed_loop_hurwitz(self):
        K = lqr_design()
        A, B = cw_matrices()
        eigs = np.linalg.eigvals(A - B @ K)
        assert np.all(eigs.real < 0.0)

    def test_riccati_residual(self):
        from scipy.linalg import solve_continuous_are
        A, B = cw_matrices()
        Q, R = DEFAULT_LQR_Q, DEFAULT_LQR_R
        K = lqr_design()
        # recover P and check the Riccati equation residual independently
        P = solve_continuous_are(A, B, Q, R)
        resid = A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T @ P) + Q
        assert np.linalg.norm(resid, "fro") < 1e-8
        # the numpy Riccati solve gives SciPy's gain to rounding
        K_scipy = np.linalg.solve(R, B.T @ P)
        assert np.abs(K - K_scipy).max() <= 1e-12 * np.abs(K_scipy).max()

    @pytest.mark.parametrize("Q, R, match", [
        (np.zeros((6, 6)), None, "stable eigenvalues"),  # nothing to stabilize
        (None, -np.eye(3), "R must be positive definite"),
        (np.full((6, 6), np.nan), None, "Q must be a finite symmetric"),
        (np.eye(3), None, "Q must be a finite symmetric"),
    ])
    def test_invalid_weights_rejected(self, Q, R, match):
        # the weights are the one design's DEFAULT_LQR_Q and DEFAULT_LQR_R:
        # no others can be asked for, valid or not
        with pytest.raises(TypeError):
            lqr_design(Q, R)

    def test_zero_state_zero_control(self):
        assert np.allclose(lqr_control(np.zeros(6)), 0.0)

    def test_far_state_saturates(self):
        K = lqr_design()
        u = lqr_control(np.array([100.0, 0, 0, 0, 0, 0]))
        raw = -K @ np.array([100.0, 0, 0, 0, 0, 0])
        assert np.any(np.abs(raw) > DP.u_max)  # would exceed the box
        assert np.all(np.abs(u) <= DP.u_max)
        assert u[0] == -DP.u_max

    def test_clamp_is_np_clip_bit_for_bit(self):
        K = lqr_design()
        rng = np.random.default_rng(13)
        for scale in (1.0, 100.0, 1e4):
            for _ in range(50):
                x = rng.normal(0, scale, 6)
                expected = np.clip(-K @ x, -DP.u_max, DP.u_max)
                assert lqr_control(x).tobytes() == expected.tobytes()

    def test_linear_before_saturation(self):
        x = np.array([0.5, -0.2, 0.3, 0.001, 0, 0])
        u1 = lqr_control(x)
        u2 = lqr_control(2 * x)
        assert np.all(np.abs(u2) < DP.u_max)
        assert np.allclose(u2, 2 * u1)

    def test_unfiltered_lqr_reaches_collision(self):
        # from the mission initial state the raw LQR passes inside 10 m,
        # so any safe outcome is attributable to the filter
        x = np.array([21.8, -11.3, 41.8, 0, 0, 0])
        min_dist = np.linalg.norm(x[:3])
        for _ in range(2000):
            x = step(x, lqr_control(x), 2.0)
            min_dist = min(min_dist, np.linalg.norm(x[:3]))
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

    def test_records_are_frozen(self):
        # a layer's activation or the input size changed after validation
        # used to run a tanh layer as linear, or fail inside numpy's matmul
        policy = random_policy(6, hidden=(8, 8))
        assert isinstance(policy.layers, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.layers[0].activation = "relu"
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.input_dim = 11
        assert policy.layers[0].activation == "tanh" and policy.input_dim == 6

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


# finite float64 values with the edge cases of the byte encoding mixed in
_EDGE_VALUES = st.one_of(
    st.sampled_from((-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e308, -1e308)),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def policies(draw):
    input_dim = draw(st.sampled_from((6, 11)))
    hidden = draw(st.lists(st.integers(1, 16), min_size=1, max_size=2))
    dims = [input_dim, *hidden, OUTPUT_DIM]
    layers = [
        MlpLayer(draw(arrays(np.float64, (dims[k + 1], dims[k]), elements=_EDGE_VALUES)),
                 draw(arrays(np.float64, dims[k + 1], elements=_EDGE_VALUES)),
                 "linear" if k == len(dims) - 2 else "tanh")
        for k in range(len(dims) - 1)
    ]
    return MlpPolicy(layers, input_dim)


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def _corrupt(text: str, how: str) -> str:
    raw = base64.b64decode(text)
    if how == "alphabet":  # a lenient decoder would skip the "*" and succeed
        return text[:4] + "*" + text[4:]
    if how == "partial":
        return base64.b64encode(raw[:-1]).decode("ascii")
    if how == "count":
        return base64.b64encode(raw + bytes(8)).decode("ascii")
    values = np.frombuffer(raw, "<f8").copy()
    values[-1] = np.nan
    return _b64(values)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(policies(), st.data())
def test_weights_round_trip_is_bit_exact(tmp_path_factory, policy, data):
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    mlp_save(policy, path)
    saved = mlp_load(path)
    doc = json.loads(path.read_text())
    as_lists = {**doc, "layers": [
        {**entry, "weights": l.weights.ravel().tolist(), "bias": l.bias.tolist()}
        for entry, l in zip(doc["layers"], policy.layers)]}
    from_lists = mlp_loads(json.dumps(as_lists))
    for src, a, b in zip(policy.layers, saved.layers, from_lists.layers):
        for loaded in (a, b):
            for x, y in ((src.weights, loaded.weights), (src.bias, loaded.bias)):
                assert y.dtype == np.float64 and y.shape == x.shape
                assert y.flags.writeable and y.tobytes() == x.tobytes()

    k = data.draw(st.integers(0, len(doc["layers"]) - 1), label="layer")
    field = data.draw(st.sampled_from(("weights", "bias")), label="field")
    how = data.draw(st.sampled_from(("alphabet", "partial", "count", "nan")), label="how")
    doc["layers"][k][field] = _corrupt(doc["layers"][k][field], how)
    with pytest.raises(ValueError, match=f"layer {k}"):
        mlp_loads(json.dumps(doc))


def test_saved_document_is_base64(tmp_path):
    path = tmp_path / "w.json"
    policy = random_policy(6, hidden=(3,), seed=4)
    mlp_save(policy, path)
    entry = json.loads(path.read_text())["layers"][0]
    assert entry["weights"] == _b64(policy.layers[0].weights)
    assert entry["bias"] == _b64(policy.layers[0].bias)
    assert (entry["rows"], entry["cols"]) == (3, 6)


# the per-call activation lookup mlp_act used to make, kept as its oracle
ACTIVATIONS = {"tanh": np.tanh, "linear": lambda x: x}


def mlp_act_oracle(policy, observation, u_max=1.0):
    x = np.asarray(observation, dtype=float).reshape(-1)
    for layer in policy.layers:
        x = ACTIVATIONS[layer.activation](layer.weights @ x + layer.bias)
    return np.clip(x[:3], -u_max, u_max)


class TestMlpInference:
    @pytest.mark.parametrize("policy", [
        random_policy(6, seed=3),
        random_policy(11, hidden=(32, 16), seed=4, scale=2.0),
        mlp_loads(json.dumps({"input_dim": 6, "layers": [
            {"rows": 8, "cols": 6, "weights": list(np.linspace(-2, 2, 48)),
             "bias": [0.1] * 8, "activation": "linear"},
            {"rows": 8, "cols": 8, "weights": list(np.linspace(3, -3, 64)),
             "bias": [-0.2] * 8, "activation": "tanh"},
            {"rows": 6, "cols": 8, "weights": list(np.linspace(-1, 1, 48)),
             "bias": [0.0] * 6, "activation": "linear"}]})),
    ], ids=["2x256", "2-layer-11", "linear-hidden"])
    def test_matches_the_activation_loop_bit_for_bit(self, policy):
        rng = np.random.default_rng(12)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(40):
                obs = rng.normal(0, scale, policy.input_dim)
                for u_max in (1.0, 0.05):
                    assert (mlp_act(policy, obs, u_max).tobytes()
                            == mlp_act_oracle(policy, obs, u_max).tobytes())

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

    @pytest.mark.parametrize("u_max", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_thrust_limit_rejected(self, u_max):
        # u_max = -1 used to return [-1, -1, -1]
        policy = random_policy(6, hidden=(4,), seed=1)
        with pytest.raises(ValueError, match="u_max"):
            mlp_act(policy, np.zeros(6), u_max=u_max)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_observation_rejected(self, bad):
        policy = random_policy(6, hidden=(4,), seed=1)
        obs = np.zeros(6)
        obs[2] = bad
        with pytest.raises(ValueError, match="finite"):
            mlp_act(policy, obs)


class TestScriptedOrbit:
    def test_on_reference_control_is_small(self):
        # on the 30 m circle about +y, moving at rate 2n
        rate = 2.0 * DP.mean_motion
        p = np.array([30.0, 0.0, 0.0])
        v = rate * 30.0 * np.cross([0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
        u = scripted_orbit_control(np.concatenate([p, v]))
        assert np.linalg.norm(u) < 0.1

    def test_output_clamped(self):
        u = scripted_orbit_control(np.array([500.0, 300, -200, 1, 1, -1]))
        assert np.all(np.abs(u) <= DP.u_max)

    def test_tracks_radius_within_five_percent(self):
        x = np.array([21.8, -11.3, 41.8, 0, 0, 0])
        period = 2 * math.pi / (2.0 * DP.mean_motion)
        radii = []
        t, dt = 0.0, 2.0
        while t < 2 * period:
            x = step(x, scripted_orbit_control(x), dt)
            t += dt
            if t > 1.5 * period:
                radii.append(np.linalg.norm(x[:3]))
        radii = np.array(radii)
        assert np.all(np.abs(radii - 30.0) / 30.0 < 0.05)

    def test_plane_tracking(self):
        # deputy converges into the plane orthogonal to the +y normal
        x = np.array([21.8, -11.3, 41.8, 0, 0, 0])
        for _ in range(1500):
            x = step(x, scripted_orbit_control(x), 2.0)
        assert abs(x[1]) < 1.0

    # the orbit is the experiments' one stand-in: no other radius, plane,
    # rate or gain can be asked for, valid or not
    def test_invalid_arguments(self):
        with pytest.raises(TypeError):
            scripted_orbit_control(np.zeros(6), 0.0)
        with pytest.raises(TypeError):
            scripted_orbit_control(np.zeros(6), plane_normal=(0, 0, 0))

    @pytest.mark.parametrize("kwargs", [
        dict(radius=math.nan), dict(radius=math.inf), dict(rate=math.inf),
        dict(rate=math.nan), dict(plane_normal=(math.nan, 1, 0)),
        dict(gain=math.nan), dict(gain=math.inf), dict(gain=-0.1), dict(gain=0.0),
    ])
    def test_non_finite_or_degenerate_arguments_rejected(self, kwargs):
        with pytest.raises(TypeError):
            scripted_orbit_control(np.zeros(6), **kwargs)
