"""Primary controllers: LQR to the origin, MLP policy inference, and a
scripted circumnavigation control law used as a stand-in for trained policies.
The LQR weights and the stand-in's orbit are the one design the experiments
fly, fixed as module constants.

The MLP weights travel in a JSON document:

    {"input_dim": 6,
     "layers": [{"rows": 256, "cols": 6,
                 "weights": "...", "bias": "...", "activation": "tanh"}, ...]}

Each layer's ``weights`` (row-major) and ``bias`` are given in one of two
encodings, and the loader takes either: a JSON list of numbers, or one
string holding the standard padded base64 (RFC 4648) of the values'
little-endian IEEE-754 float64 bytes.  ``mlp_save`` writes the base64 form,
which round-trips bit for bit and loads without parsing a number per value;
the shipped ``data/tiny_policy_*.json`` stay in list form as fixtures of the
list path.

The canonical policy architecture has two tanh hidden layers of width 256
and a linear output layer of 6 nodes (mean and variance per thrust axis);
inference uses only the three mean outputs.  The loader validates the
dimension chain, the 6/11 input width and the activation names, but accepts
other hidden widths so small test policies stay cheap.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import MASS, MEAN_MOTION, U_MAX, _clamp, _positive, _vector, cw_matrices

__all__ = [
    "lqr_design",
    "lqr_control",
    "MlpLayer",
    "MlpPolicy",
    "mlp_load",
    "mlp_loads",
    "mlp_save",
    "mlp_act",
    "random_policy",
    "scripted_orbit_control",
]

VALID_INPUT_DIMS = (6, 11)
OUTPUT_DIM = 6
_ACTIVATIONS = ("tanh", "linear")

DEFAULT_LQR_Q = 1e-3 * np.eye(6)
DEFAULT_LQR_R = np.eye(3)

# the scripted stand-in's circle: its radius [m], its plane's normal, the
# in-plane axis it takes at the normal itself, its rate 2n [rad/s] and its
# PD gains [s^-2, s^-1]; the drift matrix A whose acceleration it cancels
_ORBIT_RADIUS = 30.0
_ORBIT_NORMAL = np.array([0.0, 1.0, 0.0])
_ORBIT_E1 = np.array([1.0, 0.0, 0.0])
_ORBIT_RATE = 2.0 * MEAN_MOTION
_ORBIT_GAIN = 0.002
_ORBIT_KV = 2.0 * math.sqrt(_ORBIT_GAIN)  # critically damped
_DRIFT = cw_matrices()[0]
_DRIFT.setflags(write=False)


def lqr_design() -> np.ndarray:
    """Continuous-time LQR gain K (3, 6) for the relative-motion pair (A, B)
    with the weights ``DEFAULT_LQR_Q`` and ``DEFAULT_LQR_R``.

    Solves the algebraic Riccati equation from the stable invariant subspace
    of the Hamiltonian [[A, -B R^-1 B^T], [-Q, -A^T]] (Laub 1979): P = U2 U1^-1
    for the eigenvectors [U1; U2] of its six eigenvalues of negative real
    part, and enforces that the closed loop A - B K is Hurwitz.
    """
    Q, R = DEFAULT_LQR_Q, DEFAULT_LQR_R
    A, B = cw_matrices()
    Z = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
    lam, V = np.linalg.eig(Z)
    stable = lam.real < -1e-9 * np.abs(Z).max()  # not a rounded imaginary one
    if stable.sum() != 6:
        raise ValueError("LQR design failed: the Hamiltonian has "
                         f"{stable.sum()} stable eigenvalues, not 6")
    P = np.linalg.solve(V[:6, stable].T, V[6:, stable].T).T.real
    K = np.linalg.solve(R, B.T @ P)
    eigs = np.linalg.eigvals(A - B @ K)
    if not np.all(eigs.real < 0.0):
        raise ValueError("LQR design failed: closed loop is not Hurwitz")
    return K


def lqr_control(K: np.ndarray, x) -> np.ndarray:
    """u = clamp(-K x) to the per-axis thrust box for the gain ``K`` of
    :func:`lqr_design` and the finite 6-state ``x``."""
    return _clamp(-K @ _vector(x, "state", 6), U_MAX)


@dataclass
class MlpLayer:
    weights: np.ndarray  # (rows, cols), applied as y = W x + b
    bias: np.ndarray  # (rows,)
    activation: str


@dataclass
class MlpPolicy:
    layers: list
    input_dim: int
    output_dim: int = OUTPUT_DIM


def _validate_policy(layers, input_dim: int) -> MlpPolicy:
    if input_dim not in VALID_INPUT_DIMS:
        raise ValueError(f"input_dim must be one of {VALID_INPUT_DIMS}, got {input_dim}")
    if not layers:
        raise ValueError("policy must have at least one layer")
    prev = input_dim
    for k, layer in enumerate(layers):
        if layer.activation not in _ACTIVATIONS:
            raise ValueError(f"layer {k}: unknown activation {layer.activation!r}")
        rows, cols = layer.weights.shape
        if cols != prev:
            raise ValueError(
                f"layer {k}: expected {prev} input columns, got {cols}")
        if layer.bias.shape != (rows,):
            raise ValueError(f"layer {k}: bias length {layer.bias.shape} != rows {rows}")
        if not (np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))):
            raise ValueError(f"layer {k}: non-finite parameters")
        prev = rows
    if prev != OUTPUT_DIM:
        raise ValueError(f"final layer must have {OUTPUT_DIM} outputs, got {prev}")
    if layers[-1].activation != "linear":
        raise ValueError("final layer activation must be linear")
    return MlpPolicy(list(layers), input_dim)


def _layer_values(value, count: int, what: str) -> np.ndarray:
    """The ``count`` float64 values of one layer field, given as a JSON list
    of numbers or as base64 of their little-endian float64 bytes."""
    if isinstance(value, str):
        try:
            raw = base64.b64decode(value, validate=True)
        except binascii.Error as exc:
            raise ValueError(f"{what}: invalid base64: {exc}") from exc
        if len(raw) != 8 * count:
            raise ValueError(f"{what}: {len(raw)} bytes of base64, expected "
                             f"{8 * count} (8 per value)")
        return np.frombuffer(raw, "<f8").astype(float)  # a writable copy
    try:
        values = np.asarray(value, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: not a list of numbers: {exc}") from exc
    if values.size != count:
        raise ValueError(f"{what}: length {values.size} != {count}")
    return values


def _policy_from_dict(doc: dict) -> MlpPolicy:
    try:
        input_dim = int(doc["input_dim"])
        raw_layers = doc["layers"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed weights document: {exc}") from exc
    layers = []
    for k, entry in enumerate(raw_layers):
        try:
            rows = int(entry["rows"])
            cols = int(entry["cols"])
            w, bias = entry["weights"], entry["bias"]
            activation = str(entry["activation"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"layer {k}: malformed entry: {exc}") from exc
        w = _layer_values(w, rows * cols, f"layer {k}: weights")
        bias = _layer_values(bias, rows, f"layer {k}: bias")
        layers.append(MlpLayer(w.reshape(rows, cols), bias, activation))
    return _validate_policy(layers, input_dim)


def mlp_loads(text: str) -> MlpPolicy:
    """Parse and validate a weights document from a JSON string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed weights document: {exc}") from exc
    return _policy_from_dict(doc)


def mlp_load(path) -> MlpPolicy:
    """Load and validate a weights document from ``path``."""
    return mlp_loads(Path(path).read_text())


def _b64(values: np.ndarray) -> str:
    raw = np.ascontiguousarray(values, "<f8").tobytes()  # row-major
    return base64.b64encode(raw).decode("ascii")


def mlp_save(policy: MlpPolicy, path) -> None:
    """Write ``policy`` as a weights document, each array in base64."""
    doc = {
        "input_dim": policy.input_dim,
        "layers": [
            {
                "rows": int(layer.weights.shape[0]),
                "cols": int(layer.weights.shape[1]),
                "weights": _b64(layer.weights),
                "bias": _b64(layer.bias),
                "activation": layer.activation,
            }
            for layer in policy.layers
        ],
    }
    Path(path).write_text(json.dumps(doc))


def mlp_act(policy: MlpPolicy, observation, u_max: float = U_MAX) -> np.ndarray:
    """Deterministic forward pass; the first three outputs are the mean
    thrust commands, clamped to the box of half-width ``u_max``, a positive
    and finite number (not a bool)."""
    _positive(u_max, "u_max")
    x = _vector(observation, "observation", policy.input_dim)
    for layer in policy.layers:
        x = layer.weights @ x + layer.bias
        if layer.activation == "tanh":
            np.tanh(x, out=x)
    return _clamp(x[:3], u_max)


def random_policy(input_dim: int, hidden=(256, 256), seed: int = 0,
                  scale: float = 0.05) -> MlpPolicy:
    """Randomly initialized policy with the canonical tanh/linear stack."""
    rng = np.random.default_rng(seed)
    dims = [input_dim, *hidden, OUTPUT_DIM]
    layers = []
    for k in range(len(dims) - 1):
        w = scale * rng.standard_normal((dims[k + 1], dims[k]))
        bias = np.zeros(dims[k + 1])
        activation = "tanh" if k < len(dims) - 2 else "linear"
        layers.append(MlpLayer(w, bias, activation))
    return _validate_policy(layers, input_dim)


def scripted_orbit_control(x) -> np.ndarray:
    """Thrust (3,) of the feedback law tracking a constant-rate circle about
    the chief, for the 6-state ``x``.

    The reference is the nearest point on the 30 m circle in the x-z plane
    (normal +y), moving tangentially at rate 2n times the radius.  The
    control law cancels the natural relative acceleration and applies
    critically damped PD tracking, so a deputy on the reference needs only
    the small centripetal feedforward.  A non-finite state is refused.
    """
    x = _vector(x, "state", 6)
    p, v = x[:3], x[3:]
    p_in = p - np.dot(p, _ORBIT_NORMAL) * _ORBIT_NORMAL
    rho = np.linalg.norm(p_in)
    rho_hat = p_in / rho if rho > 1e-9 else _ORBIT_E1
    tan_hat = np.cross(_ORBIT_NORMAL, rho_hat)
    p_ref = _ORBIT_RADIUS * rho_hat
    v_ref = _ORBIT_RATE * _ORBIT_RADIUS * tan_hat
    a_ref = -_ORBIT_RATE**2 * _ORBIT_RADIUS * rho_hat
    a_nat = (_DRIFT @ x)[3:]
    a_cmd = a_ref + _ORBIT_KV * (v_ref - v) + _ORBIT_GAIN * (p_ref - p) - a_nat
    return _clamp(MASS * a_cmd, U_MAX)
