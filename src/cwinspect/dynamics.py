"""Relative-motion dynamics of a deputy spacecraft about a chief in Hill's frame.

Implements the linearized Clohessy-Wiltshire equations with thrust forcing,
sun-line kinematics, propagation under zero-order-hold control and the
closed-form free-motion state transition matrix (used as an oracle for the
propagation).  A state is a (6,) array [x, y, z, xd, yd, zd], or (N, 6) for a
batch.  The package flies one chief/deputy pair, whose constants
:data:`MEAN_MOTION`, :data:`MASS` and :data:`U_MAX` no function takes as
arguments but ``mlp_act`` (its ``u_max``); :class:`DynamicsParams` is their
read-only record.

The system is linear, so a hold of constant thrust is one affine map of the
state.  One RK4 substep of the linear system, written as its matrix
polynomial (:func:`rk4_zoh_map`), is the only definition of a propagation
substep.  :func:`hold_maps`, the only builder of propagation maps, composes
equal substeps (the augmented-matrix form of zero-order-hold discretisation,
Van Loan 1978) into the cached map of every substep state of a hold; the
simulator, the filter and :func:`step` fly it through one function.

Axes follow the usual Hill/RIC convention: x radial (away from Earth),
y in-track, z cross-track.  SI units throughout (m, m/s, s, rad).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "MEAN_MOTION",
    "MASS",
    "U_MAX",
    "DynamicsParams",
    "DEFAULT_SUBSTEP",
    "cw_matrices",
    "step",
    "rk4_zoh_map",
    "hold_maps",
    "cw_stm",
    "sun_vector",
]

#: Longest propagation substep [s]: :func:`hold_maps` splits every hold into
#: equal substeps no longer than this.  Far below the error floor for this
#: linear system; chosen to divide typical control periods evenly.
DEFAULT_SUBSTEP = 0.2

# hold_maps stores 432 bytes per substep: at most 43 MB for one hold
_MAX_SUBSTEPS = 100_000


#: The one chief/deputy pair: the mean motion of the chief's circular orbit
#: [rad/s], the deputy's mass [kg] and its per-axis thrust limit [N].
MEAN_MOTION = 0.001027
MASS = 12.0
U_MAX = 1.0


@dataclass(frozen=True)
class DynamicsParams:
    """Read-only record of the one chief/deputy pair; it takes no arguments."""

    mean_motion: float = field(default=MEAN_MOTION, init=False)  # [rad/s]
    mass: float = field(default=MASS, init=False)  # [kg]
    u_max: float = field(default=U_MAX, init=False)  # [N] per axis


def _positive(value, name: str, zero: bool = False) -> float:
    """``value`` as a float; a ``ValueError`` unless it is a finite number
    above 0 (at least 0 with ``zero``) and not a bool."""
    try:  # type() in place of isinstance: faster, and neither bool type has subclasses
        if type(value) not in (bool, np.bool_) and (
                value >= 0.0 if zero else value > 0.0) and value < math.inf:
            return float(value)
    except (TypeError, ValueError):  # a string or None; an array of several numbers
        pass
    raise ValueError(f"{name} must be {'non-negative' if zero else 'positive'} "
                     f"and finite, not {value!r}")


def _finite(value, name: str) -> float:
    """``value`` as a float; a ``ValueError`` unless it is a finite number
    and not a bool."""
    try:
        if type(value) not in (bool, np.bool_) and abs(value) < math.inf:
            return float(value)
    except (TypeError, ValueError):  # as in _positive
        pass
    raise ValueError(f"{name} must be a finite number, not {value!r}")


def _vector(value, name: str, size: int) -> np.ndarray:
    """``value`` as a float (size,) array; a ``ValueError`` unless it holds
    ``size`` numbers, all finite."""
    try:
        x = np.asarray(value, dtype=float).reshape(size)
        if all(map(math.isfinite, x.tolist())):
            return x
    except (TypeError, ValueError):  # not numbers, or not ``size`` of them
        pass
    raise ValueError(f"{name} must be finite and hold {size} numbers, not {value!r}")


def _integer(value, name: str, minimum: int) -> None:
    """A ``ValueError`` unless ``value`` is an int or a numpy integer of at
    least ``minimum``; a bool is refused."""
    if type(value) is bool or not (isinstance(value, (int, np.integer)) and value >= minimum):
        raise ValueError(f"{name} must be an integer of at least {minimum}, not {value!r}")


def _flag(value, name: str) -> bool:
    """``value`` as a bool; a ``ValueError`` unless it is a bool or a numpy
    bool."""
    if type(value) not in (bool, np.bool_):
        raise ValueError(f"{name} must be a bool, not {value!r}")
    return bool(value)


def cw_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Return the Clohessy-Wiltshire system pair (A, B) for xdot = A x + B u.

    State order is [x, y, z, xd, yd, zd]; u is the thrust force [N] per axis.
    """
    n = MEAN_MOTION
    A = np.zeros((6, 6))
    A[:3, 3:] = np.eye(3)
    A[3, 0] = 3.0 * n * n
    A[3, 4] = 2.0 * n
    A[4, 3] = -2.0 * n
    A[5, 2] = -n * n
    B = np.zeros((6, 3))
    B[3:, :] = np.eye(3) / MASS
    return A, B


def _clamp(u: np.ndarray, limit: float) -> np.ndarray:
    """``u`` clamped to the box [-limit, limit]: the bits of ``np.clip``
    (a NaN stays NaN, -0.0 stays -0.0) in about half its time."""
    return np.minimum(np.maximum(u, -limit), limit)


def _as_state_matrix(x) -> tuple[np.ndarray, bool]:
    """Finite states of shape (6,) or (N, 6) as a C-contiguous (N, 6) array;
    returns (array, was_single).  Raises ``ValueError`` on any other shape
    and on non-finite entries."""
    arr = np.asarray(x, dtype=float, order="C")
    if arr.shape == (6,):  # one state: checked on Python floats, as _vector does
        if all(map(math.isfinite, arr.tolist())):
            return arr[None, :], True
    elif arr.ndim != 2 or arr.shape[1] != 6:
        raise ValueError(f"states must have shape (6,) or (N, 6), not {arr.shape}")
    elif np.count_nonzero(np.isfinite(arr)) == arr.size:
        return arr, False
    raise ValueError("states must be finite")


def _rk4_increment(h: float) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 substep of the linear system as x(t+h) = x + D @ x + N @ a.

    For linear dynamics the classic four-stage RK4 step collapses to the
    degree-4 Taylor polynomial of the matrix exponential.  D excludes the
    identity so that its small entries keep full relative precision.
    """
    A, _ = cw_matrices()
    I = np.eye(6)
    A2 = A @ A
    A3 = A2 @ A
    D = h * A + (h**2 / 2.0) * A2 + (h**3 / 6.0) * A3 + (h**4 / 24.0) * (A3 @ A)
    E = np.zeros((6, 3))
    E[3:, :] = np.eye(3)
    N = (h * I + (h**2 / 2.0) * A + (h**3 / 6.0) * A2 + (h**4 / 24.0) * A3) @ E
    return D, N


def rk4_zoh_map(h: float) -> tuple[np.ndarray, np.ndarray]:
    """One propagation substep of the linear system as an affine map.

    Returns (M, N) such that x(t+h) = M @ x(t) + N @ a for constant
    acceleration input a [m/s^2]: the classic RK4 step of the linear
    system.  Every propagation in the package composes this substep in
    :func:`hold_maps`.
    """
    D, N = _rk4_increment(h)
    return np.eye(6) + D, N


def _fly(D, S, x, u) -> np.ndarray:
    """Every substep state x + (D_j x + S_j u) of a hold on the maps (J, 6, 6),
    (J, 6, 3) of :func:`hold_maps`: (J, 6) for one state, (N, J, 6) for
    states (N, 6) and thrusts (3,) or (N, 3), one matrix-vector product per
    state and substep.  One state on one map (6, 6), (6, 3) flies to (6,).

    On one map, ``.dot`` reaches the BLAS product of ``@`` without the
    matmul ufunc's dispatch, with the same bits.  On the (J, 6, 6) maps it
    is a different sum and changes the bits, so one state's hold keeps ``@``."""
    if x.ndim == 1:
        if D.ndim == 2:
            return x + (D.dot(x) + S.dot(u))
        return x + (D @ x + S @ u)
    return _add_thrust(x, _free_motion(D, x), S, u)


def _free_motion(D, X) -> np.ndarray:
    """The thrust-free part D_j x (N, J, 6, 1) of the holds of states X (N, 6)."""
    return D @ X[:, None, :, None]


def _add_thrust(X, free, S, u) -> np.ndarray:
    """:func:`_fly` of states X (N, 6) from their ``free`` = :func:`_free_motion`,
    so a state flown under several thrusts is multiplied by D once."""
    return X[:, None] + (free + S @ u[..., None, :, None])[..., 0]


def step(x, u, dt: float) -> np.ndarray:
    """Propagate one 6-state (6,) or states (N, 6) ``dt`` seconds under the
    zero-order-hold thrust ``u`` (3,).

    Each row flies the end of the hold as the simulator and the filter do.
    Raises ``ValueError`` on any other shape, on non-finite input and on
    the ``dt`` that :func:`hold_maps` refuses.
    """
    D, S = _hold_maps(_positive(dt, "dt"))
    X, single = _as_state_matrix(x)
    u = _vector(u, "control", 3)
    if single:
        return _fly(D[-1], S[-1], X[0], u)
    return _fly(D[-1:], S[-1:], X, u)[:, -1]


def hold_maps(period: float) -> tuple[np.ndarray, np.ndarray]:
    """Every substep state of one zero-order hold as an affine map.

    A hold of ``period`` seconds split into J = max(1, ceil(period /
    DEFAULT_SUBSTEP)) equal substeps (:func:`rk4_zoh_map`) under constant
    thrust u [N] reaches the state x + D[j] @ x + S[j] @ u after substep
    j + 1.  The substeps of the augmented 9x9 map are composed one by one,
    each kept as its difference from the identity so no precision is lost
    to the unit diagonal.  Returns (D, S) of shapes (J, 6, 6) and (J, 6, 3),
    cached and read-only.  Raises ``ValueError`` unless ``period`` is a
    positive and finite number, not a bool, and J is at most 100,000.
    """
    return _hold_maps(_positive(period, "period"))


@lru_cache(maxsize=4)
def _hold_maps(period: float) -> tuple[np.ndarray, np.ndarray]:
    ratio = period / DEFAULT_SUBSTEP - 1e-12
    if not ratio <= _MAX_SUBSTEPS:  # refuses an infinite ratio too
        raise ValueError(f"a hold of {ratio:.6g} substeps exceeds {_MAX_SUBSTEPS}")
    substeps = max(1, math.ceil(ratio))
    D_sub, N = _rk4_increment(period / substeps)
    base = np.zeros((9, 9))
    base[:6, :6] = D_sub
    base[:6, 6:] = N / MASS
    D = np.empty((substeps, 6, 6))
    S = np.empty((substeps, 6, 3))
    power = np.zeros((9, 9))
    for j in range(substeps):  # (I + base)(I + power) - I
        power = power + base + base @ power
        D[j], S[j] = power[:6, :6], power[:6, 6:]
    D.setflags(write=False)
    S.setflags(write=False)
    return D, S


def cw_stm(t: float) -> np.ndarray:
    """Closed-form Clohessy-Wiltshire transition matrix Phi(t) at MEAN_MOTION.

    Maps a free-motion (u = 0) state [x, y, z, xd, yd, zd] at time 0 to the
    state at time ``t``.  Exact to machine precision; serves as the oracle
    for the propagation substep.  Raises ``ValueError`` unless ``t`` is a
    finite number, not a bool.
    """
    n = MEAN_MOTION
    nt = n * _finite(t, "t")
    c = math.cos(nt)
    s = math.sin(nt)
    return np.array([
        [4.0 - 3.0 * c, 0.0, 0.0, s / n, 2.0 * (1.0 - c) / n, 0.0],
        [6.0 * (s - nt), 1.0, 0.0, 2.0 * (c - 1.0) / n, (4.0 * s - 3.0 * nt) / n, 0.0],
        [0.0, 0.0, c, 0.0, 0.0, s / n],
        [3.0 * n * s, 0.0, 0.0, c, 2.0 * s, 0.0],
        [6.0 * n * (c - 1.0), 0.0, 0.0, -2.0 * s, 4.0 * c - 3.0, 0.0],
        [0.0, 0.0, -n * s, 0.0, 0.0, c],
    ])


def sun_vector(angle: float) -> np.ndarray:
    """Unit vector from the chief toward the Sun for sun angle ``angle``.

    The Sun rotates in the x-y plane of Hill's frame, so the z component
    is identically zero.  Raises ``ValueError`` unless ``angle`` is a finite
    number, not a bool.
    """
    _finite(angle, "sun angle")
    return np.array([math.cos(angle), math.sin(angle), 0.0])
