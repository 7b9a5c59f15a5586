"""Safety constraints for the inspection task as control barrier functions.

Six barrier functions define the joint safe set:

  h1 = sqrt(2 a_max (|p| - (r_d + r_c))) + rdot     keep-out / braking cone
  h2 = sqrt(2 a_max (r_max - |p|)) - rdot           keep-in  / braking cone
  h3 = nu0 + nu1 |p| - |v|                          distance-scaled speed limit
  h4..h6 = v_max^2 - (xd, yd, zd)^2                 per-axis velocity limits

with rdot = p.v/|p| the range rate (negative when approaching the chief).
Each constraint linearizes into a control-affine row c.u + b >= 0 with
c = L_g h and b = L_f h + alpha(h), alpha(h) = gain*h; :func:`cbf_rows`
returns the six rows of a state as arrays (C, b).  :func:`h_values` and
:func:`cbf_rows` take one state (6,) or a batch (N, 6) and answer in the
same form, without the leading axis for one state.  Values, gradients and
rows come from one pass per state over the terms they share (range, speed,
p.v, the braking-cone roots), as do the hold conditions below and the
gradients the filter linearizes them with.  The rows of one state (6,),
which the filter forms once per decision, come from a pass in Python
floats, without numpy's per-call cost on six-element arrays; a batch
(N, 6) takes the array pass.  The float pass adds its sums in the order
of the array pass (p.v and each row's L_f h in the pairs numpy's einsum
adds), so the two give the same bits and a batch row is its one-state
call.

Outside their nominal domains the square roots extend as odd functions,
sign(s)*sqrt(2 a_max |s|), so a violated constraint reports a meaningful
depth and the filter degrades gracefully.

The sampled-data filter checks nine hold conditions at every substep of a
zero-order hold (:func:`hold_values`).  They are continuously
differentiable, and k1, k3..k9 are non-negative exactly where h1, h3..h6
are, except that k1 also excludes the points inside the keep-out sphere
that the odd extension of h1 admits:

  k1 = 2 a_max (|p| - (r_d + r_c)) - min(rdot, 0)^2   (h1 >= 0, |p| >= r_d + r_c)
  k2 = 2 a (r - |p|) - max(rdot, 0)^2                 (h2 for a = a_max, r = r_max)
  k3 = h3
  k4..k6 = v_max - (xd, yd, zd),  k7..k9 = v_max + (xd, yd, zd)   (h4..h6)

The filter plans k2 on a keep-in cone guarded strictly inside the stated
one (:func:`keep_in_guard`); inside the keep-in sphere the guarded k2 >= 0
implies h2 >= 0.  The guard is needed because the stated
a_max = u_max/m - 3 n^2 r_max - 2 n v_max leaves nothing for the
centripetal term |v_t|^2/|p| of the range acceleration, so the stated set
is not control invariant at the keep-in sphere: at
x = (999.99, 0, 0, 0.0395, 1, 1), with radial speed sqrt(0.02 a_max), every
h_i >= 0 and h2 = 0, yet the best thrust in the +-1 N box gives
dh2/dt = -0.0019.  An axis at its speed limit also blocks the thrust that
would push it further; while the range rate is positive the free axes
still carry at least 1/sqrt(2) of the unit position vector in the 1-norm.
So the braking the box can always deliver is at least
u_max/(sqrt(2) m) - 3 n^2 r_max - 2 sqrt(2) n v_max - 3 v_max^2 / r_max
(0.0499 m/s^2 for the default safety parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import MASS, MEAN_MOTION, U_MAX, _as_state_matrix, _positive, cw_matrices

__all__ = [
    "SafetyParams",
    "DEFAULT_ALPHA_GAINS",
    "NUM_CONSTRAINTS",
    "NUM_HOLD_CONDITIONS",
    "h_values",
    "h_values_batch",
    "cbf_rows",
    "keep_in_guard",
    "hold_values",
    "hold_gradients",
]

NUM_CONSTRAINTS = 6
NUM_HOLD_CONDITIONS = 9

# Linear class-K gains of the continuous-time rows: how fast the filter lets
# each barrier decay toward its boundary at a control instant.  The hold
# conditions, not these gains, keep every barrier non-negative over the
# zero-order hold.  The velocity barriers (h3..h6) use gain * 2 s <= 0.8
# for the filter's one 2 s hold so their riding map contracts without
# overshoot; the braking-cone gains favour tight settling on the keep-out
# boundary.
DEFAULT_ALPHA_GAINS = np.array([1.0, 1.0, 0.4, 0.4, 0.4, 0.4])

_SMOOTH_FLOOR = 1e-6  # floor on norms/radicands at singular points
_SIGNS = np.array([1.0, -1.0])  # keep-out and keep-in sides of a pair
_SIGNS_COL = _SIGNS[:, None]
# Scalars of the passes below as 0-d arrays, which numpy takes without the
# conversion it makes of a Python float on every call: the same values.
_FLOOR = np.array(_SMOOTH_FLOOR)
_ZERO = np.array(0.0)
_INF = np.array(math.inf)
# Gradients of the axis-limit hold conditions k4..k9 = v_max -+ (xd, yd, zd),
# the same at every state.
_VELOCITY = np.arange(3, 6)
_AXIS_LIMIT_GRADIENTS = np.zeros((6, 6))
_AXIS_LIMIT_GRADIENTS[np.arange(6), np.tile(_VELOCITY, 2)] = np.repeat([-1.0, 1.0], 3)
_AXIS_LIMIT_GRADIENTS.setflags(write=False)
# The guarded keep-in cone brakes this much below the braking bound of the
# module docstring [m/s^2], so the linearized hold rows and the RK4
# substeps plan with braking the box can deliver, and ends this far inside
# the keep-in sphere [m].
_KEEP_IN_BRAKE_MARGIN = 0.002
_KEEP_IN_RADIUS_MARGIN = 1.0


@dataclass(frozen=True)
class SafetyParams:
    """Constants of the six safety constraints (defaults per the mission)."""

    a_max: float = 0.078  # [m/s^2] max deceleration available for braking
    r_d: float = 5.0  # [m] deputy radius
    r_c: float = 5.0  # [m] chief radius
    r_max: float = 1000.0  # [m] keep-in radius
    nu0: float = 0.2  # [m/s] speed allowance at the origin
    nu1: float = 2.0 * MEAN_MOTION  # [1/s] speed allowance growth with range
    v_max: float = 1.0  # [m/s] per-axis speed limit

    def __post_init__(self):
        for name in ("a_max", "r_d", "r_c", "r_max", "nu0", "nu1", "v_max"):
            _positive(getattr(self, name), name)
        if not self.r_d + self.r_c < self.r_max:
            raise ValueError("keep-out radius must be smaller than keep-in radius")

    @property
    def collision_radius(self) -> float:
        return self.r_d + self.r_c


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=16)
def _barrier_terms(params: SafetyParams) -> tuple:
    """Cached factors of :func:`_barriers`: with rho the range, (s, o) form
    (rho - (r_d + r_c), r_max - rho, nu0 + nu1 rho) as rho * s + o; then
    2 a_max, a_max and v_max^2; w scales (p_hat, v_hat) into the gradient
    of h3, and -2 v is that of h4..h6."""
    return _read_only(np.array([1.0, -1.0, params.nu1]),
                      np.array([-params.collision_radius, params.r_max, params.nu0]),
                      np.array(2.0 * params.a_max), np.array(params.a_max),
                      np.array(params.v_max**2), np.array([[params.nu1], [-1.0]]),
                      np.array(-2.0))


# factors of cbf_rows: the transposed drift matrix A^T of cw_matrices and the mass
_DRIFT_T, _MASS = _read_only(cw_matrices()[0].T, np.array(MASS))
# the entries (3, 0), (3, 4), (4, 3) and (5, 2) of A, its nonzero entries
# off the identity block, and the gains as floats
_A30, _A34, _A43, _A52 = _DRIFT_T.T[(3, 3, 4, 5), (0, 4, 3, 2)].tolist()
_GAINS = DEFAULT_ALPHA_GAINS.tolist()


@lru_cache(maxsize=16)
def _hold_terms(params: SafetyParams, keep_in=None) -> tuple:
    """Cached factors of :func:`_hold_pass` and :func:`_hold_jacobian` on
    the keep-in cone ``keep_in`` = (a, r), by default (a_max, r_max): with
    rho the range, c * (rho * s + o) is (2 a_max (rho - (r_d + r_c)),
    2 a (r - rho), nu0 + nu1 rho), the terms of k1..k3 without range rate
    and speed; (2 a_max, -2 a) and w scale p_hat in the gradients of k1, k2
    and (p_hat, v_hat) in that of k3; then v_max.  a and r must be positive
    and finite, and r must exceed the keep-out radius r_d + r_c."""
    a_in, r_in = (params.a_max, params.r_max) if keep_in is None else keep_in
    _positive(a_in, "keep-in braking rate")
    if not _positive(r_in, "keep-in radius") > params.collision_radius:
        raise ValueError("the keep-in radius must exceed the keep-out radius "
                         f"{params.collision_radius}, not {r_in!r}")
    return _read_only(np.array([1.0, -1.0, params.nu1]),
                      np.array([-params.collision_radius, r_in, params.nu0]),
                      np.array([2.0 * params.a_max, 2.0 * a_in, 1.0]),
                      np.array([[2.0 * params.a_max], [-2.0 * a_in]]),
                      np.array([[params.nu1], [-1.0]]), np.array(params.v_max))


def _barriers(X: np.ndarray, params: SafetyParams, grad: bool = True):
    """Barrier values h (N, 6) of states X (N, 6) and, with ``grad``, their
    gradients G (N, 6, 6), else None, from one pass over the shared terms:
    range, speed, p.v and the two braking-cone roots.  The gradients floor
    norms and roots at singular points."""
    N = X.shape[0]
    PV = X.reshape(N, 2, 3)
    # range, speed: np.linalg.norm's arithmetic, whose sum of three squares
    # adds them in order
    sq = PV * PV
    norms = sq[..., 0] + sq[..., 1]
    norms += sq[..., 2]
    np.sqrt(norms, out=norms)
    rho = norms[:, 0]
    v = X[:, 3:]
    pv = np.einsum("ij,ij->i", X[:, :3], v)
    s, o, two_a, a_max, v_max2, w, minus_two = _barrier_terms(params)
    # the braking-cone distances rho - (r_d + r_c) and r_max - rho, then
    # nu0 + nu1 rho
    dev = rho[:, None] * s + o
    root = np.sqrt(two_a * np.abs(dev[:, :2]))
    rdot = pv / np.where(rho > _ZERO, rho, _INF)  # 0 at the origin
    h = np.empty((N, NUM_CONSTRAINTS))
    # sign(dev) root, the odd extension of the root
    np.add(np.copysign(root, dev[:, :2]), rdot[:, None] * _SIGNS, out=h[:, :2])
    np.subtract(dev[:, 2], norms[:, 1], out=h[:, 2])
    np.subtract(v_max2, np.square(v), out=h[:, 3:])
    if not grad:
        return h, None
    floored = np.maximum(norms, _FLOOR)
    hats = PV / floored[:, :, None]  # p_hat, v_hat
    p_hat = hats[:, :1]
    rho_f = floored[:, :1]
    # d(rdot)/dp = (v - rdot p_hat)/rho, d(rdot)/dv = p_hat
    drdot_dp = (v - pv[:, None] / rho_f * hats[:, 0]) / rho_f
    # d/d rho of the signed roots (the same on both sides of the boundary)
    q = a_max / np.maximum(root, _FLOOR) * _SIGNS
    G = np.zeros((N, NUM_CONSTRAINTS, 6))
    np.add(q[:, :, None] * p_hat, _SIGNS_COL * drdot_dp[:, None], out=G[:, :2, :3])
    np.multiply(_SIGNS_COL, p_hat, out=G[:, :2, 3:])
    np.multiply(hats, w, out=G[:, 2].reshape(N, 2, 3))  # nu1 p_hat, -v_hat
    np.multiply(v, minus_two, out=G.reshape(N, 36)[:, 21::7])  # -2 v on the diagonal
    return h, G


def _one_state_rows(x: list, params: SafetyParams) -> tuple[np.ndarray, np.ndarray]:
    """The rows (C, b) of :func:`cbf_rows` for one state, six floats, in
    Python floats: the arithmetic of :func:`_barriers` and of the drift and
    L_f h lines of :func:`cbf_rows` for a batch of one, in the same order."""
    if not all(map(math.isfinite, x)):
        raise ValueError("states must be finite")
    p0, p1, p2, v0, v1, v2 = x
    rho = math.sqrt((p0 * p0 + p1 * p1) + p2 * p2)
    speed = math.sqrt((v0 * v0 + v1 * v1) + v2 * v2)
    pv = (p0 * v0 + p2 * v2) + p1 * v1  # einsum's pair order
    a_max, nu1 = params.a_max, params.nu1
    dev0 = rho - params.collision_radius
    dev1 = params.r_max - rho
    root0 = math.sqrt(2.0 * a_max * abs(dev0))
    root1 = math.sqrt(2.0 * a_max * abs(dev1))
    rdot = pv / (rho if rho > 0.0 else math.inf)  # 0 at the origin
    v_max2 = params.v_max ** 2
    h = (math.copysign(root0, dev0) + rdot, math.copysign(root1, dev1) - rdot,
         (rho * nu1 + params.nu0) - speed,
         v_max2 - v0 * v0, v_max2 - v1 * v1, v_max2 - v2 * v2)
    rho_f = max(rho, _SMOOTH_FLOOR)
    speed_f = max(speed, _SMOOTH_FLOOR)
    p_hat = (p0 / rho_f, p1 / rho_f, p2 / rho_f)
    rdot_f = pv / rho_f
    drdot_dp = [(v - rdot_f * e) / rho_f for v, e in zip((v0, v1, v2), p_hat)]
    q0 = a_max / max(root0, _SMOOTH_FLOOR)
    q1 = -(a_max / max(root1, _SMOOTH_FLOOR))
    # the gradients of h1..h3; those of h4..h6 are -2 v on the diagonal
    G = ([q0 * e + d for e, d in zip(p_hat, drdot_dp)] + list(p_hat),
         [q1 * e - d for e, d in zip(p_hat, drdot_dp)] + [-e for e in p_hat],
         [e * nu1 for e in p_hat] + [-v0 / speed_f, -v1 / speed_f, -v2 / speed_f])
    # the drift f = A x, the nonzero products of each row summed in order;
    # the signed zeros that A's zero entries add to the array pass's sums,
    # and einsum's start from +0.0 below, change no bit of the rows
    f0, f1, f2, f3, f4, f5 = (v0, v1, v2, p0 * _A30 + v1 * _A34, v0 * _A43, p2 * _A52)
    # L_f h in einsum's pair order, plus gain * h
    b = [(((g[0] * f0 + g[2] * f2) + g[4] * f4) + ((g[1] * f1 + g[3] * f3) + g[5] * f5))
         + gain * hi for g, gain, hi in zip(G, _GAINS, h)]
    diag = [v0 * -2.0, v1 * -2.0, v2 * -2.0]
    b += [d * f + gain * hi for d, f, gain, hi in zip(diag, (f3, f4, f5), _GAINS[3:], h[3:])]
    C = [g / MASS for g in G[0][3:] + G[1][3:] + G[2][3:]]  # L_g h
    C += (diag[0] / MASS, 0.0, 0.0, 0.0, diag[1] / MASS, 0.0, 0.0, 0.0, diag[2] / MASS)
    return np.array(C).reshape(6, 3), np.array(b)


def h_values(states, params: SafetyParams) -> np.ndarray:
    """Barrier values h1..h6 for one state (6,) or states (N, 6); returns
    (6,) or (N, 6)."""
    X, single = _as_state_matrix(states)
    h = _barriers(X, params, grad=False)[0]
    return h[0] if single else h


def h_values_batch(states, params: SafetyParams) -> np.ndarray:
    """Barrier values for states of shape (N, 6); returns (N, 6)."""
    X, _ = _as_state_matrix(states)
    return _barriers(X, params, grad=False)[0]


def cbf_rows(states, params: SafetyParams) -> tuple[np.ndarray, np.ndarray]:
    """Linearized constraint rows c_i . u + b_i >= 0 for one state (6,) or
    states (N, 6).

    Returns (C, b): C of shape (..., 6, 3) with c_i = L_g h_i and b of
    shape (..., 6) with b_i = L_f h_i + gain_i * h_i, the gains of
    :data:`DEFAULT_ALPHA_GAINS`, without the leading axis for one state.
    """
    arr = np.asarray(states, dtype=float)
    if arr.shape == (6,):
        return _one_state_rows(arr.tolist(), params)
    X, _ = _as_state_matrix(arr)
    h, G = _barriers(X, params)
    # drift f(x) = A x, one row at a time: a batch row is its one-state call
    # (one product over the batch rounds some rows differently)
    f = (X[:, None] @ _DRIFT_T)[:, 0]
    b = np.einsum("nij,nj->ni", G, f)  # L_f h
    b += DEFAULT_ALPHA_GAINS * h
    return G[:, :, 3:] / _MASS, b  # L_g h rows


def keep_in_guard(params: SafetyParams) -> tuple[float, float]:
    """Braking rate a [m/s^2] and radius r [m] of the guarded keep-in cone.

    a is the braking the thrust box can always deliver at the keep-in
    sphere (module docstring) less a small margin, and at most a_max; r is
    r_max less 1 m.  Raises ValueError when no such cone exists: the box
    cannot brake there, or r would not exceed the keep-out radius.
    """
    n = MEAN_MOTION
    braking = (U_MAX / (math.sqrt(2.0) * MASS) - 3.0 * n**2 * params.r_max
               - 2.0 * math.sqrt(2.0) * n * params.v_max
               - 3.0 * params.v_max**2 / params.r_max)
    a_g = min(params.a_max, braking - _KEEP_IN_BRAKE_MARGIN)
    r_g = params.r_max - _KEEP_IN_RADIUS_MARGIN
    if not a_g > 0.0:
        raise ValueError(f"the thrust box cannot brake at the keep-in sphere "
                         f"(guaranteed braking {braking:.4g} m/s^2)")
    if not r_g > params.collision_radius:
        raise ValueError("the keep-in radius must exceed the keep-out radius "
                         f"by more than {_KEEP_IN_RADIUS_MARGIN} m")
    return a_g, r_g


def _hold_pass(X: np.ndarray, terms):
    """Hold conditions K (..., 9) of states X (..., 6), with the
    :func:`_hold_terms` of a keep-in cone, and the terms T that their
    gradients reuse: floored range and speed (..., 2), range rate."""
    shape = X.shape[:-1]
    PV = X.reshape(shape + (2, 3))
    norms = np.sqrt(np.einsum("...i,...i->...", PV, PV))
    floored = np.maximum(norms, _FLOOR)
    v = X[..., 3:]
    rdot = np.einsum("...i,...i->...", X[..., :3], v) / floored[..., 0]
    s, o, c, _, _, v_max = terms
    k = np.empty(shape + (NUM_HOLD_CONDITIONS,))
    # 2 a_max (rho - (r_d + r_c)), 2 a (r - rho), nu0 + nu1 rho, less
    # min(rdot, 0)^2, max(rdot, 0)^2 = min(-rdot, 0)^2 and the speed
    lead = c * (norms[..., :1] * s + o)
    np.subtract(lead[..., :2], np.square(np.minimum(rdot[..., None] * _SIGNS, _ZERO)),
                out=k[..., :2])
    np.subtract(lead[..., 2], norms[..., 1], out=k[..., 2])
    np.subtract(v_max, v, out=k[..., 3:6])
    np.add(v_max, v, out=k[..., 6:9])
    return k, (floored, rdot)


def _hold_jacobian(X: np.ndarray, T, terms) -> np.ndarray:
    """Gradients (..., 3, 6) of k1..k3 at states X (..., 6) from the terms T
    of their :func:`_hold_pass` with the same ``terms`` (those of k4..k9
    are constant)."""
    floored, rdot = T
    hats = X.reshape(X.shape[:-1] + (2, 3)) / floored[..., None]  # p_hat, v_hat
    p_hat = hats[..., :1, :]
    r = rdot[..., None, None]
    drdot_dp = (X[..., None, 3:] - r * p_hat) / floored[..., None, :1]
    # d(-min(rdot, 0)^2)/d(rdot) and d(-max(rdot, 0)^2)/d(rdot)
    w = np.empty(rdot.shape + (2, 1))
    np.minimum(r, _ZERO, out=w[..., :1, :])
    np.maximum(r, _ZERO, out=w[..., 1:, :])
    w *= -2.0
    _, _, _, c, w3, _ = terms
    G = np.empty(X.shape[:-1] + (3, 6))
    np.add(c * p_hat, w * drdot_dp, out=G[..., :2, :3])
    np.multiply(w, p_hat, out=G[..., :2, 3:])
    np.multiply(hats, w3, out=G[..., 2, :].reshape(X.shape[:-1] + (2, 3)))
    return G


def _checked_states(states) -> np.ndarray:
    X = np.asarray(states, dtype=float)
    if X.shape[-1:] != (6,):
        raise ValueError(f"states must have shape (..., 6), not {X.shape}")
    if np.count_nonzero(np.isfinite(X)) != X.size:
        raise ValueError("states must be finite")
    return X


def hold_values(states, params: SafetyParams, keep_in=None) -> np.ndarray:
    """Hold conditions k1..k9 (see the module docstring) for states of shape
    (..., 6); returns (..., 9).  k2 is evaluated on the keep-in cone
    ``keep_in`` = (a, r), by default the stated one (a_max, r_max); the
    filter passes :func:`keep_in_guard`.  Raises ``ValueError`` on any other
    last axis and on non-finite states."""
    return _hold_pass(_checked_states(states), _hold_terms(params, keep_in))[0]


def hold_gradients(states, params: SafetyParams, keep_in=None) -> np.ndarray:
    """Gradients dk_i/dx of :func:`hold_values` for states (..., 6); returns
    (..., 9, 6).  Norms are floored at singular points as in the barrier
    gradients of :func:`cbf_rows`.  Raises ``ValueError`` as
    :func:`hold_values` does."""
    X = _checked_states(states)
    terms = _hold_terms(params, keep_in)
    G = np.empty(X.shape[:-1] + (NUM_HOLD_CONDITIONS, 6))
    G[..., :3, :] = _hold_jacobian(X, _hold_pass(X, terms)[1], terms)
    G[..., 3:, :] = _AXIS_LIMIT_GRADIENTS
    return G
