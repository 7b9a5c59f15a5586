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
rows come from one pass over the terms they share (range, speed, p.v, the
braking-cone roots), written once over two sets of primitives: one
state's six Python floats, which the filter forms once per decision
without numpy's per-call cost on six-element arrays, and the six (N,)
columns of a batch, so a batch row is its one-state call.  Its sums keep
the order of the whole-array formulas the pass was cut down from (the
norms as np.linalg.norm adds them, p.v and each row's L_f h in the pairs
numpy's einsum adds), so both give those formulas' bits.  The hold
conditions below and their gradients also come from one pass.

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
from functools import cached_property

import numpy as np

from .dynamics import MASS, MEAN_MOTION, U_MAX, _as_state_matrix, _flag, _positive, cw_matrices

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
# Scalars of the hold passes as 0-d arrays, which numpy takes without the
# conversion it makes of a Python float on every call: the same values.
_FLOOR = np.array(_SMOOTH_FLOOR)
_ZERO = np.array(0.0)
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
    """Constants of the six safety constraints (defaults per the mission).
    A record builds its hold factors once, on first use, and keeps them
    read-only; only the guarded ones need :func:`keep_in_guard`."""

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

    @cached_property
    def _hold_terms(self) -> tuple:
        """Factors of :func:`_hold_pass` and :func:`_hold_jacobian` on the
        stated keep-in cone (a, r) = (a_max, r_max): with rho the range,
        c * (rho * s + o) is (2 a_max (rho - (r_d + r_c)), 2 a (r - rho),
        nu0 + nu1 rho), the terms of k1..k3 without range rate and speed;
        (2 a_max, -2 a) and w scale p_hat in the gradients of k1, k2 and
        (p_hat, v_hat) in that of k3; then v_max."""
        return self._cone_terms(self.a_max, self.r_max)

    @cached_property
    def _guarded_hold_terms(self) -> tuple:
        """The same on the guarded keep-in cone of :func:`keep_in_guard`."""
        return self._cone_terms(*keep_in_guard(self))

    def _cone_terms(self, a_in: float, r_in: float) -> tuple:
        return _read_only(np.array([1.0, -1.0, self.nu1]),
                          np.array([-self.collision_radius, r_in, self.nu0]),
                          np.array([2.0 * self.a_max, 2.0 * a_in, 1.0]),
                          np.array([[2.0 * self.a_max], [-2.0 * a_in]]),
                          np.array([[self.nu1], [-1.0]]), np.array(self.v_max))


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


# the nonzero entries (3, 0), (3, 4), (4, 3) and (5, 2) of the drift matrix
# A of cw_matrices off its identity block, and the gains, as floats
_A30, _A34, _A43, _A52 = cw_matrices()[0][(3, 3, 4, 5), (0, 4, 3, 2)].tolist()
_GAINS = DEFAULT_ALPHA_GAINS.tolist()
# The primitives of _barrier_pass on one state's floats and on a batch's
# columns: sqrt, copysign, the floors' max, the range-rate divisor (rho, or
# inf at 0), and the packing of its results along an array's last axis.
_FLOATS = (math.sqrt, math.copysign, max, lambda rho: rho if rho > 0.0 else math.inf, np.array)
_COLUMNS = (np.sqrt, np.copysign, np.maximum, lambda rho: np.where(rho > 0.0, rho, math.inf),
            lambda values: np.stack(np.broadcast_arrays(*values), axis=-1))


def _barrier_pass(x, params: SafetyParams, ops, rows: bool = True):
    """Barrier values h1..h6 of a state x = (p0, p1, p2, v0, v1, v2), six
    Python floats with ``ops`` = _FLOATS or six (N,) columns with _COLUMNS.
    With ``rows`` also their gradients G, six rows of six entries (0.0 off
    the diagonal of h4..h6's), and b = L_f h + gain * h of :func:`cbf_rows`.
    The gradients floor norms and roots at singular points."""
    sqrt, copysign, floor, divisor, _ = ops
    p0, p1, p2, v0, v1, v2 = x
    # range and speed add their squares in np.linalg.norm's order, and p.v
    # adds its products in numpy einsum's pairs and from einsum's +0.0
    rho = sqrt((p0 * p0 + p1 * p1) + p2 * p2)
    speed = sqrt((v0 * v0 + v1 * v1) + v2 * v2)
    pv = 0.0 + ((p0 * v0 + p2 * v2) + p1 * v1)
    a_max, nu1 = params.a_max, params.nu1
    dev0 = rho - params.collision_radius
    dev1 = params.r_max - rho
    root0 = sqrt(2.0 * a_max * abs(dev0))
    root1 = sqrt(2.0 * a_max * abs(dev1))
    rdot = pv / divisor(rho)  # 0 at the origin
    v_max2 = params.v_max ** 2
    # sign(dev) root, the odd extension of the root
    h = (copysign(root0, dev0) + rdot, copysign(root1, dev1) - rdot,
         (rho * nu1 + params.nu0) - speed,
         v_max2 - v0 * v0, v_max2 - v1 * v1, v_max2 - v2 * v2)
    if not rows:
        return h
    rho_f = floor(rho, _SMOOTH_FLOOR)
    speed_f = floor(speed, _SMOOTH_FLOOR)
    p_hat = (p0 / rho_f, p1 / rho_f, p2 / rho_f)
    rdot_f = pv / rho_f
    # d(rdot)/dp = (v - rdot p_hat)/rho, d(rdot)/dv = p_hat
    drdot_dp = [(v - rdot_f * e) / rho_f for v, e in zip((v0, v1, v2), p_hat)]
    # d/d rho of the signed roots (the same on both sides of the boundary)
    q0 = a_max / floor(root0, _SMOOTH_FLOOR)
    q1 = -(a_max / floor(root1, _SMOOTH_FLOOR))
    d0, d1, d2 = v0 * -2.0, v1 * -2.0, v2 * -2.0  # h4..h6's gradients, -2 v
    G = ([q0 * e + d for e, d in zip(p_hat, drdot_dp)] + list(p_hat),
         [q1 * e - d for e, d in zip(p_hat, drdot_dp)] + [-e for e in p_hat],
         [e * nu1 for e in p_hat] + [-v0 / speed_f, -v1 / speed_f, -v2 / speed_f],
         (0.0, 0.0, 0.0, d0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, d1, 0.0),
         (0.0, 0.0, 0.0, 0.0, 0.0, d2))
    # the drift f = A x, the nonzero products of each row summed in order
    f0, f1, f2, f3, f4, f5 = (v0, v1, v2, p0 * _A30 + v1 * _A34, v0 * _A43, p2 * _A52)
    # L_f h in einsum's pair order (one term for h4..h6), plus gain * h
    lf = [((g[0] * f0 + g[2] * f2) + g[4] * f4) + ((g[1] * f1 + g[3] * f3) + g[5] * f5)
          for g in G[:3]] + [d0 * f3, d1 * f4, d2 * f5]
    return h, G, [lf_i + gain * hi for lf_i, gain, hi in zip(lf, _GAINS, h)]


def _state_input(states) -> tuple:
    """One state (6,) as six Python floats with _FLOATS, or finite states
    (N, 6) as their six (N,) columns with _COLUMNS."""
    arr = np.asarray(states, dtype=float)
    if arr.shape != (6,):
        return _as_state_matrix(arr)[0].T, _COLUMNS
    x = arr.tolist()
    if not all(map(math.isfinite, x)):
        raise ValueError("states must be finite")
    return x, _FLOATS


def h_values(states, params: SafetyParams) -> np.ndarray:
    """Barrier values h1..h6 for one state (6,) or states (N, 6); returns
    (6,) or (N, 6)."""
    x, ops = _state_input(states)
    return ops[-1](_barrier_pass(x, params, ops, rows=False))


def h_values_batch(states, params: SafetyParams) -> np.ndarray:
    """Barrier values for states of shape (N, 6); returns (N, 6)."""
    X, _ = _as_state_matrix(states)
    return _COLUMNS[-1](_barrier_pass(X.T, params, _COLUMNS, rows=False))


def cbf_rows(states, params: SafetyParams) -> tuple[np.ndarray, np.ndarray]:
    """Linearized constraint rows c_i . u + b_i >= 0 for one state (6,) or
    states (N, 6).

    Returns (C, b): C of shape (..., 6, 3) with c_i = L_g h_i and b of
    shape (..., 6) with b_i = L_f h_i + gain_i * h_i, the gains of
    :data:`DEFAULT_ALPHA_GAINS`, without the leading axis for one state.
    """
    x, ops = _state_input(states)
    _, G, b = _barrier_pass(x, params, ops)
    pack = ops[-1]
    C = pack([c for g in G for c in g[3:]]) / MASS  # L_g h
    return C.reshape(C.shape[:-1] + (6, 3)), pack(b)


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
    """Hold conditions K (..., 9) of states X (..., 6), with the hold
    factors ``terms`` of a keep-in cone (:attr:`SafetyParams._hold_terms`
    or :attr:`SafetyParams._guarded_hold_terms`), and the terms T that their
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


def _checked_states(states, params: SafetyParams, guarded) -> tuple:
    """Finite states X (..., 6) and the hold factors of their keep-in cone."""
    X = np.asarray(states, dtype=float)
    if X.shape[-1:] != (6,):
        raise ValueError(f"states must have shape (..., 6), not {X.shape}")
    if np.count_nonzero(np.isfinite(X)) != X.size:
        raise ValueError("states must be finite")
    return X, params._guarded_hold_terms if _flag(guarded, "guarded") else params._hold_terms


def hold_values(states, params: SafetyParams, guarded: bool = False) -> np.ndarray:
    """Hold conditions k1..k9 (see the module docstring) for states of shape
    (..., 6); returns (..., 9).  k2 is evaluated on the stated keep-in cone
    (a_max, r_max), or with ``guarded`` on the cone of :func:`keep_in_guard`
    that the filter plans.  Raises ``ValueError`` on any other last axis, on
    non-finite states, on a ``guarded`` that is not a bool and, guarded, as
    :func:`keep_in_guard` does."""
    return _hold_pass(*_checked_states(states, params, guarded))[0]


def hold_gradients(states, params: SafetyParams, guarded: bool = False) -> np.ndarray:
    """Gradients dk_i/dx of :func:`hold_values` for states (..., 6) on the
    same cone; returns (..., 9, 6).  Norms are floored at singular points as
    in the barrier gradients of :func:`cbf_rows`.  Raises ``ValueError`` as
    :func:`hold_values` does."""
    X, terms = _checked_states(states, params, guarded)
    G = np.empty(X.shape[:-1] + (NUM_HOLD_CONDITIONS, 6))
    G[..., :3, :] = _hold_jacobian(X, _hold_pass(X, terms)[1], terms)
    G[..., 3:, :] = _AXIS_LIMIT_GRADIENTS
    return G
