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
gradients the filter linearizes them with.

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
(0.0499 m/s^2 for the default parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import DynamicsParams, _as_state_matrix, cw_matrices

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
# zero-order hold.  The velocity barriers (h3..h6) use gain * period <= 0.8
# at the default 0.5 Hz control rate so their riding map contracts without
# overshoot; the braking-cone gains favour tight settling on the keep-out
# boundary.
DEFAULT_ALPHA_GAINS = np.array([1.0, 1.0, 0.4, 0.4, 0.4, 0.4])

_SMOOTH_FLOOR = 1e-6  # floor on norms/radicands at singular points
_SIGNS = np.array([1.0, -1.0])  # keep-out and keep-in sides of a pair
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
    nu1: float = 2.0 * 0.001027  # [1/s] speed allowance growth with range
    v_max: float = 1.0  # [m/s] per-axis speed limit

    def __post_init__(self):
        vals = (self.a_max, self.r_d, self.r_c, self.r_max,
                self.nu0, self.nu1, self.v_max)
        if not all(0.0 < v < math.inf for v in vals):
            raise ValueError("all safety parameters must be positive and finite")
        if not self.r_d + self.r_c < self.r_max:
            raise ValueError("keep-out radius must be smaller than keep-in radius")

    @property
    def collision_radius(self) -> float:
        return self.r_d + self.r_c


@lru_cache(maxsize=16)
def _drift(dyn: DynamicsParams) -> np.ndarray:
    """The drift matrix A of :func:`cw_matrices`, cached and read-only."""
    A, _ = cw_matrices(dyn)
    A.setflags(write=False)
    return A


def _barriers(X: np.ndarray, params: SafetyParams, grad: bool = True):
    """Barrier values h (N, 6) of states X (N, 6) and, with ``grad``, their
    gradients G (N, 6, 6), else None, from one pass over the shared terms:
    range, speed, p.v and the two braking-cone roots.  The gradients floor
    norms and roots at singular points."""
    N = X.shape[0]
    PV = X.reshape(N, 2, 3)
    norms = np.linalg.norm(PV, axis=2)  # range, speed
    rho = norms[:, 0]
    v = X[:, 3:]
    pv = np.einsum("ij,ij->i", X[:, :3], v)
    # the braking-cone distances rho - (r_d + r_c) and r_max - rho
    dev = rho[:, None] * _SIGNS + (-params.collision_radius, params.r_max)
    root = np.sqrt(2.0 * params.a_max * np.abs(dev))
    rdot = pv / np.where(rho > 0.0, rho, np.inf)  # 0 at the origin
    h = np.empty((N, NUM_CONSTRAINTS))
    h[:, :2] = np.sign(dev) * root + rdot[:, None] * _SIGNS
    h[:, 2] = params.nu0 + params.nu1 * rho - norms[:, 1]
    h[:, 3:] = params.v_max**2 - v**2
    if not grad:
        return h, None
    floored = np.maximum(norms, _SMOOTH_FLOOR)
    hats = PV / floored[:, :, None]  # p_hat, v_hat
    p_hat = hats[:, 0]
    rho_f = floored[:, :1]
    # d(rdot)/dp = (v - rdot p_hat)/rho, d(rdot)/dv = p_hat
    drdot_dp = (v - (pv / rho_f[:, 0])[:, None] * p_hat) / rho_f
    # d/d rho of the signed roots (the same on both sides of the boundary)
    q = params.a_max / np.maximum(root, _SMOOTH_FLOOR)
    G = np.zeros((N, NUM_CONSTRAINTS, 6))
    G[:, :2, :3] = (q * _SIGNS)[:, :, None] * p_hat[:, None] \
        + _SIGNS[:, None] * drdot_dp[:, None]
    G[:, :2, 3:] = _SIGNS[:, None] * p_hat[:, None]
    G[:, 2, :3] = params.nu1 * p_hat
    G[:, 2, 3:] = -hats[:, 1]
    G[:, _VELOCITY, _VELOCITY] = -2.0 * v
    return h, G


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


def cbf_rows(states, params: SafetyParams,
             dyn: DynamicsParams) -> tuple[np.ndarray, np.ndarray]:
    """Linearized constraint rows c_i . u + b_i >= 0 for one state (6,) or
    states (N, 6).

    Returns (C, b): C of shape (..., 6, 3) with c_i = L_g h_i and b of
    shape (..., 6) with b_i = L_f h_i + gain_i * h_i, the gains of
    :data:`DEFAULT_ALPHA_GAINS`, without the leading axis for one state.
    """
    X, single = _as_state_matrix(states)
    h, G = _barriers(X, params)
    f = X @ _drift(dyn).T  # drift f(x) = A x, row-wise
    Lf = np.einsum("nij,nj->ni", G, f)
    C = G[:, :, 3:] / dyn.mass  # L_g h rows
    b = Lf + DEFAULT_ALPHA_GAINS * h
    return (C[0], b[0]) if single else (C, b)


def keep_in_guard(params: SafetyParams, dyn: DynamicsParams) -> tuple[float, float]:
    """Braking rate a [m/s^2] and radius r [m] of the guarded keep-in cone.

    a is the braking the thrust box can always deliver at the keep-in
    sphere (module docstring) less a small margin, and at most a_max; r is
    r_max less 1 m.  Raises ValueError when no such cone exists: the box
    cannot brake there, or r would not exceed the keep-out radius.
    """
    n = dyn.mean_motion
    braking = (dyn.u_max / (math.sqrt(2.0) * dyn.mass) - 3.0 * n**2 * params.r_max
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


def _hold_pass(X: np.ndarray, params: SafetyParams, keep_in=None):
    """Hold conditions K (..., 9) of states X (..., 6) and the terms T that
    their gradients reuse: floored range and speed (..., 2), range rate."""
    PV = X.reshape(X.shape[:-1] + (2, 3))
    norms = np.sqrt(np.einsum("...i,...i->...", PV, PV))
    rho = norms[..., 0]
    floored = np.maximum(norms, _SMOOTH_FLOOR)
    rdot = np.einsum("...i,...i->...", X[..., :3], X[..., 3:]) / floored[..., 0]
    a_in, r_in = (params.a_max, params.r_max) if keep_in is None else keep_in
    k = np.empty(X.shape[:-1] + (NUM_HOLD_CONDITIONS,))
    k[..., 0] = 2.0 * params.a_max * (rho - params.collision_radius) \
        - np.minimum(rdot, 0.0) ** 2
    k[..., 1] = 2.0 * a_in * (r_in - rho) - np.maximum(rdot, 0.0) ** 2
    k[..., 2] = params.nu0 + params.nu1 * rho - norms[..., 1]
    k[..., 3:6] = params.v_max - X[..., 3:]
    k[..., 6:9] = params.v_max + X[..., 3:]
    return k, (floored, rdot)


def _hold_jacobian(X: np.ndarray, T, params: SafetyParams,
                   keep_in=None) -> np.ndarray:
    """Gradients (..., 3, 6) of k1..k3 at states X (..., 6) from the terms T
    of their :func:`_hold_pass` (those of k4..k9 are constant)."""
    floored, rdot = T
    hats = X.reshape(X.shape[:-1] + (2, 3)) / floored[..., None]  # p_hat, v_hat
    p_hat = hats[..., 0, :]
    rdot = rdot[..., None]
    a_in = params.a_max if keep_in is None else keep_in[0]
    drdot_dp = (X[..., 3:] - rdot * p_hat) / floored[..., :1]
    w1 = -2.0 * np.minimum(rdot, 0.0)  # d(-min(rdot, 0)^2)/d(rdot)
    w2 = -2.0 * np.maximum(rdot, 0.0)  # d(-max(rdot, 0)^2)/d(rdot)
    G = np.empty(X.shape[:-1] + (3, 6))
    G[..., 0, :3] = 2.0 * params.a_max * p_hat + w1 * drdot_dp
    G[..., 0, 3:] = w1 * p_hat
    G[..., 1, :3] = -2.0 * a_in * p_hat + w2 * drdot_dp
    G[..., 1, 3:] = w2 * p_hat
    G[..., 2, :3] = params.nu1 * p_hat
    G[..., 2, 3:] = -hats[..., 1, :]
    return G


def hold_values(states, params: SafetyParams, keep_in=None) -> np.ndarray:
    """Hold conditions k1..k9 (see the module docstring) for states of shape
    (..., 6); returns (..., 9).  k2 is evaluated on the keep-in cone
    ``keep_in`` = (a, r), by default the stated one (a_max, r_max); the
    filter passes :func:`keep_in_guard`."""
    return _hold_pass(np.asarray(states, dtype=float), params, keep_in)[0]


def hold_gradients(states, params: SafetyParams, keep_in=None) -> np.ndarray:
    """Gradients dk_i/dx of :func:`hold_values` for states (..., 6); returns
    (..., 9, 6).  Norms are floored at singular points as in the barrier
    gradients of :func:`cbf_rows`."""
    X = np.asarray(states, dtype=float)
    G = np.empty(X.shape[:-1] + (NUM_HOLD_CONDITIONS, 6))
    G[..., :3, :] = _hold_jacobian(X, _hold_pass(X, params, keep_in)[1], params, keep_in)
    G[..., 3:, :] = _AXIS_LIMIT_GRADIENTS
    return G
