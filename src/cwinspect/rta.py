"""Sampled-data Active Set Invariance Filter: minimally modify a desired thrust.

The filtered thrust is held constant over one control period (zero-order
hold) while the plant is integrated in equal RK4 substeps.  The
Clohessy-Wiltshire system is linear, so every substep state of the hold is
affine in the held thrust, x_j = P_j x + S_j u
(:func:`cwinspect.dynamics.hold_maps`).  The filter returns the thrust
closest to u_des that

  * satisfies the six continuous-time barrier rows c_i.u + b_i >= 0 at x
    (:func:`cwinspect.safety.cbf_rows`),
  * keeps the nine hold conditions of :func:`cwinspect.safety.hold_values`,
    and with them every barrier h1..h6, non-negative at every substep state
    x_1..x_J, with the keep-in cone guarded strictly inside the stated one
    (:func:`cwinspect.safety.keep_in_guard`),
  * lies in the per-axis thrust box |u_k| <= u_max.

The axis-limit conditions are exact linear rows in u.  The others are
linearized about the hold flown by the current iterate, starting from the
optimum over the continuous rows alone, and the QP is solved again
(sequential linearization) until the exact substep values hold.  Each QP is
solved exactly by a dual active-set method (Goldfarb & Idnani 1983).

A condition already violated at x need only not get worse over the hold.
When the linearized QP admits no thrust, or eight linearizations do not
reach the exact hold conditions, the filter relaxes, in this order: the
continuous rows (those of a state outside the guarded set can demand more
recovery than the box allows, so such a state starts without them), then
the keep-in guard, and last returns the least-violation thrust of
:func:`infeasible_fallback`.  A result is reported feasible when its thrust
meets the continuous rows and its hold the hold conditions; for a state
inside the guarded set it then keeps every h_i >= 0 at every substep of the
hold it was computed for.  Between substeps, or when the plant departs from
the model (sensing noise, disturbances), nothing is promised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsParams, RelativeState, hold_maps
from .safety import (NUM_HOLD_CONDITIONS, SafetyParams, cbf_rows,
                     hold_gradients, hold_values, keep_in_guard)

__all__ = [
    "DEFAULT_PERIOD",
    "DEFAULT_SUBSTEPS",
    "FilterResult",
    "solve_qp",
    "infeasible_fallback",
    "filter_control",
    "filter_control_batch",
]

#: Hold of the default 0.5 Hz control rate [s] and its 5 Hz RK4 substeps.
DEFAULT_PERIOD = 2.0
DEFAULT_SUBSTEPS = 10

_FEAS_TOL = 1e-9  # primal feasibility slack accepted by the QP
_INTERVENTION_TOL = 1e-9
_PENALTY_WEIGHT = 1e-6  # tie-break weight pulling the fallback toward u_des
# The exact check asks each hold condition for min(0, k0), with k0 its value
# at x.  The linearized rows ask at substep j of J for min(m, k0 + m j / J)
# plus twice the QP's tolerance, with m = _HOLD_MARGIN for k1..k3, which are
# nonlinear in the held thrust, and m = 0 for the exact axis-limit rows: a
# margin that absorbs the error of a linearization, so that most holds pass
# the exact check after one, and that grows over the hold as the reachable
# change of a condition does.  For k1 it keeps a deputy at rest 6 mm outside
# the keep-out sphere.
_HOLD_MARGIN = 1e-3
_MARGINS = np.where(np.arange(NUM_HOLD_CONDITIONS) < 3, _HOLD_MARGIN, 0.0)
_MAX_LINEARIZATIONS = 8
_MAX_QP_ITER = 100
# What the filter enforces, (keep-in guarded, continuous rows), in the order
# it relaxes them when the linearized QP admits no thrust.
_STAGES = ((True, True), (True, False), (False, False))
_BOX = np.vstack([-np.eye(3), np.eye(3)])


@dataclass
class FilterResult:
    """Outcome of one filter evaluation."""

    u_act: np.ndarray  # (3,) [N]
    intervened: bool
    deviation: float  # ||u_des - u_act||_2 after box pre-clamp [N]
    # constraint indices: continuous rows 0..5, hold condition i at substep
    # j (from 0) is row 6 + 9 j + i, then the box faces as in solve_qp
    active_set: tuple
    feasible: bool
    slack_used: np.ndarray  # per continuous row violation max(0, -(c.u+b)) at u_act


def _row_arrays(rows) -> tuple[np.ndarray, np.ndarray]:
    C = np.asarray(rows[0], dtype=float).reshape(-1, 3)
    b = np.asarray(rows[1], dtype=float).reshape(-1)
    if not (np.isfinite(C).all() and np.isfinite(b).all()):
        raise ValueError("constraint rows must be finite")
    return C, b


def _dot(x, y) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _solve_gram(G, rhs) -> list:
    """Solve the symmetric k x k system G r = rhs, k <= 3, by Cramer's rule."""
    if len(rhs) == 1:
        return [rhs[0] / G[0][0]]
    if len(rhs) == 2:
        (a, b), (_, c) = G
        det = a * c - b * b
        return [(rhs[0] * c - rhs[1] * b) / det, (rhs[1] * a - rhs[0] * b) / det]
    (a, b, c), (_, e, f), (_, _, i) = G
    m00, m01, m02 = e * i - f * f, c * f - b * i, b * f - c * e
    m11, m12, m22 = a * i - c * c, b * c - a * f, a * e - b * b
    det = a * m00 + b * m01 + c * m02
    r0, r1, r2 = rhs
    return [(m00 * r0 + m01 * r1 + m02 * r2) / det,
            (m01 * r0 + m11 * r1 + m12 * r2) / det,
            (m02 * r0 + m12 * r1 + m22 * r2) / det]


def _dual_active_set(u0: np.ndarray, A: np.ndarray, d: np.ndarray):
    """min 0.5 ||u - u0||^2 subject to A u >= d, for u in R^3.

    Goldfarb-Idnani dual method with the identity Hessian: start from the
    unconstrained minimizer, repeatedly add the most violated constraint and
    drop active ones whose multiplier would turn negative.  At most three
    linearly independent normals are active, so the projections are 3-vector
    arithmetic in Python floats.  Returns (u, active indices, feasible).
    """
    slack = A @ u0 - d
    p = int(np.argmin(slack))
    if slack[p] >= -_FEAS_TOL:
        return u0.copy(), (), True
    rows = A.tolist()
    u = u0.tolist()
    active, lam, normals = [], [], []
    for _ in range(_MAX_QP_ITER):
        a = rows[p]
        aa = _dot(a, a)
        lam_p = 0.0
        while True:
            if normals:
                G = [[_dot(ni, nj) for nj in normals] for ni in normals]
                r = _solve_gram(G, [_dot(ni, a) for ni in normals])
            else:
                r = []
            if len(normals) == 3:
                z = (0.0, 0.0, 0.0)  # three independent normals span R^3
            else:
                z = [a[c] - sum(rk * nk[c] for rk, nk in zip(r, normals))
                     for c in range(3)]
            zz = _dot(z, z)
            # partial step: the first active multiplier to reach zero
            t_drop, drop = math.inf, -1
            for k, rk in enumerate(r):
                if rk > 1e-12 and lam[k] / rk < t_drop:
                    t_drop, drop = lam[k] / rk, k
            # full step: constraint p becomes active
            t_add = (float(d[p]) - _dot(a, u)) / zz if zz > 1e-12 * aa else math.inf
            t = min(t_drop, t_add)
            if t == math.inf:
                return None, (), False
            if t_add < math.inf:
                u = [u[c] + t * z[c] for c in range(3)]
            lam = [lk - t * rk for lk, rk in zip(lam, r)]
            lam_p += t
            if t_add <= t_drop:
                active.append(p)
                lam.append(lam_p)
                normals.append(a)
                break
            del active[drop], lam[drop], normals[drop]
        u_arr = np.array(u)
        slack = A @ u_arr - d
        p = int(np.argmin(slack))
        if slack[p] >= -_FEAS_TOL:
            return u_arr, tuple(sorted(active)), True
    return None, (), False  # cycling under rounding: treat as no solution


def solve_qp(u_des, rows, u_max: float):
    """Exact minimizer of ||u - u_des|| over the rows and the thrust box.

    ``rows`` is a tuple (C, b) with C (N, 3) and b (N,).  Returns
    (u, active_set, feasible); ``u`` is None when the intersection is
    empty.  Constraint indices in ``active_set`` are the row
    index for barrier rows, then N..N+2 for the upper box faces (+x,+y,+z)
    and N+3..N+5 for the lower faces.  A request that already satisfies
    every constraint is returned unchanged with an empty active set.
    """
    u_des = np.asarray(u_des, dtype=float).reshape(3)
    if not np.isfinite(u_des).all():
        raise ValueError("u_des must be finite")
    C, b = _row_arrays(rows)
    # constraints in the uniform form a_j . u >= d_j
    A = np.concatenate([C, _BOX])
    d = np.concatenate([-b, np.full(6, -u_max)])
    return _dual_active_set(u_des, A, d)


def infeasible_fallback(u_des, rows, u_max: float) -> np.ndarray:
    """Least-violation control over the thrust box.

    Minimizes sum_i max(0, -(c_i.u + b_i))^2 + 1e-6 ||u - u_des||^2 subject
    to |u_j| <= u_max.  Coincides with :func:`solve_qp` to about 1e-6 when
    the rows are actually feasible.
    """
    # imported here: scipy.optimize costs ~0.3 s and tens of MB at import,
    # and the fallback is the only user of it
    from scipy.optimize import minimize

    u_des = np.asarray(u_des, dtype=float).reshape(3)
    C, b = _row_arrays(rows)

    def objective(u):
        viol = np.maximum(0.0, -(C @ u + b))
        du = u - u_des
        f = np.dot(viol, viol) + _PENALTY_WEIGHT * np.dot(du, du)
        g = -2.0 * (C.T @ viol) + 2.0 * _PENALTY_WEIGHT * du
        return f, g

    x0 = np.clip(u_des, -u_max, u_max)
    res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                   bounds=[(-u_max, u_max)] * 3,
                   options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 500})
    return np.asarray(res.x, dtype=float)


def _requested_holds(X, U, free, S2, idx, params, keep_in):
    """Holds flown by the requests of the states ``idx`` (k, J, 6), their hold
    conditions (k, J, 9) and the conditions at the states (k, 1, 9)."""
    F = free[idx]
    H = (F + U[idx] @ S2.T).reshape(len(F), len(S2) // 6, 6)
    K = hold_values(np.concatenate([X[idx, None], H], axis=1), params, keep_in)
    return H, K[:, 1:], K[:, :1]


def _hold_qp(U, free, C6, b6, idx, stage, keep_in, H, K, K0, params, dyn, S,
             S2, out):
    """Sequential linearization of the hold conditions for the states
    ``idx`` at one stage of :data:`_STAGES`, with k2 on the keep-in cone
    ``keep_in``, given the holds ``H`` flown by their requests and their
    conditions ``K`` (see :func:`_requested_holds`).  Writes each result into
    ``out`` = (U_act, active, feasible) and returns the states for which no
    thrust was found: their linearized QP admits none, or no linearization
    reaches the exact hold conditions.  At the last stage those get the
    least-violation thrust instead."""
    U_act, active, feasible = out
    with_rows = _STAGES[stage][1]
    floor = np.minimum(0.0, K0)
    ramp = np.arange(1, len(S) + 1)[:, None] / len(S)
    target = np.minimum(_MARGINS, K0 + _MARGINS * ramp) + 2.0 * _FEAS_TOL
    n_rows = C6.shape[1] + len(S) * NUM_HOLD_CONDITIONS  # the box faces follow
    if with_rows:
        C_cont, b_cont = C6[idx], b6[idx]
    else:  # rows that never bind, keeping the row numbering
        C_cont, b_cont = np.zeros_like(C6[idx]), np.ones_like(b6[idx])
    u = U[idx].copy()
    infeasible = []

    def unsolved(s, C, b):
        """No thrust found for position ``s``: pass it to the next stage, or
        at the last give it the least-violation thrust over the rows (C, b)
        and the continuous rows."""
        i = idx[s]
        if stage < len(_STAGES) - 1:
            infeasible.append(i)
            active[i] = ()
        else:
            C_all = np.vstack([C6[i], C])
            b_all = np.concatenate([b6[i], b])
            U_act[i] = infeasible_fallback(U[i], (C_all, b_all), dyn.u_max)
            active[i], feasible[i] = (), False

    def solved(s, C, b, rows) -> bool:
        """Solve the QP over rows ``rows`` of (C, b) for position ``s``."""
        i = idx[s]
        u_new, act, ok = solve_qp(U[i], (C[rows], b[rows]), dyn.u_max)
        if ok:
            u[s] = u_new
            active[i] = tuple(int(rows[a]) if a < len(rows) else n_rows + a - len(rows)
                              for a in act)
        else:
            unsolved(s, C[rows], b[rows])
        return ok

    def holds(todo):
        H = (free[idx[todo]] + u[todo] @ S2.T).reshape(len(todo), len(S), 6)
        return H, hold_values(H, params, keep_in)

    todo = np.arange(len(idx))  # positions in idx still being solved
    if with_rows:
        # The optimum over the continuous rows alone is the optimum over all
        # rows when its hold keeps the conditions, and otherwise a point to
        # linearize at that is closer to the solution than the request.
        cont = np.arange(C6.shape[1])
        todo = np.array([s for s in todo if solved(s, C_cont[s], b_cont[s], cont)],
                        dtype=int)
        H, K = holds(todo)
    for n_linearized in range(_MAX_LINEARIZATIONS + 1):
        held = (K >= floor[todo]).all(axis=(1, 2))
        U_act[idx[todo[held]]] = u[todo[held]]
        todo, H, K = todo[~held], H[~held], K[~held]
        if not todo.size:
            break
        C_hold = np.einsum("njkd,jde->njke", hold_gradients(H, params, keep_in), S)
        C_hold = C_hold.reshape(len(todo), -1, 3)
        b_hold = ((K - target[todo]).reshape(len(todo), -1)
                  - np.einsum("nrk,nk->nr", C_hold, u[todo]))
        C = np.concatenate([C_cont[todo], C_hold], axis=1)
        b = np.concatenate([b_cont[todo], b_hold], axis=1)
        # rows that no thrust in the box can violate never bind
        live = b < dyn.u_max * np.abs(C).sum(axis=2)
        if n_linearized == _MAX_LINEARIZATIONS:
            # no linearization reached the exact hold conditions
            for t, s in enumerate(todo):
                unsolved(s, C[t, live[t]], b[t, live[t]])
            break
        todo = np.array([s for t, s in enumerate(todo)
                         if solved(s, C[t], b[t], np.flatnonzero(live[t]))], dtype=int)
        H, K = holds(todo)
    return np.array(infeasible, dtype=int)


def _filter_states(X, U, C6, b6, params: SafetyParams, dyn: DynamicsParams,
                   period, substeps):
    """The filter for states X (n, 6), clamped requests U (n, 3) and their
    continuous rows C6 (n, 6, 3), b6 (n, 6).  Returns (U_act, active list,
    feasible)."""
    guard = keep_in_guard(params, dyn)
    P, S = hold_maps(dyn, float(period), int(substeps))
    S2 = S.reshape(-1, 3)
    free = X @ P.reshape(-1, 6).T
    H, K, K0 = _requested_holds(X, U, free, S2, slice(None), params, guard)
    admissible = ((np.einsum("nij,nj->ni", C6, U) + b6 >= -_FEAS_TOL).all(axis=1)
                  & (K >= np.minimum(0.0, K0)).all(axis=(1, 2)))
    out = (U.copy(), [()] * len(X), np.ones(len(X), dtype=bool))
    pending = np.flatnonzero(~admissible)
    if not pending.size:
        return out
    # The rows of a state outside the guarded set can demand more recovery
    # than the thrust box allows: such a state starts at the second stage.
    stage_of = (K0[pending] < 0.0).any(axis=(1, 2)).astype(int)
    for stage, (guarded, _) in enumerate(_STAGES):
        idx = pending[stage_of == stage]
        if not idx.size:
            continue
        if guarded:
            H_i, K_i, K0_i = H[idx], K[idx], K0[idx]
        else:
            H_i, K_i, K0_i = _requested_holds(X, U, free, S2, idx, params, None)
        failed = _hold_qp(U, free, C6, b6, idx, stage, guard if guarded else None,
                          H_i, K_i, K0_i, params, dyn, S, S2, out)
        stage_of[np.isin(pending, failed)] = stage + 1
    U_act, _, feasible = out
    feasible[pending] &= (np.einsum("nij,nj->ni", C6[pending], U_act[pending])
                          + b6[pending] >= -_FEAS_TOL).all(axis=1)
    return out


def _clamped_requests(u_des, dyn: DynamicsParams) -> np.ndarray:
    U = np.asarray(u_des, dtype=float)
    if not np.isfinite(U).all():
        raise ValueError("u_des must be finite")
    return np.clip(U, -dyn.u_max, dyn.u_max)


def filter_control(state, u_des, params: SafetyParams, dyn: DynamicsParams,
                   alphas=None, period: float = DEFAULT_PERIOD,
                   substeps: int = DEFAULT_SUBSTEPS) -> FilterResult:
    """Filter ``u_des`` for one state and a hold of ``period`` seconds split
    into ``substeps`` equal RK4 substeps.

    ``u_des`` is clamped to the thrust box first so the reported deviation
    measures distance from an admissible request.
    """
    u_des = _clamped_requests(np.reshape(u_des, 3), dyn)
    x = state.vector() if isinstance(state, RelativeState) else \
        np.asarray(state, dtype=float).reshape(6)
    if not np.isfinite(x).all():
        raise ValueError("state must be finite")
    C, b = cbf_rows(x, params, dyn, alphas)
    U, active, feasible = _filter_states(x[None, :], u_des[None, :], C[None],
                                         b[None], params, dyn, period, substeps)
    u = U[0]
    deviation = float(np.linalg.norm(u - u_des))
    return FilterResult(
        u_act=u,
        intervened=deviation > _INTERVENTION_TOL,
        deviation=deviation,
        active_set=active[0],
        feasible=bool(feasible[0]),
        slack_used=np.maximum(0.0, -(C @ u + b)),
    )


def filter_control_batch(states, u_des, params: SafetyParams,
                         dyn: DynamicsParams, alphas=None,
                         period: float = DEFAULT_PERIOD,
                         substeps: int = DEFAULT_SUBSTEPS):
    """:func:`filter_control` for states (N, 6) and requests (N, 3).

    Returns (u_act (N, 3), intervened (N,), feasible (N,)).
    """
    X = np.asarray(states, dtype=float).reshape(-1, 6)
    if not np.isfinite(X).all():
        raise ValueError("states must be finite")
    U = _clamped_requests(np.reshape(u_des, (-1, 3)), dyn)
    if len(U) != len(X):
        raise ValueError("states and u_des must have the same length")
    C, b = cbf_rows(X, params, dyn, alphas)
    U_act, _, feasible = _filter_states(X, U, C, b, params, dyn, period, substeps)
    intervened = np.linalg.norm(U_act - U, axis=1) > _INTERVENTION_TOL
    return U_act, intervened, feasible
