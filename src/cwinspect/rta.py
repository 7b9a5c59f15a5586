"""Sampled-data Active Set Invariance Filter: minimally modify a desired thrust.

The filtered thrust is held constant over the one control period of
:data:`DEFAULT_PERIOD` = 2 s (zero-order hold) while the plant is integrated
in equal RK4 substeps.  The Clohessy-Wiltshire system is linear, so every
substep state of the hold is affine in the held thrust,
x_j = x + D_j x + S_j u, on the maps of :func:`cwinspect.dynamics.hold_maps`
(which also set the substep count), flown as the simulator flies them, bit
for bit.  The filter returns the request when it meets the continuous rows
below and its hold the exact check: every hold condition of
:func:`cwinspect.safety.hold_values` (and with them every barrier h1..h6)
at least min(0, k0), k0 its value at x, at every substep state x_1..x_J,
with the keep-in cone guarded strictly inside the stated one
(:func:`cwinspect.safety.keep_in_guard`).  Otherwise it walks one loop
from the request; each pass solves a QP, the thrust closest to u_des over
its rows and the per-axis thrust box |u_k| <= :data:`cwinspect.dynamics.U_MAX`,
moves to its optimum and flies that hold, returns the optimum if the hold
passes the check, and else linearizes at it.  The first QP's rows are the
six continuous-time barrier rows c_i.u + b_i >= 0 at x
(:func:`cwinspect.safety.cbf_rows`) alone; each later QP's are linearized
at the last iterate: the continuous rows, k1..k3 linearized about its hold
at least min(m, k0 + m j / J) + 2 _FEAS_TOL at substep j of J,
m = _HOLD_MARGIN, and the axis-limit conditions k4..k9, exact rows in u,
at least min(0, k0) + 2 _FEAS_TOL.

Served at the first QP, the thrust is the exact optimum; served later,
held off the check's boundary by the margin, it need not be the closest
thrust that passes the check.  Each QP is solved exactly by a dual
active-set method (Goldfarb & Idnani 1983).  A batch (N, 6) screens its
requests together in one hold pass and hands each state whose request
fails that screen to the one stage walker that a single state (6,) takes,
so a batch row is its one state's call, bit for bit.

A condition already violated at x need only not get worse over the hold.
When the linearized QP admits no thrust, or eight linearizations do not
reach the exact hold conditions, the filter relaxes, in this order: the
continuous rows (those of a state outside the guarded set can demand more
recovery than the box allows, so such a state starts without them; with
none, the first QP has no rows and its optimum is the request), then the
keep-in guard, and last returns the least-violation thrust of
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

from .dynamics import (U_MAX, _add_thrust, _as_matrix, _clamp, _free_motion, _real, _vector,
                       hold_maps)
from .safety import NUM_HOLD_CONDITIONS, SafetyParams, _hold_jacobian, _hold_pass, cbf_rows

__all__ = [
    "DEFAULT_PERIOD",
    "FilterResult",
    "solve_qp",
    "infeasible_fallback",
    "filter_control",
]

#: The one zero-order hold [s] of the simulator's 0.5 Hz control rate, which
#: the filter plans.
DEFAULT_PERIOD = 2.0

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
# The plan of the one hold, read-only: the maps (D, S) of hold_maps, the
# exact rows (J, 6, 3) of the axis-limit conditions k4..k9 = v_max -+ v,
# minus and plus the velocity rows of S at every state and thrust (0.0 -
# and 0.0 + give S's exact zeros the +0.0 of a gradient product), and the
# margins ramped over the hold (J, 9).
_D, _S = hold_maps(DEFAULT_PERIOD)
_J = len(_S)
_AXIS_ROWS = np.concatenate([0.0 - _S[:, 3:], 0.0 + _S[:, 3:]], axis=1)
_RAMP = _MARGINS * (np.arange(1, _J + 1)[:, None] / _J)
_AXIS_ROWS.setflags(write=False)
_RAMP.setflags(write=False)
_MAX_LINEARIZATIONS = 8
_MAX_QP_ITER = 100
# What the filter enforces, (keep-in guarded, continuous rows), in the order
# it relaxes them when the linearized QP admits no thrust.
_STAGES = ((True, True), (True, False), (False, False))
_BOX = np.vstack([-np.eye(3), np.eye(3)])


@dataclass
class FilterResult:
    """Outcome of one filter evaluation, with the stage of :data:`_STAGES`
    that served it; for a batch of N states each field holds one entry per
    state: (N, ...) arrays and a tuple of N tuples."""

    u_act: np.ndarray  # (3,) or (N, 3) [N]
    intervened: bool  # or (N,) bool
    deviation: float  # ||u_des - u_act||_2 after box pre-clamp [N]; or (N,)
    # constraint indices: continuous rows 0..5, hold condition i at substep
    # j (from 0) is row 6 + 9 j + i, then the box faces as in solve_qp
    active_set: tuple
    feasible: bool  # or (N,) bool
    slack_used: np.ndarray  # (6,) or (N, 6): per continuous row max(0, -(c.u+b)) at u_act
    # 0 guarded with the continuous rows (or the request as it is), 1 guarded
    # without them, 2 unguarded, 3 the least-violation fallback; or (N,) int
    stage: int


def _checked_input(u_des, rows):
    """A finite request (3,), and finite real rows (C, b) of shapes (N, 3)
    and (N,)."""
    u_des = _vector(u_des, "u_des", 3)
    C = _real(rows[0], "constraint rows")
    b = _real(rows[1], "constraint rows")
    if C.shape[1:] != (3,) or b.ndim != 1:
        raise ValueError(f"constraint rows: C must have shape (N, 3) and b shape (N,), "
                         f"not {C.shape} and {b.shape}")
    if len(C) != len(b):
        raise ValueError(f"constraint rows: {len(C)} normals in C but {len(b)} offsets in b")
    if np.count_nonzero(np.isfinite(C)) + np.count_nonzero(np.isfinite(b)) != C.size + len(b):
        raise ValueError("constraint rows must be finite")
    return u_des, C, b


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
    slack = A.dot(u0) - d  # A.dot gives the bits of A @ u0 for less
    p = int(slack.argmin())
    if slack[p] >= -_FEAS_TOL:
        return u0.copy(), (), True
    u = u0.tolist()
    active, lam, normals = [], [], []
    for _ in range(_MAX_QP_ITER):
        a = A[p].tolist()
        aa = _dot(a, a)
        lam_p = 0.0
        while True:
            if not normals:
                r, z, zz = (), a, aa
            else:
                G = [[_dot(ni, nj) for nj in normals] for ni in normals]
                r = _solve_gram(G, [_dot(ni, a) for ni in normals])
                if len(normals) == 3:
                    z = (0.0, 0.0, 0.0)  # three independent normals span R^3
                else:  # a - sum(r_k n_k), summed from 0.0 as sum() does
                    s = (0.0, 0.0, 0.0)
                    for rk, nk in zip(r, normals):
                        s = (s[0] + rk * nk[0], s[1] + rk * nk[1], s[2] + rk * nk[2])
                    z = (a[0] - s[0], a[1] - s[1], a[2] - s[2])
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
                u = [uc + t * zc for uc, zc in zip(u, z)]
            lam = [lk - t * rk for lk, rk in zip(lam, r)]
            lam_p += t
            if t_add <= t_drop:
                active.append(p)
                lam.append(lam_p)
                normals.append(a)
                break
            del active[drop], lam[drop], normals[drop]
        u_arr = np.array(u)
        slack = A.dot(u_arr) - d
        p = int(slack.argmin())
        if slack[p] >= -_FEAS_TOL:
            return u_arr, tuple(sorted(active)), True
    return None, (), False  # cycling under rounding: treat as no solution


def solve_qp(u_des, rows):
    """Exact minimizer of ||u - u_des|| over the rows and the thrust box
    |u_k| <= :data:`cwinspect.dynamics.U_MAX`.

    ``rows`` is a tuple (C, b) with C (N, 3) and b (N,).  Returns
    (u, active_set, feasible); ``u`` is None when the intersection is
    empty.  Constraint indices in ``active_set`` are the row
    index for barrier rows, then N..N+2 for the upper box faces (+x,+y,+z)
    and N+3..N+5 for the lower faces.  A request that already satisfies
    every constraint is returned unchanged with an empty active set.
    """
    u_des, C, b = _checked_input(u_des, rows)
    # constraints in the uniform form a_j . u >= d_j
    A = np.concatenate([C, _BOX])
    d = np.empty(len(b) + 6)
    np.negative(b, out=d[:len(b)])
    d[len(b):] = -U_MAX
    return _dual_active_set(u_des, A, d)


def infeasible_fallback(u_des, rows) -> np.ndarray:
    """Least-violation control over the thrust box.

    Minimizes f(u) = sum_i max(0, -(c_i.u + b_i))^2 + 1e-6 ||u - u_des||^2
    subject to |u_j| <= :data:`cwinspect.dynamics.U_MAX` by Newton steps
    from the clamped request: each minimizes over the box the quadratic
    model of f on the rows violated at the iterate and is halved until f
    descends; it stops when none does.
    Coincides with :func:`solve_qp` to about 1e-6 when the rows are feasible.
    """
    u_des, C, b = _checked_input(u_des, rows)

    def objective(U):  # of thrusts (k, 3)
        viol = np.minimum(0.0, U @ C.T + b)
        return (viol * viol).sum(axis=1) + _PENALTY_WEIGHT * ((U - u_des) ** 2).sum(axis=1)

    u = _clamp(u_des, U_MAX)
    f = objective(u[None])[0]
    for _ in range(_MAX_QP_ITER):
        V = C @ u + b < 0.0
        # the model w.M w + 2 q.w, M = L L^T, is ||v + L^-1 q||^2 in v = L^T w,
        # where the box rows are _BOX L^-T: the QP solver finds the active faces
        M = C[V].T @ C[V] + _PENALTY_WEIGHT * np.eye(3)
        q = C[V].T @ b[V] - _PENALTY_WEIGHT * u_des
        L_inv = np.linalg.inv(np.linalg.cholesky(M))
        _, active, ok = _dual_active_set(-L_inv @ q, _BOX @ L_inv.T, np.full(6, -U_MAX))
        if not ok:
            break
        # M can be ill-conditioned: w is put on the active faces exactly
        w, free = np.zeros(3), np.ones(3, dtype=bool)
        for a in active:
            w[a % 3], free[a % 3] = (U_MAX if a < 3 else -U_MAX), False
        w[free] = np.linalg.solve(M[free][:, free], -q[free] - M[free][:, ~free] @ w[~free])
        trial = u + 0.5 ** np.arange(40)[:, None] * (_clamp(w, U_MAX) - u)
        f_trial = objective(trial)
        descends = (f_trial < f).nonzero()[0]
        if not descends.size:
            break
        u, f = trial[descends[0]], f_trial[descends[0]]
    return _clamp(u, U_MAX)


def _holds(X, U, params: SafetyParams, cone):
    """Holds (k, J, 6) flown from states X (k, 6) under thrusts U (k, 3), their
    conditions (k, J, 9) and terms on the keep-in cone ``cone`` (see
    :func:`cwinspect.safety._hold_pass`), the conditions at the states (k, 1, 9)
    and their floors min(0, k0), and the states' free motion
    (:func:`cwinspect.dynamics._free_motion`), which every later iterate's hold reuses."""
    F = _free_motion(_D, X)
    H = _add_thrust(X, F, _S, U)
    K, (floored, rdot) = _hold_pass(np.concatenate([X[:, None], H], axis=1), params, cone)
    K0 = K[:, :1]
    return H, K[:, 1:], (floored[:, 1:], rdot[:, 1:]), K0, np.minimum(0.0, K0), F


def _linearized_rows(H, K, T, C_cont, b_cont, targets, U, params: SafetyParams, cone):
    """QP rows C (n, R, 3), b (n, R) for the holds H (n, J, 6) of iterates U
    (n, 3), whose :func:`cwinspect.safety._hold_pass` on ``cone`` gave K
    and T: the continuous rows, those of k1..k3 linearized at the hold
    toward ``targets``, the exact rows of k4..k9; and the mask of the rows
    that a thrust in the box can violate (the others never bind)."""
    n, n_cont = C_cont.shape[:2]
    n_rows = n_cont + _J * NUM_HOLD_CONDITIONS
    C = np.empty((n, n_rows, 3))
    C[:, :n_cont] = C_cont
    C_hold = C[:, n_cont:].reshape(n, _J, NUM_HOLD_CONDITIONS, 3)
    np.einsum("njkd,jde->njke", _hold_jacobian(H, T, params, cone), _S, out=C_hold[:, :, :3])
    C_hold[:, :, 3:] = _AXIS_ROWS
    b = np.empty((n, n_rows))
    b[:, :n_cont] = b_cont
    b_hold = b[:, n_cont:]
    np.subtract(K, targets, out=b_hold.reshape(K.shape))
    b_hold -= np.einsum("nrk,nk->nr", C[:, n_cont:], U)
    return C, b, b < U_MAX * np.abs(C).sum(axis=2)


def _stages(X, U, C6, b6, hold, params: SafetyParams):
    """The stages of :data:`_STAGES` for one state X (1, 6) whose request
    U (1, 3) fails the screen, with its continuous rows C6 (1, 6, 3), b6 (1, 6)
    and the :func:`_holds` of the request under the guarded cone.  Returns
    (u (1, 3), active set, feasible, stage), feasible False for the
    least-violation thrust."""
    n_rows = C6.shape[1] + _J * NUM_HOLD_CONDITIONS
    u_des = U[0]
    # a state outside the guarded set (a floor min(0, k0) below 0) starts at the second stage
    for stage in range(int(hold[4].any()), len(_STAGES)):
        guarded, with_cont = _STAGES[stage]
        cone = params._guard if guarded else (params.a_max, params.r_max)
        H, K, T, K0, floors, F = hold if guarded else _holds(X, U, params, cone)
        targets = np.minimum(_MARGINS, K0 + _RAMP) + 2.0 * _FEAS_TOL
        # without the continuous rows: rows that never bind, keeping the row numbering
        C_cont, b_cont = (C6, b6) if with_cont else (np.zeros_like(C6), np.ones_like(b6))
        # The first QP is over the continuous rows alone (no rows without
        # them): its optimum is the optimum over all rows when its hold keeps
        # the conditions, and otherwise a point to linearize at that is closer
        # to the solution than the request.  Each later QP is over the rows
        # linearized at the last iterate.
        n_first = C6.shape[1] if with_cont else 0
        C, b, rows = C6[0, :n_first], b6[0, :n_first], range(n_first)
        u, active = U, ()
        for n_qp in range(_MAX_LINEARIZATIONS + 1):
            u_new, act, ok = solve_qp(u_des, (C, b)) if len(b) else (u_des, (), True)
            if not ok:
                break
            if act or n_qp:  # a first optimum with no active row is the request, already flown
                u = u_new[None]
                active = tuple(int(rows[a]) if a < len(rows) else n_rows + a - len(rows)
                               for a in act)
                H = _add_thrust(X, F, _S, u)
                K, T = _hold_pass(H, params, cone)
            if (K >= floors).all():
                return u, active, True, stage
            C, b, live = _linearized_rows(H, K, T, C_cont, b_cont, targets, u, params, cone)
            rows = live[0].nonzero()[0]
            C, b = C[0, rows], b[0, rows]
    # no stage found a thrust: the least violation of the last stage's rows
    rows = (np.vstack([C6[0], C]), np.concatenate([b6[0], b]))
    return infeasible_fallback(u_des, rows)[None], (), False, len(_STAGES)


# One state keeps its own screen: a batch of one through _filter_states
# measured 1.116 times the filter call's time (slower in 12 of 12 rounds on
# a 2-vCPU host), about 4.5 us of it bookkeeping and 4.3 us more from
# checking the continuous rows when the hold already fails.
def _filter_one(X, U, C6, b6, params: SafetyParams):
    """The filter for one state X (1, 6), request U (1, 3) and rows
    C6 (1, 6, 3), b6 (1, 6).  Returns (U_act (1, 3), active set, feasible,
    stage)."""
    hold = _holds(X, U, params, params._guard)
    if ((hold[1] >= hold[4]).all()
            and (np.einsum("nij,nj->ni", C6, U) + b6 >= -_FEAS_TOL).all()):
        return U, (), True, 0  # the request is its own thrust
    return _stages(X, U, C6, b6, hold, params)


def _filter_states(X, U, C6, b6, params: SafetyParams):
    """The filter for states X (n, 6), clamped requests U (n, 3) and rows
    C6 (n, 6, 3), b6 (n, 6): one screen of all the requests, then
    :func:`_stages` for each state that fails it, on its slice of the
    screen's holds.  Returns (U_act, active list, feasible, stage)."""
    H, K, (floored, rdot), K0, floors, F = _holds(X, U, params, params._guard)
    admissible = ((np.einsum("nij,nj->ni", C6, U) + b6 >= -_FEAS_TOL).all(axis=1)
                  & (K >= floors).all(axis=(1, 2)))
    U_act, active = U.copy(), [()] * len(X)
    feasible, stage = np.ones(len(X), dtype=bool), np.zeros(len(X), dtype=int)
    for i in (~admissible).nonzero()[0]:
        s = slice(i, i + 1)
        hold = H[s], K[s], (floored[s], rdot[s]), K0[s], floors[s], F[s]
        u, active[i], feasible[i], stage[i] = _stages(X[s], U[s], C6[s], b6[s], hold, params)
        U_act[i] = u[0]
    return U_act, active, feasible, stage


def filter_control(states, u_des, params: SafetyParams) -> FilterResult:
    """Filter the requests ``u_des`` (3,) for one 6-state (6,), or (N, 3)
    for states (N, 6), over the hold of :data:`DEFAULT_PERIOD` seconds, on
    the substeps of :func:`cwinspect.dynamics.hold_maps` that the simulator
    flies.

    ``u_des`` is clamped to the thrust box first so the reported deviation
    measures distance from an admissible request.  A batch screens its
    requests together, walks the stages of each rejected state as one state
    does, and returns its fields as arrays with a leading axis N, with
    ``active_set`` a tuple of tuples; each row is the result for its state
    alone, bit for bit.
    """
    C, b = cbf_rows(states, params)  # refuses any other shape, non-finite states
    single = b.ndim == 1
    X = np.asarray(states, dtype=float, order="C").reshape(-1, 6)
    U, u = _as_matrix(u_des, "u_des", 3)
    if (u is None) == single or len(U) != len(X):
        raise ValueError(f"u_des must be (3,) for one state, (N, 3) for N, not {np.shape(u_des)}")
    U = _clamp(U, U_MAX)
    if single:
        C, b = C[None], b[None]
    U_act, active, feasible, stage = (_filter_one if single else _filter_states)(
        X, U, C, b, params)
    # np.linalg.norm's arithmetic, one row at a time
    deviation = [math.sqrt(du.dot(du)) for du in U_act - U]
    slack = np.maximum(0.0, -((C @ U_act[:, :, None])[..., 0] + b))
    met = (slack <= _FEAS_TOL).all(axis=1)  # the continuous rows too
    if single:
        return FilterResult(U_act[0], deviation[0] > _INTERVENTION_TOL, deviation[0],
                            active, feasible and bool(met[0]), slack[0], stage)
    deviation = np.array(deviation)
    return FilterResult(U_act, deviation > _INTERVENTION_TOL, deviation,
                        tuple(active), feasible & met, slack, stage)
