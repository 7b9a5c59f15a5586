"""Safety filter: exact QP solutions against brute-force oracles, the
infeasible fallback, the filter result contract, and the hold guarantee at
fixed states."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwinspect import harness, rta
from cwinspect.dynamics import U_MAX, DynamicsParams, _fly, hold_maps, rk4_zoh_map
from cwinspect.rta import (DEFAULT_PERIOD, FilterResult, filter_control,
                           infeasible_fallback, solve_qp)
from cwinspect.safety import (SafetyParams, _hold_jacobian, _hold_pass, cbf_rows,
                              h_values_batch, hold_values, keep_in_guard)

SP = SafetyParams()
DP = DynamicsParams()


def lattice_search(u_des, C, b, n=51):
    """Brute-force projection: best feasible point of an n^3 grid over the
    thrust box."""
    axis = np.linspace(-U_MAX, U_MAX, n)
    U = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    feas = np.all(U @ C.T + b >= -1e-9, axis=1)
    if not np.any(feas):
        return None
    cand = U[feas]
    return cand[np.argmin(np.sum((cand - u_des) ** 2, axis=1))]


def assert_rows_match(batch, X, U):
    """Each row of a batch FilterResult is the result for its state alone,
    bit for bit."""
    assert batch.u_act.shape == (len(X), 3) and batch.slack_used.shape == (len(X), 6)
    assert len(batch.active_set) == len(X)
    for k in range(len(X)):
        res = filter_control(X[k], U[k], SP)
        assert np.array_equal(res.u_act, batch.u_act[k])
        assert np.array_equal(res.slack_used, batch.slack_used[k])
        assert res.deviation == batch.deviation[k]
        assert res.intervened == batch.intervened[k]
        assert res.feasible == batch.feasible[k]
        assert res.active_set == batch.active_set[k]
        assert res.stage == batch.stage[k]


def random_instance(rng):
    """Rows from a random state (biased toward constraint boundaries) plus a
    random desired thrust."""
    p = rng.normal(0, 120, 3)
    rho = np.linalg.norm(p)
    if rho < 1.0:
        p = np.array([30.0, 0, 0])
        rho = 30.0
    if rng.random() < 0.5:
        p *= rng.uniform(10.5, 40.0) / rho  # near the keep-out region
    v = rng.normal(0, 0.5, 3)
    if rng.random() < 0.5:
        v = rng.uniform(0.8, 1.1) * v / max(np.linalg.norm(v), 1e-9)
    x = np.concatenate([p, v])
    C, b = cbf_rows(x, SP)
    u_des = rng.uniform(-1.5, 1.5, 3)
    return C, b, u_des


class TestSolveQp:
    def test_no_rows_clamps_to_box(self):
        u, active, feasible = solve_qp([2.0, -3.0, 0.2],
                                       (np.zeros((0, 3)), np.zeros(0)))
        assert feasible
        assert np.allclose(u, [1.0, -1.0, 0.2])

    def test_halfspace_projection(self):
        u, active, feasible = solve_qp(
            np.zeros(3), (np.array([[1.0, 0, 0]]), np.array([-0.5])))
        assert feasible
        assert np.allclose(u, [0.5, 0, 0])
        assert active == (0,)

    def test_contradictory_rows_infeasible(self):
        C = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        b = np.array([-0.5, -0.5])
        u, active, feasible = solve_qp(np.zeros(3), (C, b))
        assert not feasible and u is None

    def test_feasible_input_untouched(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            C, b, _ = random_instance(rng)
            # pick a u_des that satisfies every row and the box
            for _ in range(50):
                u_des = rng.uniform(-1, 1, 3)
                if np.all(C @ u_des + b >= 1e-6):
                    break
            else:
                continue
            u, active, feasible = solve_qp(u_des, (C, b))
            assert feasible
            assert np.array_equal(u, u_des)
            assert active == ()

    def test_matches_lattice_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            C, b, u_des = random_instance(rng)
            u, active, feasible = solve_qp(u_des, (C, b))
            u_lat = lattice_search(u_des, C, b)
            if u_lat is None:
                continue
            assert feasible
            d_qp = np.linalg.norm(u - u_des)
            d_lat = np.linalg.norm(u_lat - u_des)
            assert d_qp <= d_lat + 1e-9  # never worse than any feasible grid point
            assert d_lat - d_qp <= np.linalg.norm([0.04, 0.04, 0.04])

    def test_solution_satisfies_constraints(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            C, b, u_des = random_instance(rng)
            u, active, feasible = solve_qp(u_des, (C, b))
            if feasible:
                assert np.all(C @ u + b >= -1e-8)
                assert np.all(np.abs(u) <= 1.0 + 1e-12)

    def test_deterministic_active_set(self):
        rng = np.random.default_rng(37)
        C, b, u_des = random_instance(rng)
        r1 = solve_qp(u_des, (C, b))
        r2 = solve_qp(u_des, (C, b))
        assert np.array_equal(r1[0], r2[0]) and r1[1] == r2[1]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            solve_qp([np.nan, 0, 0], (np.zeros((0, 3)), np.zeros(0)))
        with pytest.raises(ValueError):
            solve_qp(np.zeros(3), (np.array([[np.inf, 0, 0]]), np.array([0.0])))


@pytest.mark.parametrize("solver", [solve_qp, infeasible_fallback])
def test_rows_of_different_lengths_rejected(solver):
    # used to fail inside numpy: "operands could not be broadcast together"
    with pytest.raises(ValueError, match="1 normals in C but 2 offsets in b"):
        solver([0.0, 0.0, 0.0], (np.ones((1, 3)), np.zeros(2)))
    # rows of the wrong shape used to be reshaped to (-1, 3) and (-1,)
    for C, b in ((np.ones((2, 6)), -np.ones(4)), (np.ones(6), np.ones(2)),
                 (np.ones((1, 3)), np.ones((1, 1)))):
        with pytest.raises(ValueError, match=rf"shape.*{re.escape(str(C.shape))}"
                                             rf" and {re.escape(str(b.shape))}"):
            solver([0.0, 0.0, 0.0], (C, b))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fallback_rejects_a_nonfinite_request(bad):
    # NaN used to come back as the thrust and inf was clamped to the box
    rows = (np.array([[1.0, 0, 0]]), np.array([-0.5]))
    with pytest.raises(ValueError, match="u_des must be finite"):
        infeasible_fallback([bad, 0.0, 0.0], rows)


class TestFallback:
    def test_consistent_with_qp_when_feasible(self):
        C = np.array([[1.0, 0.2, 0], [0, 1.0, -0.3]])
        b = np.array([-0.4, -0.2])
        u_des = np.array([-0.8, -0.9, 0.3])
        u_qp, _, feasible = solve_qp(u_des, (C, b))
        assert feasible
        u_fb = infeasible_fallback(u_des, (C, b))
        assert np.all(np.abs(u_fb - u_qp) < 1e-6)

    def test_contradictory_velocity_rows_vs_grid(self):
        # two irreconcilable brake-both-ways rows; oracle: 21^3 grid search
        C = np.array([[-1 / 6, 0, 0], [1 / 6, 0, 0]])
        b = np.array([-0.5, -0.5])
        u_des = np.array([0.9, 0.0, 0.0])
        u_fb = infeasible_fallback(u_des, (C, b))

        axis = np.linspace(-1, 1, 21)
        U = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        viol = np.maximum(0.0, -(U @ C.T + b))
        cost = np.sum(viol**2, axis=1) + 1e-6 * np.sum((U - u_des) ** 2, axis=1)
        u_grid = U[np.argmin(cost)]
        obj = lambda u: np.sum(np.maximum(0.0, -(C @ u + b)) ** 2) \
            + 1e-6 * np.sum((u - u_des) ** 2)
        assert obj(u_fb) <= obj(u_grid) + 1e-12
        assert np.all(np.abs(u_fb - u_grid) <= 0.1 + 1e-9)

    def test_zero_rows_clamps(self):
        u = infeasible_fallback([3.0, -0.2, -4.0],
                                (np.zeros((0, 3)), np.zeros(0)))
        assert np.allclose(u, [1.0, -0.2, -1.0], atol=1e-6)


def lbfgsb_fallback(u_des, C, b):
    """Oracle: the least-violation objective minimized by SciPy's L-BFGS-B
    from the clamped request, to its tightest tolerances."""
    from scipy.optimize import minimize

    def objective(u):
        viol = np.maximum(0.0, -(C @ u + b))
        du = u - u_des
        return (viol @ viol + 1e-6 * du @ du,
                -2.0 * (C.T @ viol) + 2e-6 * du)

    return minimize(objective, np.clip(u_des, -U_MAX, U_MAX), jac=True,
                    method="L-BFGS-B", bounds=[(-U_MAX, U_MAX)] * 3,
                    options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 500}).x


@st.composite
def fallback_problems(draw):
    """Requests and row sets of scale 1e-2..10 with zero, duplicate and
    parallel rows appended."""
    coord = st.floats(-1.0, 1.0, allow_subnormal=False)
    n = draw(st.integers(1, 10))
    C = np.array(draw(st.lists(st.lists(coord, min_size=3, max_size=3),
                               min_size=n, max_size=n)))
    b = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    scale = 10.0 ** np.array(draw(st.lists(st.floats(-2.0, 1.0), min_size=n,
                                           max_size=n)))
    C, b = C * scale[:, None], b * scale
    for kind, i, factor, offset in draw(st.lists(st.tuples(
            st.sampled_from(("zero", "duplicate", "parallel")),
            st.integers(0, n - 1), st.floats(-3.0, 3.0), coord), max_size=4)):
        row, b_row = {"zero": (0.0 * C[i], offset), "duplicate": (C[i], b[i]),
                      "parallel": (factor * C[i], offset)}[kind]
        C, b = np.vstack([C, row]), np.append(b, b_row)
    u_des = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)))
    return u_des, C, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fallback_problems())
def test_fallback_no_worse_than_lbfgsb(problem):
    u_des, C, b = problem
    u = infeasible_fallback(u_des, (C, b))
    assert np.all(np.abs(u) <= U_MAX)

    def objective(u):
        viol = np.maximum(0.0, -(C @ u + b))
        return viol @ viol + 1e-6 * (u - u_des) @ (u - u_des)

    f_oracle = objective(lbfgsb_fallback(u_des, C, b))
    assert objective(u) <= f_oracle * (1.0 + 1e-9)


class TestFilter:
    def test_feasible_request_passes_through(self):
        x = np.array([100.0, 0, 0, 0, 0, 0])
        res = filter_control(x, np.array([0.01, 0.0, -0.02]), SP)
        assert isinstance(res, FilterResult)
        assert not res.intervened
        assert res.deviation == 0.0
        assert res.feasible
        assert np.all(res.slack_used == 0.0)

    def test_single_active_axis_limit(self):
        # xd at the +1 m/s limit with the drift term vanishing (p along y):
        # the axis row forces Fx <= 0, so the projection of (1,0,0) is zero
        x = np.array([0.0, 500.0, 0.0, 1.0, 0.0, 0.0])
        res = filter_control(x, np.array([1.0, 0.0, 0.0]), SP)
        assert res.feasible
        assert np.allclose(res.u_act, [0.0, 0.0, 0.0], atol=1e-9)
        assert res.intervened
        assert res.deviation == pytest.approx(1.0, abs=1e-9)

    def test_request_clamped_before_filtering(self):
        x = np.array([100.0, 0, 0, 0, 0, 0])
        res = filter_control(x, np.array([5.0, 0.0, 0.0]), SP)
        # deviation measures distance from the admissible (clamped) request
        assert res.deviation == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(res.u_act, [1.0, 0, 0])

    def test_feasible_contract(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = rng.normal(0, 150, 3)
            if np.linalg.norm(p) < 12:
                continue
            x = np.concatenate([p, rng.normal(0, 0.4, 3)])
            u_des = rng.uniform(-1, 1, 3)
            res = filter_control(x, u_des, SP)
            if res.feasible:
                C, b = cbf_rows(x, SP)
                assert np.all(C @ res.u_act + b >= -1e-8)
                assert np.all(np.abs(res.u_act) <= DP.u_max + 1e-12)
            assert res.intervened == (res.deviation > 1e-9)

    def test_minimal_invasiveness(self):
        # a request is admissible when it meets the continuous rows and its
        # hold keeps every hold condition non-negative at every substep
        D, S = hold_maps(DEFAULT_PERIOD)
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(300):
            p = rng.normal(0, 150, 3)
            if np.linalg.norm(p) < 15:
                continue
            x = np.concatenate([p, rng.normal(0, 0.3, 3)])
            u_des = rng.uniform(-1, 1, 3)
            C, b = cbf_rows(x, SP)
            hold = x + D @ x + S @ u_des
            if np.all(C @ u_des + b >= 1e-9) and hold_values(hold, SP, guarded=True).min() >= 0.0:
                res = filter_control(x, u_des, SP)
                assert res.deviation == 0.0
                checked += 1
        assert checked > 50

    def test_batch_matches_single(self):
        rng = np.random.default_rng(47)
        X = np.concatenate([rng.normal(0, 60, (40, 3)), rng.normal(0, 0.3, (40, 3))], axis=1)
        X[:20, :3] *= 10.6 / np.linalg.norm(X[:20, :3], axis=1, keepdims=True)
        U = rng.uniform(-1, 1, (40, 3))
        batch = filter_control(X, U, SP)
        assert_rows_match(batch, X, U)
        assert batch.intervened[:20].any()
        # no states: every field holds no entries
        empty = filter_control(X[:0], U[:0], SP)
        assert empty.u_act.shape == (0, 3) and empty.slack_used.shape == (0, 6)
        assert empty.active_set == ()
        for field in (empty.intervened, empty.deviation, empty.feasible, empty.stage):
            assert field.shape == (0,)

    def test_batch_of_random_safe_states_matches_single(self):
        # states near the keep-out sphere or the speed limits, every h_i >= 0
        rng = np.random.default_rng(7)
        X = []
        while len(X) < 600:
            p = rng.normal(0, 120, 3)
            if rng.random() < 0.5:
                p *= rng.uniform(10.5, 40.0) / np.linalg.norm(p)
            v = rng.normal(0, 0.5, 3)
            if rng.random() < 0.5:
                v *= rng.uniform(0.8, 1.1) / np.linalg.norm(v)
            if h_values_batch(np.concatenate([p, v]), SP).min() >= 0.0:
                X.append(np.concatenate([p, v]))
        X = np.array(X)
        U = rng.uniform(-1, 1, (600, 3))
        batch = filter_control(X, U, SP)
        assert batch.intervened.sum() > 100
        assert_rows_match(batch, X, U)

    @pytest.mark.parametrize("linearizations", [rta._MAX_LINEARIZATIONS, 0])
    def test_batch_stage_bookkeeping(self, monkeypatch, linearizations):
        # one batch whose states start at the first stage (inside the
        # guarded set) or the second (outside it), interleaved, and one that
        # finds no thrust until the third; with no linearization allowed,
        # some fall through every stage to the fallback.  Each state gets
        # what it gets alone.
        monkeypatch.setattr(rta, "_MAX_LINEARIZATIONS", linearizations)
        rng = np.random.default_rng(53)
        fixed = [([10.3, 0, 0, -0.06, 0, 0], [-0.5, 0, 0]),  # keep-out corner
                 ([100.0, 0, 0, 0, 0.40, 0], [0, 0, 1.0]),  # thrust across the velocity
                 ([100.0, 0, 0, 0.99, 0, 0], [1.0, 0, 0]),  # axis limit
                 ([10.2, 0, 0, -0.25, 0, 0], [-0.3, 0.1, 0]),  # inside the braking cone
                 ([50.0, 0, 0, 0, 0.5, 0], [0, 1.0, 0]),  # over the speed allowance
                 # inside the guarded set at the keep-in sphere: no thrust
                 # until the stage without the guard
                 ([-982.9518472159704, 175.37289690467819, 32.39075210322616,
                   -0.15968383971228636, -0.8130701081222101, -0.1597180868487526],
                  [0, 0, 0])]
        X = np.concatenate([rng.normal(0, 60, (25, 3)), rng.normal(0, 0.3, (25, 3))], axis=1)
        X[:15, :3] *= rng.uniform(10.1, 11.0, (15, 1)) / np.linalg.norm(X[:15, :3], axis=1,
                                                                         keepdims=True)
        X = np.concatenate([X, [x for x, _ in fixed]])
        U = np.concatenate([rng.uniform(-1, 1, (25, 3)), [u for _, u in fixed]])
        order = rng.permutation(len(X))
        X, U = X[order], U[order]
        outside = hold_values(X, SP, guarded=True).min(axis=1) < 0.0
        batch = filter_control(X, U, SP)
        assert_rows_match(batch, X, U)
        intervened, feasible = batch.intervened, batch.feasible
        assert (intervened & ~outside).sum() >= 3 and (intervened & outside).sum() >= 3
        if linearizations:
            assert feasible[~outside].all()
        else:
            assert (intervened & feasible).any() and not feasible.all()

    def test_nonfinite_state_rejected(self):
        with pytest.raises(ValueError, match="states must be finite"):
            filter_control([np.nan, 0, 0, 0, 0, 0], np.zeros(3), SP)
        with pytest.raises(ValueError, match="states must be finite"):
            filter_control(np.full((2, 6), np.inf), np.zeros((2, 3)), SP)
        with pytest.raises(ValueError, match="u_des"):
            filter_control(np.zeros((2, 6)), [[0.0, np.nan, 0.0]] * 2, SP)

    @pytest.mark.parametrize("x_shape, u_shape", [
        ((6,), (1, 3)), ((6,), (2,)), ((3, 6), (2, 3)), ((3, 6), (3,)), ((2, 6), (2, 2))])
    def test_request_shape_must_match_states(self, x_shape, u_shape):
        X = np.zeros(x_shape)
        X[..., 0] = 100.0
        with pytest.raises(ValueError, match="u_des"):
            filter_control(X, np.zeros(u_shape), SP)

    @pytest.mark.parametrize("layout", ["fortran", "stride16"])
    def test_batch_layout_keeps_the_bits(self, layout):
        # a batch that is not C-contiguous gets the results of its C-ordered
        # copy, and so of its one-state calls
        rng = np.random.default_rng(61)
        X = np.concatenate([rng.normal(0, 60, (30, 3)), rng.normal(0, 0.3, (30, 3))], axis=1)
        X[:15, :3] *= 10.6 / np.linalg.norm(X[:15, :3], axis=1, keepdims=True)
        U = rng.uniform(-1, 1, (30, 3))
        if layout == "fortran":
            view = np.asfortranarray(X)
        else:
            wide = np.zeros((30, 12))
            wide[:, ::2] = X
            view = wide[:, ::2]
        assert not view.flags.c_contiguous
        batch, ref = filter_control(view, U, SP), filter_control(X, U, SP)
        for field in ("u_act", "deviation", "slack_used", "feasible", "stage"):
            assert getattr(batch, field).tobytes() == getattr(ref, field).tobytes()
        assert batch.active_set == ref.active_set and batch.intervened[:15].any()
        assert_rows_match(batch, X, U)

    def test_overflowing_rows_rejected(self):
        # finite states whose rows overflow are refused, as non-finite states are
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            filter_control([1e300, 1e300, 0, 1e300, 0, 0], np.zeros(3), SP)


def fly_hold(x, u):
    """Barrier values (10, 6) at every 0.2 s substep of the default hold of
    thrust ``u``, integrated one RK4 substep at a time."""
    M, N = rk4_zoh_map(DEFAULT_PERIOD / 10)
    out = []
    for _ in range(10):
        x = M @ x + N @ (np.asarray(u) / DP.mass)
        out.append(h_values_batch(x, SP)[0])
    return np.array(out)


class TestHold:
    """Each case starts inside the guarded set with a request that breaks a
    barrier during the hold; the filtered hold keeps every barrier >= 0 at
    every substep."""

    def check(self, x, u_des):
        assert fly_hold(x, u_des).min() < 0.0  # the request alone fails
        res = filter_control(x, u_des, SP)
        assert res.feasible and res.intervened
        assert fly_hold(x, res.u_act).min() >= 0.0
        return res

    def test_keep_out_corner_crossed_between_samples(self):
        # closing on the 10 m sphere inside the braking cone under inward
        # thrust: the continuous rows accept the request, but the
        # deputy passes the square-root corner of h1 during the hold
        x = np.array([10.3, 0.0, 0.0, -0.06, 0.0, 0.0])
        u_des = np.array([-0.5, 0.0, 0.0])
        C, b = cbf_rows(x, SP)
        assert np.all(C @ u_des + b >= 0.0)
        assert fly_hold(x, u_des)[:, 0].min() < 0.0
        self.check(x, u_des)

    def test_perpendicular_thrust_rotates_velocity_into_speed_limit(self):
        # 5 mm/s below the speed allowance at 100 m with full thrust across
        # the velocity: |v| stays put to first order, so the h3 row accepts
        # it, but the velocity turns and grows over the hold
        x = np.array([100.0, 0.0, 0.0, 0.0, 0.40, 0.0])
        u_des = np.array([0.0, 0.0, 1.0])
        C, b = cbf_rows(x, SP)
        assert np.all(C @ u_des + b >= 0.0)
        assert fly_hold(x, u_des)[:, 2].min() < 0.0
        self.check(x, u_des)

    def test_keep_in_braking_with_blocked_axis(self):
        # leaving at 0.3 m/s just inside the guarded keep-in cone with yd at
        # its -1 m/s limit: outward thrust breaks h2 during the hold, and
        # the braking must come from x alone, since -y thrust would break h5
        p_hat = np.array([-0.912, 0.41, 0.0]) / np.linalg.norm([-0.912, 0.41, 0.0])
        x = np.concatenate([998.0 * p_hat, [-0.78, -0.999, 0.9]])
        u_des = np.array([-1.0, 0.0, 0.0])
        assert hold_values(x, SP, guarded=True).min() >= 0.0  # inside the guarded set
        C, b = cbf_rows(x, SP)
        assert np.all(C @ u_des + b >= 0.0)
        assert fly_hold(x, u_des)[:, 1].min() < 0.0
        self.check(x, u_des)

    def test_no_converged_linearization_goes_to_fallback(self, monkeypatch):
        # with no linearization allowed, the corner case never reaches the
        # exact hold conditions: the filter must not return the unchecked
        # iterate (here the request itself), but relax stage by stage and
        # end at the least-violation thrust over the linearized hold rows
        monkeypatch.setattr(rta, "_MAX_LINEARIZATIONS", 0)
        x = np.array([10.3, 0.0, 0.0, -0.06, 0.0, 0.0])
        u_des = np.array([-0.5, 0.0, 0.0])
        res = filter_control(x, u_des, SP)
        assert not res.feasible and res.intervened
        assert fly_hold(x, res.u_act).min() >= 0.0


class TestHoldRows:
    def test_split_hold_rows_equal_the_full_product(self):
        # the filter multiplies only the gradients of k1..k3 with the hold
        # map and takes the exact rows of k4..k9 = v_max -+ v from the plan
        # built at import: the rows equal those of the full product of all
        # nine gradients, byte for byte (signed zeros included)
        S, axis_rows = rta._S, rta._AXIS_ROWS
        rng = np.random.default_rng(59)
        H = np.concatenate([rng.normal(0, 300, (5, len(S), 3)),
                            rng.normal(0, 0.5, (5, len(S), 3))], axis=2)
        H[0, :, 2:6:3] = 0.0  # motion in the orbital plane
        cone = SP._guard
        G = np.zeros(H.shape[:2] + (9, 6))
        G[:, :, :3] = _hold_jacobian(H, _hold_pass(H, SP, cone)[1], SP, cone)
        G[:, :, 3:, 3:] = np.vstack([-np.eye(3), np.eye(3)])
        full = np.einsum("njkd,jde->njke", G, S)
        assert np.array_equal(full[:, :, :3], np.einsum("njkd,jde->njke", G[:, :, :3], S))
        expected = np.broadcast_to(axis_rows, full[:, :, 3:].shape)
        assert full[:, :, 3:].tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_the_plan_is_built_once_and_read_only(self):
        # the one hold's maps, axis rows and ramped margins are built at
        # import and cannot be written; a record holds no array and caches
        # one derived value, its guarded cone, which is not a field
        D, S = hold_maps(DEFAULT_PERIOD)
        assert np.array_equal(rta._D, D) and np.array_equal(rta._S, S)
        assert rta._RAMP.shape == (len(S), 9)
        assert np.array_equal(rta._RAMP[-1], rta._MARGINS)
        for table in (rta._D, rta._S, rta._AXIS_ROWS, rta._RAMP):
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0.0
        sp = SafetyParams()
        guard = sp._guard
        assert sp._guard is guard and guard == keep_in_guard(sp)
        assert not [name for name in dir(sp) if isinstance(getattr(sp, name), np.ndarray)]
        assert vars(sp).keys() == {f.name for f in dataclasses.fields(sp)} | {"_guard"}
        fresh = SafetyParams()
        assert "_guard" not in vars(fresh)
        assert sp == fresh and hash(sp) == hash(fresh)  # the guard is not a field

    def test_a_record_without_a_guard(self):
        # v_max = 5 m/s leaves the box no braking at the keep-in sphere: the
        # record still gives the barriers, their rows and the stated hold
        # conditions, and only the guarded conditions and the filter refuse it
        sp = SafetyParams(v_max=5.0)
        x = np.array([100.0, 20.0, -5.0, 0.1, -0.2, 0.3])
        assert np.array_equal(h_values_batch(x, sp)[0, :3], h_values_batch(x, SP)[0, :3])
        assert np.array_equal(cbf_rows(x, sp)[1][:3], cbf_rows(x, SP)[1][:3])
        k = hold_values(x, sp)
        assert np.array_equal(k[:3], hold_values(x, SP)[:3]) and np.all(k[3:] > 4.0)
        for call in (lambda: hold_values(x, sp, guarded=True),
                     lambda: filter_control(x, np.zeros(3), sp)):
            with pytest.raises(ValueError, match="cannot brake at the keep-in sphere"):
                call()


class TestKeepInGuardLooseEnd:
    """A state from criterion 2's random family, 998.99 m out and inside the
    guarded set by a guarded min k of 7.8e-4: neither guarded stage finds a
    thrust, so the filter serves it at the stage without the guard."""

    X = np.array([-969.8051148388846, 234.34357406367798, -50.45171777086061,
                  -0.19744868642334043, -0.9991793057719199, -0.9309752950245369])
    U = np.array([0.9078762322888103, -0.7783832206773724, 0.4462681363271572])

    def test_unguarded_stage_thrust_keeps_the_flown_hold_safe(self):
        assert 998.99 < np.linalg.norm(self.X[:3]) < 999.0
        assert 0.0 < hold_values(self.X, SP, guarded=True).min() < 1e-3
        res = filter_control(self.X, self.U, SP)
        assert res.feasible and res.intervened
        D, S = hold_maps(DEFAULT_PERIOD)
        flown = _fly(D, S, self.X, res.u_act)
        assert h_values_batch(flown, SP).min() >= 4e-9
        assert hold_values(flown, SP, guarded=True).min() >= 2e-9

    @pytest.mark.xfail(strict=True, reason="the guarded stages find no thrust for "
                       "this state, though the unguarded stage's thrust keeps "
                       "every guarded condition over the hold")
    def test_a_guarded_stage_serves_the_state(self, monkeypatch):
        monkeypatch.setattr(rta, "_STAGES", rta._STAGES[:2])
        assert filter_control(self.X, self.U, SP).feasible


class TestKeepOutBoundaryLooseEnd:
    """A guarded state 10.006 m out, closing at 0.019 m/s, with every guarded
    hold condition and every h_i at least 0 (k1 = 6.0e-4): no thrust keeps k1
    at the 1e-3 the linearized rows ask of it from substep 4 on, so every
    stage's QP admits no thrust, and the fallback's thrust breaks h3 by
    about 0.087 within the hold."""

    X = np.array([9.942912544210548, -0.9170927437639587, -0.6491781431518205,
                  -0.01159127906393831, 0.1407570793735473, -0.08281666302174528])
    U = np.array([-1.0, 1.0, 1.0])

    @pytest.mark.xfail(strict=True, reason="every stage's linearized QP asks k1 to "
                       "climb to the margin, which no thrust reaches, and the "
                       "least-violation thrust breaks h3 during the hold")
    def test_a_stage_serves_the_state_and_the_hold_stays_safe(self):
        assert hold_values(self.X, SP, guarded=True).min() >= 0.0
        assert h_values_batch(self.X, SP).min() >= 0.0
        res = filter_control(self.X, self.U, SP)
        M, N = rk4_zoh_map(DEFAULT_PERIOD / 100)
        x, h = self.X, []
        for _ in range(100):
            x = M @ x + N @ (res.u_act / DP.mass)
            h.append(h_values_batch(x, SP)[0])
        assert res.stage < 3
        assert np.min(h) >= -1e-3


# (state, request, the stage that serves it) with every linearization allowed
PINNED = [
    ([100.0, 0, 0, 0, 0, 0], [0.01, 0.0, -0.02], 0),  # the request as it is
    ([10.3, 0, 0, -0.06, 0, 0], [-0.5, 0, 0], 0),  # keep-out corner
    ([10.2, 0, 0, -0.25, 0, 0], [-0.3, 0.1, 0], 1),  # outside the guarded set
    (TestKeepInGuardLooseEnd.X, TestKeepInGuardLooseEnd.U, 2),
]


@pytest.mark.parametrize("linearizations", [rta._MAX_LINEARIZATIONS, 0])
def test_stage_served(monkeypatch, linearizations):
    # each decision reports the stage that served it, alone and in a batch;
    # with no linearization allowed, the keep-out corner falls through every
    # stage to the least-violation fallback
    monkeypatch.setattr(rta, "_MAX_LINEARIZATIONS", linearizations)
    X = np.array([x for x, _, _ in PINNED], dtype=float)
    U = np.array([u for _, u, _ in PINNED], dtype=float)
    alone = [filter_control(x, u, SP) for x, u in zip(X, U)]
    assert all(type(res.stage) is int for res in alone)
    stages = [res.stage for res in alone]
    if linearizations:
        assert stages == [stage for *_, stage in PINNED]
    else:
        assert stages[1] == 3 and not alone[1].feasible
    batch = filter_control(X, U, SP)
    assert batch.stage.dtype.kind == "i" and batch.stage.tolist() == stages
    assert_rows_match(batch, X, U)
    # a batch whose every state is at the second stage, one of them after
    # the first failed it (this used to fail inside numpy: the second stage
    # took the first stage's cut-down holds)
    assert_rows_match(filter_control(X[1:3], U[1:3], SP), X[1:3], U[1:3])


def test_no_thrust_over_the_continuous_rows_moves_to_the_next_stage(monkeypatch):
    # the keep-out corner, served at stage 0, with its first QP (over the six
    # continuous rows alone) reported without a solution: the decision goes
    # on to the guarded stage without those rows, starting from the screen's
    # hold of the request (flown once), and no later QP gets them first
    x, u_des = np.array(PINNED[1][0]), np.array(PINNED[1][1])
    calls, flown = [], []
    solve, add_thrust = rta.solve_qp, rta._add_thrust

    def spy(u, rows):
        calls.append((np.array(rows[0]), np.array(rows[1])))
        return (None, (), False) if len(calls) == 1 else solve(u, rows)

    def spy_fly(*args):
        flown.append(args)
        return add_thrust(*args)

    monkeypatch.setattr(rta, "solve_qp", spy)
    monkeypatch.setattr(rta, "_add_thrust", spy_fly)
    res = filter_control(x, u_des, SP)
    C6, b6 = cbf_rows(x, SP)
    assert res.stage == 1 and res.feasible and res.intervened
    assert len(calls) >= 2 and len(flown) == len(calls)  # the screen, then one per later QP
    assert np.array_equal(calls[0][0], C6) and np.array_equal(calls[0][1], b6)
    for C, b in calls[1:]:
        assert not (len(b) >= 6 and np.array_equal(C[:6], C6) and np.array_equal(b[:6], b6))
    assert fly_hold(x, res.u_act).min() >= 0.0


@pytest.fixture(scope="module")
def exp2_requests():
    """(states, requests) the filter gets in the first 300 steps of
    experiment 2, open loop, then closed loop."""
    seen = []

    def record(x, u_des, *args, **kwargs):
        seen.append((np.array(x), np.array(u_des)))
        return filter_control(x, u_des, *args, **kwargs)

    cfg = dataclasses.replace(harness.default_experiment(2), max_steps=300)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "filter_control", record)
        harness.run(cfg)
        harness.run(dataclasses.replace(cfg, closed_loop=True))
    assert len(seen) == 600
    return np.array([x for x, _ in seen]), np.array([u for _, u in seen])


class TestRecordedRequests:
    def test_batch_is_its_one_state_calls(self, exp2_requests):
        # 300 open- and 300 closed-loop requests in one batch
        X, U = exp2_requests
        batch = filter_control(X, U, SP)
        assert batch.intervened.sum() > 50
        for k in range(len(X)):
            res = filter_control(X[k], U[k], SP)
            assert res.u_act.tobytes() == batch.u_act[k].tobytes()
            assert res.slack_used.tobytes() == batch.slack_used[k].tobytes()
            assert np.float64(res.deviation).tobytes() == batch.deviation[k].tobytes()
            assert (res.intervened, res.feasible, res.active_set, res.stage) == (
                batch.intervened[k], batch.feasible[k], batch.active_set[k], batch.stage[k])

    def test_batch_walks_its_states_qps(self, exp2_requests, monkeypatch):
        # a batch hands each state that fails its screen to the one-state
        # walker: the same QPs as the states filtered one at a time, in order
        qps = []
        solve = rta.solve_qp

        def spy(u_des, rows):
            qps.append(b"".join(np.asarray(a, dtype=float).tobytes()
                                for a in (u_des, *rows)))
            return solve(u_des, rows)

        monkeypatch.setattr(rta, "solve_qp", spy)
        X, U = exp2_requests
        filter_control(X, U, SP)
        batch, qps[:] = list(qps), []
        for x, u in zip(X, U):
            filter_control(x, u, SP)
        assert len(batch) > 100 and batch == qps

    def test_qp_form(self, exp2_requests, monkeypatch):
        # solve_qp hands the dual active-set method the rows and box faces in
        # the form a_j . u >= d_j, A = [C; -I; I], d = [-b; -U_MAX (6)], and
        # A.dot, which forms its slacks, gives the bits of A @ u
        seen = []
        dual = rta._dual_active_set

        def spy(u0, A, d):
            seen.append((u0, A, d))
            out = dual(u0, A, d)
            for u in (u0, out[0], np.random.default_rng(len(seen)).uniform(-1, 1, 3)):
                if u is not None:
                    assert A.dot(u).tobytes() == (A @ u).tobytes()
            return out

        calls = []
        solve = rta.solve_qp

        def spy_solve(u_des, rows):
            calls.append((np.array(u_des), np.array(rows[0]), np.array(rows[1])))
            return solve(u_des, rows)

        monkeypatch.setattr(rta, "_dual_active_set", spy)
        monkeypatch.setattr(rta, "solve_qp", spy_solve)
        X, U = exp2_requests
        for x, u in zip(X[::4], U[::4]):
            filter_control(x, u, SP)
        assert len(calls) == len(seen) > 50
        for (u_des, C, b), (u0, A, d) in zip(calls, seen):
            A_ref = np.concatenate([C, np.vstack([-np.eye(3), np.eye(3)])])
            d_ref = np.concatenate([-b, np.full(6, -U_MAX)])
            assert A.tobytes() == A_ref.tobytes() and d.tobytes() == d_ref.tobytes()
            assert u0.tobytes() == u_des.tobytes()

    def test_qp_certificates(self, exp2_requests, monkeypatch):
        # every QP the filter solves in 300 steps of experiment 2, open and
        # closed loop: the active rows hold with equality, every row holds,
        # and u - u_des is a non-negative combination of the active normals
        results = []
        solve = rta.solve_qp

        def spy(u_des, rows):
            out = solve(u_des, rows)
            results.append((np.array(u_des), np.array(rows[0]), np.array(rows[1]), out))
            return out

        monkeypatch.setattr(rta, "solve_qp", spy)
        for x, u in zip(*exp2_requests):
            filter_control(x, u, SP)
        solved = [r for r in results if r[3][2]]
        assert len(solved) > 300 and sum(bool(r[3][1]) for r in solved) > 100
        for u_des, C, b, (u, active, _) in solved:
            A = np.concatenate([C, np.vstack([-np.eye(3), np.eye(3)])])
            d = np.concatenate([-b, np.full(6, -U_MAX)])
            slack = A @ u - d
            assert slack.min() >= -rta._FEAS_TOL
            if not active:
                assert u.tobytes() == u_des.tobytes()
                continue
            act = list(active)
            assert np.abs(slack[act]).max() <= 1e-12
            lam, *_ = np.linalg.lstsq(A[act].T, u - u_des, rcond=None)
            assert np.linalg.norm(A[act].T @ lam - (u - u_des)) <= 1e-12
            assert lam.min() >= 0.0
