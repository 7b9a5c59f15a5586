"""Barrier functions: values, analytic gradients vs finite differences,
linearized rows, and safe-set membership."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwinspect.dynamics import DynamicsParams, cw_matrices
from cwinspect.safety import (_COLUMNS, _FLOATS, DEFAULT_ALPHA_GAINS, SafetyParams,
                              _barrier_pass, _hold_jacobian, _hold_pass,
                              cbf_rows, h_values, h_values_batch,
                              hold_gradients, hold_values, keep_in_guard)

SP = SafetyParams()
DP = DynamicsParams()


def state(p, v):
    return np.concatenate([np.asarray(p, float), np.asarray(v, float)])


def is_safe(x, params):
    """Safe-set membership as callers write it: every barrier >= 0."""
    return h_values(x, params).min() >= 0


def dense_pass(x, ops, params=SP):
    """h (..., 6) and the dense gradients (..., 6, 6), indexed [state,
    constraint, component], of the barrier pass that cbf_rows takes its
    rows from: on one state's six floats with ``ops`` = _FLOATS, or on a
    batch's six columns with _COLUMNS."""
    h, G, _ = _barrier_pass(x, params, ops)
    pack = ops[-1]
    G = pack([g for row in G for g in row])
    return pack(h), G.reshape(G.shape[:-1] + (6, 6))


def grad_h(states, params):
    """Barrier gradients (N, 6, 6) of one state (6,) or states (N, 6)."""
    return dense_pass(np.atleast_2d(np.asarray(states, dtype=float)).T, _COLUMNS, params)[1]


def random_nonsingular_states(count, seed):
    """States away from the gradient singular sets (collision/keep-in radii,
    zero speed, origin)."""
    rng = np.random.default_rng(seed)
    out = np.empty((count, 6))
    got = 0
    while got < count:
        p = rng.normal(0, 200, 3)
        v = rng.normal(0, 0.5, 3)
        rho = np.linalg.norm(p)
        if not (15.0 < rho < 900.0):
            continue
        if np.linalg.norm(v) < 0.05:
            continue
        out[got, :3] = p
        out[got, 3:] = v
        got += 1
    return out


class TestBarrierValues:
    def test_keep_out_boundary(self):
        h = h_values(state([10, 0, 0], [0, 0, 0]), SP)
        assert h[0] == pytest.approx(0.0, abs=1e-12)

    def test_keep_in_boundary(self):
        h = h_values(state([1000, 0, 0], [0, 0, 0]), SP)
        assert h[1] == pytest.approx(0.0, abs=1e-12)

    def test_speed_allowance_at_100m(self):
        h = h_values(state([100, 0, 0], [0, 0, 0]), SP)
        assert h[2] == pytest.approx(0.2 + 2 * 0.001027 * 100)
        assert h[2] == pytest.approx(0.4054, abs=1e-10)

    def test_axis_speed_limits(self):
        assert h_values(state([100, 0, 0], [1, 0, 0]), SP)[3] == pytest.approx(0.0)
        assert h_values(state([100, 0, 0], [0.5, 0, 0]), SP)[3] == pytest.approx(0.75)

    def test_signed_extension_inside_keep_out(self):
        h = h_values(state([5, 0, 0], [0, 0, 0]), SP)
        assert h[0] == pytest.approx(-math.sqrt(2 * SP.a_max * 5.0))

    def test_range_rate_zero_at_origin(self):
        h = h_values(state([0, 0, 0], [0.3, 0, 0]), SP)
        # rdot defined as 0; h1 reports the signed keep-out depth alone
        assert h[0] == pytest.approx(-math.sqrt(2 * SP.a_max * 10.0))

    def test_approach_speed_lowers_h1_and_raises_h2(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.normal(0, 100, 3)
            rho = np.linalg.norm(p)
            if not 15 < rho < 900:
                continue
            p_hat = p / rho
            inward = state(p, -0.3 * p_hat)
            outward = state(p, 0.3 * p_hat)
            hi, ho = h_values(inward, SP), h_values(outward, SP)
            assert hi[0] < ho[0]  # approaching shrinks the keep-out margin
            assert hi[1] > ho[1]  # and grows the keep-in margin

    def test_state_shapes_validated(self):
        # only (6,) and (N, 6) are states; other sizes divisible by 6 are not
        for bad in (np.zeros((3, 4)), np.zeros(12), np.zeros((2, 6, 1)),
                    np.zeros((6, 2))):
            with pytest.raises(ValueError):
                h_values_batch(bad, SP)
            with pytest.raises(ValueError):
                cbf_rows(bad, SP)
        assert h_values_batch(np.zeros((0, 6)), SP).shape == (0, 6)


class TestOneOrBatch:
    def test_one_state(self):
        assert h_values(state([100, 0, 0], [0, 0, 0]), SP).shape == (6,)

    def test_batch_equals_rows_bitwise(self):
        # a strided view, as the harness passes the state columns of its rows
        buf = np.zeros((40, 24))
        buf[:, 1:7] = random_nonsingular_states(40, seed=5)
        X = buf[:, 1:7]
        H = h_values(X, SP)
        assert H.shape == (40, 6)
        assert np.array_equal(H, np.array([h_values(x, SP) for x in X]))
        assert np.array_equal(H, h_values_batch(X, SP))

    def test_empty_batch(self):
        assert h_values(np.zeros((0, 6)), SP).shape == (0, 6)
        # the columns of no states stack into rows of no states
        C, b = cbf_rows(np.zeros((0, 6)), SP)
        assert C.shape == (0, 6, 3) and b.shape == (0, 6)

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (12,), (2, 6, 1), (6, 2)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            h_values(np.zeros(shape), SP)

    @pytest.mark.parametrize("batch", [False, True], ids=["one", "batch"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [h_values, is_safe, cbf_rows],
                             ids=["h_values", "is_safe", "cbf_rows"])
    def test_nonfinite_states_rejected(self, fn, bad, batch):
        # these used to return NaN values and rows and a False safe-set check
        x = np.full((3, 6) if batch else 6, 100.0)
        x[(-1, 4) if batch else 4] = bad
        with pytest.raises(ValueError, match="finite"):
            fn(x, SP)

    def test_batch_form_does_not_call_h_values(self, monkeypatch):
        # a traced h_values must not count the batch form's calls
        import cwinspect.safety as safety

        def refuse(*args, **kwargs):
            raise AssertionError("h_values called")

        X = random_nonsingular_states(8, seed=2)
        expected = h_values(X, SP)
        monkeypatch.setattr(safety, "h_values", refuse)
        assert np.array_equal(safety.h_values_batch(X, SP), expected)


class TestGradients:
    def test_axis_speed_gradient(self):
        g = grad_h(state([3, 4, 5], [0.7, -0.1, 0.2]), SP)[0, 3]
        assert np.allclose(g, [0, 0, 0, -1.4, 0, 0])

    def test_speed_allowance_partials(self):
        g = grad_h(state([100, 0, 0], [1, 0, 0]), SP)[0, 2]
        assert g[0] == pytest.approx(SP.nu1)
        assert g[0] == pytest.approx(2.054e-3, rel=1e-4)
        assert g[3] == pytest.approx(-1.0)

    def test_finite_difference_agreement(self):
        X = random_nonsingular_states(200, seed=17)
        G = grad_h(X, SP)
        eps = 1e-5
        for j in range(6):
            Xp = X.copy()
            Xp[:, j] += eps
            Xm = X.copy()
            Xm[:, j] -= eps
            fd = (h_values_batch(Xp, SP) - h_values_batch(Xm, SP)) / (2 * eps)
            for i in range(6):
                err = np.abs(G[:, i, j] - fd[:, i])
                scale = np.maximum(np.linalg.norm(G[:, i, :], axis=1), 1e-8)
                assert np.all(err / scale < 1e-5)

    def test_singular_point_smoothed(self):
        G = grad_h(state([0, 0, 0], [0, 0, 0]), SP)
        assert np.all(np.isfinite(G))


class TestRows:
    def test_axis_row_at_drift_free_point(self):
        # p along y so the drift term of h4 vanishes; xd at the limit
        C, b = cbf_rows(state([0, 500, 0], [1, 0, 0]), SP)
        assert np.allclose(C[3], [-2.0 / DP.mass, 0, 0])
        assert np.allclose(C[3], [-1.0 / 6.0, 0, 0])
        assert b[3] == pytest.approx(0.0, abs=1e-15)

    def test_alpha_zero_at_boundary(self):
        # at h = 0 the class-K term vanishes: the row's b is L_f h alone
        A, _ = cw_matrices()
        x = state([0, 500, 50], [1, 0.2, 0])
        assert h_values(x, SP)[3] == 0.0
        _, b = cbf_rows(x, SP)
        assert b[3] == grad_h(x, SP)[0, 3] @ (A @ x)

    def test_deep_safe_rows_admit_zero_thrust(self):
        C, b = cbf_rows(state([100, 0, 0], [0, 0, 0]), SP)
        assert np.all(b > 0.0)
        assert np.all(np.linalg.norm(C, axis=1) < 10.0)

    def test_rows_time_invariant(self):
        x = state([80, -20, 30], [0.1, 0.2, -0.1])
        Ca, ba = cbf_rows(x, SP)
        Cb, bb = cbf_rows(x, SP)  # h depends on state only; no time input exists
        assert np.array_equal(Ca, Cb) and np.array_equal(ba, bb)

    def test_boundary_equality_zeroes_hdot(self):
        # with h_i = 0, any u on row-i equality gives hdot_i = -alpha(0) = 0
        A, B = cw_matrices()
        x = state([0, 500, 0], [1, 0, 0])  # h4 = 0 exactly
        C, b = cbf_rows(x, SP)
        c, b = C[3], b[3]
        u = np.array([-b / c[0] if c[0] else 0.0, 0.4, -0.2])
        assert c @ u + b == pytest.approx(0.0, abs=1e-12)
        g = grad_h(x, SP)[0, 3]
        hdot = g @ (A @ x + B @ u)
        assert hdot == pytest.approx(0.0, abs=1e-9)

    def test_batch_matches_scalar(self):
        X = random_nonsingular_states(20, seed=8)
        C, b = cbf_rows(X, SP)
        assert C.shape == (20, 6, 3) and b.shape == (20, 6)
        # the filter's slack C @ u rounds a transposed view of the same
        # values differently
        assert C.flags.c_contiguous and b.flags.c_contiguous
        for k in range(20):
            Ck, bk = cbf_rows(X[k], SP)
            assert Ck.shape == (6, 3) and bk.shape == (6,)
            assert np.allclose(C[k], Ck)
            assert np.allclose(b[k], bk)

    def test_rows_are_the_row_formula_bit_for_bit(self):
        # the rows of the shared barrier pass equal, bit for bit, the row
        # formula C = L_g h = G[:, :, 3:] / m, b = L_f h + gain h = G . (A x)
        # + gain h evaluated from the public values, gradients and drift,
        # the drift of each state formed on its own as a one-state call
        # forms it (one product over the batch rounds some rows differently)
        rng = np.random.default_rng(29)
        X = np.concatenate([rng.normal(0, 300, (600, 3)), rng.normal(0, 0.5, (600, 3))], axis=1)
        X[:2, :3] = 0.0  # the origin, moving and at rest
        X[1, 3:] = 0.0
        unit = rng.normal(size=(200, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        unit[:3] = np.eye(3)
        X[2:102, :3] = SP.collision_radius * unit[:100]  # on the keep-out sphere
        X[102:202, :3] = SP.r_max * unit[100:]  # on the keep-in sphere
        A, _ = cw_matrices()

        def row_formula(states):
            h, G = h_values_batch(states, SP), grad_h(states, SP)
            return (G[:, :, 3:] / DP.mass,
                    np.einsum("nij,nj->ni", G, (states[:, None] @ A.T)[:, 0])
                    + DEFAULT_ALPHA_GAINS * h)

        C_ref, b_ref = row_formula(X)
        C, b = cbf_rows(X, SP)
        assert np.array_equal(C, C_ref) and np.array_equal(b, b_ref)
        for x in X:
            C_ref, b_ref = row_formula(x[None])
            C, b = cbf_rows(x, SP)
            assert np.array_equal(C, C_ref[0]) and np.array_equal(b, b_ref[0])


class TestSafeSet:
    def test_interior_point(self):
        assert is_safe(state([100, 0, 0], [0, 0, 0]), SP)

    def test_inside_keep_out(self):
        assert not is_safe(state([5, 0, 0], [0, 0, 0]), SP)

    def test_axis_speed_violation(self):
        assert not is_safe(state([100, 0, 0], [0, 1.5, 0]), SP)

    def test_default_gains_positive(self):
        assert np.all(DEFAULT_ALPHA_GAINS > 0)


class TestHoldConditions:
    def test_sign_matches_barriers(self):
        # k_i >= 0 exactly where h_i >= 0, for the stated keep-in cone, away
        # from the keep-out (keep-in) interior that k1 (k2) also excludes
        rng = np.random.default_rng(12)
        p_hat = rng.normal(0, 1, (4000, 3))
        p_hat /= np.linalg.norm(p_hat, axis=1, keepdims=True)
        rho = rng.uniform(10.0, 1000.0, 4000)
        X = np.concatenate([rho[:, None] * p_hat, rng.normal(0, 0.6, (4000, 3))], axis=1)
        h = h_values_batch(X, SP)
        k = hold_values(X, SP)
        assert np.array_equal(k[:, 0] >= 0, h[:, 0] >= 0)
        assert np.array_equal(k[:, 1] >= 0, h[:, 1] >= 0)
        assert np.allclose(k[:, 2], h[:, 2], rtol=0.0, atol=1e-12)
        assert np.array_equal(np.minimum(k[:, 3:6], k[:, 6:]) >= 0, h[:, 3:] >= 0)

    def test_keep_out_interior_excluded(self):
        # the odd extension admits h1 >= 0 inside 10 m when leaving fast; k1 not
        x = state([9.9, 0, 0], [0.5, 0, 0])
        assert h_values(x, SP)[0] > 0.0
        assert hold_values(x, SP)[0] < 0.0

    def test_guard_inside_stated_keep_in(self):
        rng = np.random.default_rng(13)
        X = np.concatenate([rng.uniform(900, 1000, (2000, 1)) * [[1.0, 0, 0]],
                            rng.uniform(-1.0, 1.0, (2000, 3))], axis=1)
        inside = hold_values(X, SP, guarded=True)[:, 1] >= 0.0
        assert inside.any()
        assert np.all(h_values_batch(X[inside], SP)[:, 1] >= 0.0)

    def test_stated_keep_in_not_invariant(self):
        # every barrier holds with h2 = 0, yet no thrust in the box keeps
        # h2 from falling: the centripetal term is not budgeted in a_max
        x = state([999.99, 0, 0], [math.sqrt(2 * SP.a_max * 0.01), 1.0, 1.0])
        h = h_values(x, SP)
        assert np.all(h >= -1e-12) and h[1] == pytest.approx(0.0, abs=1e-12)
        C, b = cbf_rows(x, SP)  # c.u + b = dh2/dt since alpha(0) = 0
        best = b[1] + DP.u_max * np.abs(C[1]).sum()
        assert best == pytest.approx(-0.0019, abs=1e-4)
        assert hold_values(x, SP, guarded=True)[1] < 0.0  # outside the guard

    @pytest.mark.parametrize("guarded", [False, True])
    def test_gradients_match_finite_differences(self, guarded):
        X = random_nonsingular_states(200, seed=14)
        G = hold_gradients(X, SP, guarded=guarded)
        eps = 1e-6
        for j in range(6):
            Xp = X.copy()
            Xp[:, j] += eps
            Xm = X.copy()
            Xm[:, j] -= eps
            fd = (hold_values(Xp, SP, guarded=guarded)
                  - hold_values(Xm, SP, guarded=guarded)) / (2 * eps)
            scale = np.maximum(np.linalg.norm(G, axis=2), 1e-8)
            assert np.all(np.abs(G[:, :, j] - fd) / scale < 1e-6)

    def test_shapes_broadcast(self):
        X = random_nonsingular_states(12, seed=15).reshape(3, 4, 6)
        assert hold_values(X, SP).shape == (3, 4, 9)
        assert hold_gradients(X, SP).shape == (3, 4, 9, 6)


class TestParams:
    def test_defaults(self):
        assert SP.a_max == 0.078
        assert SP.collision_radius == 10.0
        assert SP.r_max == 1000.0
        assert SP.nu0 == 0.2
        assert SP.nu1 == pytest.approx(2.054e-3)
        assert SP.v_max == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SafetyParams(a_max=-0.1)
        with pytest.raises(ValueError):
            SafetyParams(r_d=600.0, r_c=600.0)

    @pytest.mark.parametrize("record, field", [
        (record, f.name) for record in (SafetyParams, DynamicsParams)
        for f in dataclasses.fields(record)])
    def test_nonfinite_fields_rejected(self, record, field):
        if record is DynamicsParams:
            # the one spacecraft pair takes no value at all, finite or not:
            # DynamicsParams(u_max=0.1) used to fly a weaker thruster
            for value in (math.inf, math.nan, 0.1, getattr(DynamicsParams(), field)):
                with pytest.raises(TypeError):
                    DynamicsParams(**{field: value})
        else:
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError, match="finite"):
                    record(**{field: bad})

    def test_keep_in_guard(self):
        # the braking the box always delivers, u_max/(sqrt(2) m) less drift,
        # Coriolis and centripetal terms, is 0.0499 for the defaults
        a_g, r_g = keep_in_guard(SP)
        assert 0.045 < a_g < 0.0499 and r_g == 999.0
        # a smaller stated braking rate is planned as it is
        assert keep_in_guard(SafetyParams(a_max=0.03)) == (0.03, 999.0)
        # a speed limit the box cannot brake from at the keep-in sphere has
        # no guard: v_max = 5 m/s leaves -0.034 m/s^2
        with pytest.raises(ValueError, match="cannot brake"):
            keep_in_guard(SafetyParams(v_max=5.0))
        with pytest.raises(ValueError):
            keep_in_guard(SafetyParams(r_max=10.5))


# The passes as they were written before their per-call overhead was cut:
# the oracles of the bit-for-bit tests below.
SIGNS = np.array([1.0, -1.0])
VELOCITY = np.arange(3, 6)


def barriers_formula(X, params):
    """h (N, 6) and the dense gradients (N, 6, 6) of states X (N, 6)."""
    N = X.shape[0]
    PV = X.reshape(N, 2, 3)
    norms = np.linalg.norm(PV, axis=2)
    rho = norms[:, 0]
    v = X[:, 3:]
    pv = np.einsum("ij,ij->i", X[:, :3], v)
    dev = rho[:, None] * SIGNS + (-params.collision_radius, params.r_max)
    root = np.sqrt(2.0 * params.a_max * np.abs(dev))
    rdot = pv / np.where(rho > 0.0, rho, np.inf)
    h = np.empty((N, 6))
    h[:, :2] = np.sign(dev) * root + rdot[:, None] * SIGNS
    h[:, 2] = params.nu0 + params.nu1 * rho - norms[:, 1]
    h[:, 3:] = params.v_max**2 - v**2
    floored = np.maximum(norms, 1e-6)
    hats = PV / floored[:, :, None]
    p_hat = hats[:, 0]
    rho_f = floored[:, :1]
    drdot_dp = (v - (pv / rho_f[:, 0])[:, None] * p_hat) / rho_f
    q = params.a_max / np.maximum(root, 1e-6)
    G = np.zeros((N, 6, 6))
    G[:, :2, :3] = (q * SIGNS)[:, :, None] * p_hat[:, None] + SIGNS[:, None] * drdot_dp[:, None]
    G[:, :2, 3:] = SIGNS[:, None] * p_hat[:, None]
    G[:, 2, :3] = params.nu1 * p_hat
    G[:, 2, 3:] = -hats[:, 1]
    G[:, VELOCITY, VELOCITY] = -2.0 * v
    return h, G


def rows_formula(x, params):
    """The rows (6, 3), (6,) of one state (6,)."""
    h, G = barriers_formula(x[None], params)
    A, _ = cw_matrices()
    b = np.einsum("nij,nj->ni", G, x[None] @ A.T) + DEFAULT_ALPHA_GAINS * h
    return G[0, :, 3:] / DP.mass, b[0]


def hold_pass_formula(X, params, keep_in=None):
    PV = X.reshape(X.shape[:-1] + (2, 3))
    norms = np.sqrt(np.einsum("...i,...i->...", PV, PV))
    rho = norms[..., 0]
    floored = np.maximum(norms, 1e-6)
    rdot = np.einsum("...i,...i->...", X[..., :3], X[..., 3:]) / floored[..., 0]
    a_in, r_in = (params.a_max, params.r_max) if keep_in is None else keep_in
    k = np.empty(X.shape[:-1] + (9,))
    k[..., 0] = 2.0 * params.a_max * (rho - params.collision_radius) - np.minimum(rdot, 0.0) ** 2
    k[..., 1] = 2.0 * a_in * (r_in - rho) - np.maximum(rdot, 0.0) ** 2
    k[..., 2] = params.nu0 + params.nu1 * rho - norms[..., 1]
    k[..., 3:6] = params.v_max - X[..., 3:]
    k[..., 6:9] = params.v_max + X[..., 3:]
    return k, (floored, rdot)


def hold_jacobian_formula(X, T, params, keep_in=None):
    floored, rdot = T
    hats = X.reshape(X.shape[:-1] + (2, 3)) / floored[..., None]
    p_hat = hats[..., 0, :]
    rdot = rdot[..., None]
    a_in = params.a_max if keep_in is None else keep_in[0]
    drdot_dp = (X[..., 3:] - rdot * p_hat) / floored[..., :1]
    w1 = -2.0 * np.minimum(rdot, 0.0)
    w2 = -2.0 * np.maximum(rdot, 0.0)
    G = np.empty(X.shape[:-1] + (3, 6))
    G[..., 0, :3] = 2.0 * params.a_max * p_hat + w1 * drdot_dp
    G[..., 0, 3:] = w1 * p_hat
    G[..., 1, :3] = -2.0 * a_in * p_hat + w2 * drdot_dp
    G[..., 1, 3:] = w2 * p_hat
    G[..., 2, :3] = params.nu1 * p_hat
    G[..., 2, 3:] = -hats[..., 1, :]
    return G


def same_bits(a, b):
    """Equal arrays, -0.0 told from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@st.composite
def oracle_state(draw):
    """A state anywhere in the keep-in sphere and speed box, at the origin,
    on the keep-out or keep-in sphere (where a braking-cone root is 0), with
    one axis at +-v_max, or with a range or speed that is not 0 but below
    the 1e-6 floor of the gradients; signed zeros included."""
    p = [draw(st.floats(-1200.0, 1200.0)) for _ in range(3)]
    v = [draw(st.floats(-1.5, 1.5)) for _ in range(3)]
    kind = draw(st.sampled_from(["free", "origin", "keep_out", "keep_in", "axis", "floor"]))
    if kind == "floor":  # one axis of p or v, the others signed zeros
        w = p if draw(st.booleans()) else v
        w[:] = [draw(st.sampled_from([0.0, -0.0])) for _ in range(3)]
        w[draw(st.integers(0, 2))] = draw(st.sampled_from([1.0, -1.0])) * draw(
            st.floats(0.0, 1e-6, exclude_min=True, exclude_max=True))
    elif kind == "origin":
        p = [draw(st.sampled_from([0.0, -0.0])) for _ in range(3)]
    elif kind in ("keep_out", "keep_in"):
        p = [0.0, 0.0, 0.0]
        p[draw(st.integers(0, 2))] = draw(st.sampled_from([1.0, -1.0])) * (
            SP.collision_radius if kind == "keep_out" else SP.r_max)
    elif kind == "axis":
        v[draw(st.integers(0, 2))] = draw(st.sampled_from([SP.v_max, -SP.v_max]))
    return p + v


ORACLE_BATCH = st.lists(oracle_state(), min_size=1, max_size=6).map(np.array)


class TestPassesMatchTheirFormulas:
    """The barrier, row and hold passes, and their one-state calls, give the
    bits of the formulas they were cut down from."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(X=ORACLE_BATCH)
    # p.v = -0.0 in the pass's pairs, +0.0 in einsum's sum
    @example(X=np.array([[0.0, 0.0, -0.0, -0.0, -0.0, 0.0]]))
    def test_barrier_pass(self, X):
        # the one pass on the batch's columns and on each state's floats
        h_ref, G_ref = barriers_formula(X, SP)
        h, G = dense_pass(X.T, _COLUMNS)
        assert same_bits(h, h_ref) and same_bits(G, G_ref)
        assert same_bits(_COLUMNS[-1](_barrier_pass(X.T, SP, _COLUMNS, rows=False)), h_ref)
        for k, x in enumerate(X.tolist()):
            h, G = dense_pass(x, _FLOATS)
            assert same_bits(h, h_ref[k]) and same_bits(G, G_ref[k]), k
            assert same_bits(np.array(_barrier_pass(x, SP, _FLOATS, rows=False)), h_ref[k]), k

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(X=ORACLE_BATCH)
    def test_rows(self, X):
        # one state's rows, alone or as a row of a batch
        C_batch, b_batch = cbf_rows(X, SP)
        for k, x in enumerate(X):
            C_ref, b_ref = rows_formula(x, SP)
            C, b = cbf_rows(x, SP)
            assert same_bits(C, C_ref) and same_bits(b, b_ref)
            assert same_bits(C_batch[k], C_ref) and same_bits(b_batch[k], b_ref)

    def test_batch_rows_are_one_state_calls(self):
        # one product over the batch's drifts rounded rows differently from
        # their one-state calls: 17 rows of b of these 3000 states, and one
        # filter row of the 3000 closed-loop requests of experiment 2
        rng = np.random.default_rng(8)
        X = np.concatenate([rng.normal(0, 300, (3000, 3)), rng.normal(0, 0.5, (3000, 3))], axis=1)
        X[:1000] *= np.exp(rng.normal(0, 2, (1000, 1)))
        C, b = cbf_rows(X, SP)
        for k, x in enumerate(X):
            C1, b1 = cbf_rows(x, SP)
            assert same_bits(C[k], C1) and same_bits(b[k], b1), k

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(X=ORACLE_BATCH, guarded=st.booleans(), layout=st.sampled_from(["row", "column"]))
    def test_hold_pass_and_jacobian(self, X, guarded, layout):
        keep_in = keep_in_guard(SP) if guarded else None
        X = X[:, None] if layout == "row" else X[None]  # (N, 1, 6) or (1, N, 6)
        K_ref, T_ref = hold_pass_formula(X, SP, keep_in)
        terms = SP._guarded_hold_terms if guarded else SP._hold_terms
        K, T = _hold_pass(X, terms)
        assert same_bits(K, K_ref) and all(same_bits(t, r) for t, r in zip(T, T_ref))
        assert same_bits(_hold_jacobian(X, T, terms), hold_jacobian_formula(X, T_ref, SP, keep_in))

    @pytest.mark.parametrize("layout", ["fortran", "stride16"])
    def test_batch_layout_keeps_the_bits(self, layout):
        # a batch that is not C-contiguous gets the rows and values of its
        # C-ordered copy and of its one-state calls: einsum summed p.v in
        # sequence on such rows, and 8 of these 200 rows differed in either
        # layout
        rng = np.random.default_rng(9)
        X = np.concatenate([rng.normal(0, 300, (200, 3)), rng.normal(0, 0.5, (200, 3))], axis=1)
        if layout == "fortran":
            view = np.asfortranarray(X)
        else:
            wide = np.zeros((200, 12))
            wide[:, ::2] = X
            view = wide[:, ::2]
        assert not view.flags.c_contiguous and np.array_equal(view, X)
        (C, b), (C_ref, b_ref) = cbf_rows(view, SP), cbf_rows(X, SP)
        assert same_bits(C, C_ref) and same_bits(b, b_ref)
        h = h_values(view, SP)
        assert same_bits(h, h_values(X, SP))
        for k, x in enumerate(X):
            C1, b1 = cbf_rows(x, SP)
            assert same_bits(C[k], C1) and same_bits(b[k], b1), k
            assert same_bits(h[k], h_values(x, SP)), k

    def test_norms_are_np_linalg_norm(self):
        # the barrier pass adds the three squares in np.linalg.norm's order,
        # on the batch's columns and on each state's floats
        rng = np.random.default_rng(3)
        X = rng.normal(0, 300, (2000, 6)) * np.exp(rng.normal(0, 4, (2000, 6)))
        h3_ref = (SP.nu0 + SP.nu1 * np.linalg.norm(X[:, :3], axis=1)
                  - np.linalg.norm(X[:, 3:], axis=1))
        assert same_bits(_barrier_pass(X.T, SP, _COLUMNS, rows=False)[2], h3_ref)
        h3 = [_barrier_pass(x, SP, _FLOATS, rows=False)[2] for x in X.tolist()]
        assert same_bits(np.array(h3), h3_ref)


class TestHoldInputs:
    @pytest.mark.parametrize("fn", [hold_values, hold_gradients])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_states_rejected(self, fn, bad):
        # these used to return NaN values with RuntimeWarnings
        X = np.full((2, 3, 6), 100.0)
        X[1, 2, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            fn(X, SP)

    @pytest.mark.parametrize("fn", [hold_values, hold_gradients])
    @pytest.mark.parametrize("shape", [(5,), (2, 7), (), (6, 2)])
    def test_last_axis_must_be_a_state(self, fn, shape):
        # a (5,) state used to fail inside numpy with a reshape error
        with pytest.raises(ValueError, match=r"states must have shape \(\.\.\., 6\)"):
            fn(np.ones(shape), SP)
