"""Dynamics: the CW system matrices, propagation against a classic RK4
oracle and the closed-form transition matrix, and sun kinematics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cwinspect.dynamics import (_MAX_SUBSTEPS, DEFAULT_SUBSTEP, DynamicsParams,
                                _add_thrust, _clamp, _free_motion,
                                cw_matrices, cw_stm, hold_maps, rk4_zoh_map,
                                step, sun_vector)

P = DynamicsParams()
N = P.mean_motion


def derivative(x, u):
    A, B = cw_matrices()
    return A @ np.asarray(x, dtype=float) + B @ np.asarray(u, dtype=float)


def rk4_oracle(x, u, dt, max_substep=DEFAULT_SUBSTEP):
    """Reference: the classic four-stage RK4 loop over equal substeps no
    longer than ``max_substep``.  Returns the state after every substep,
    shape (J,) + x.shape."""
    A, B = cw_matrices()
    x = np.asarray(x, dtype=float)
    n_sub = max(1, math.ceil(dt / max_substep - 1e-12))
    h = dt / n_sub
    b = B @ np.asarray(u, dtype=float)
    if x.ndim == 2:
        b = b[:, None]
    out = []
    for _ in range(n_sub):
        k1 = A @ x + b
        k2 = A @ (x + 0.5 * h * k1) + b
        k3 = A @ (x + 0.5 * h * k2) + b
        k4 = A @ (x + h * k3) + b
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    return np.array(out)


def assert_rel_close(got, ref, rel=1e-12):
    """Position and velocity of each state agree within ``rel`` of the
    largest reference component of the same kind."""
    got = np.asarray(got)
    for part in (slice(0, 3), slice(3, 6)):
        err = np.abs(got[part] - ref[part]).max(axis=0)
        scale = np.abs(ref[part]).max(axis=0)
        assert np.all(err <= rel * scale), f"error {err.max():.2e}"


def random_pair(rng):
    x = np.concatenate([rng.normal(0, 300, 3), rng.normal(0, 0.5, 3)])
    return x, rng.uniform(-1, 1, 3)


class TestDerivative:
    """The CW derivative A @ x + B @ u from :func:`cw_matrices`."""

    def test_equilibrium_at_origin(self):
        assert np.allclose(derivative(np.zeros(6), np.zeros(3)), 0.0)
        assert np.allclose(step(np.zeros(6), np.zeros(3), 1.0), 0.0)

    def test_radial_offset_acceleration(self):
        d = derivative([100, 0, 0, 0, 0, 0], np.zeros(3))
        assert d[3] == pytest.approx(3 * N**2 * 100)  # 3.164e-4 m/s^2
        assert d[3] == pytest.approx(3.164e-4, rel=1e-3)
        assert d[4] == d[5] == 0.0

    def test_radial_velocity_coupling(self):
        d = derivative([0, 0, 0, 1, 0, 0], np.zeros(3))
        assert d[3] == 0.0
        assert d[4] == pytest.approx(-2 * N)  # -2.054e-3 m/s^2
        assert d[4] == pytest.approx(-2.054e-3, rel=1e-4)

    def test_thrust_enters_over_mass(self):
        d = derivative(np.zeros(6), [1.2, 0, -0.6])
        assert np.allclose(d[3:6], np.array([1.2, 0, -0.6]) / P.mass)
        assert np.all(d[:3] == 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="control"):
            step(np.zeros(6), [np.nan, 0, 0], 10.0)
        bad = np.zeros(6)
        bad[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            step(bad, np.zeros(3), 10.0)
        with pytest.raises(ValueError, match="finite"):
            step(np.full((2, 6), np.nan), np.zeros(3), 10.0)

    @pytest.mark.parametrize("slot", range(6))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_state_rejected_in_every_slot(self, value, slot):
        # one state is checked on its Python floats, a batch on its array
        x = np.zeros(6)
        x[slot] = value
        for one in (x, x.tolist()):
            with pytest.raises(ValueError, match="states must be finite"):
                step(one, np.zeros(3), 10.0)
        X = np.zeros((2, 6))
        X[1, slot] = value
        with pytest.raises(ValueError, match="states must be finite"):
            step(X, np.zeros(3), 10.0)


class TestStep:
    def test_tiny_step_is_continuous(self):
        x = np.array([50, -20, 30, 0.1, -0.2, 0.05])
        assert np.all(np.abs(step(x, np.zeros(3), 1e-9) - x) < 1e-9)

    def test_nonpositive_dt_rejected(self):
        for dt in (0.0, -1.0):
            with pytest.raises(ValueError):
                step(np.zeros(6), np.zeros(3), dt)

    def test_infinite_dt_rejected(self):
        with pytest.raises(ValueError):
            step(np.zeros(6), np.zeros(3), math.inf)
        with pytest.raises(ValueError):
            step(np.zeros((2, 6)), np.zeros(3), math.inf)
        with pytest.raises(ValueError):  # substep count overflows
            step(np.zeros(6), np.zeros(3), 1e308)

    def test_matches_analytic_over_10s(self):
        x = np.array([100.0, 0, 0, 0, 0, 0])
        got = step(x, np.zeros(3), 10.0)
        ref = cw_stm(10.0) @ x
        assert np.all(np.abs(got[:3] - ref[:3]) < 1e-6)
        assert np.all(np.abs(got[3:] - ref[3:]) < 1e-8)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x1, x2 = rng.normal(0, 50, 6), rng.normal(0, 50, 6)
            u1, u2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            lhs = step(x1 + x2, u1 + u2, 25.0)
            rhs = (step(x1, u1, 25.0) + step(x2, u2, 25.0)
                   - step(np.zeros(6), np.zeros(3), 25.0))
            assert np.all(np.abs(lhs - rhs) < 1e-9)

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 100, (8, 6))
        u = rng.uniform(-1, 1, 3)
        batch = step(X, u, 7.0)
        assert batch.shape == (8, 6)
        assert np.array_equal(batch, [step(x, u, 7.0) for x in X])
        assert step(X[:0], u, 7.0).shape == (0, 6)  # an empty batch

    @pytest.mark.parametrize("dt", [2.0, 10.0])
    def test_one_state_is_the_end_map_product_bit_for_bit(self, dt):
        # one state flies the hold's end map with ndarray.dot, which must
        # give the bits of the @ product
        D, S = hold_maps(dt)
        rng = np.random.default_rng(300 + int(dt))
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(100):
                x, u = random_pair(rng)
                x = scale * x
                expected = x + (D[-1] @ x + S[-1] @ u)
                assert step(x, u, dt).tobytes() == expected.tobytes()

    def test_six_states_are_six_rows(self):
        # a (6, 6) batch is six states, not six columns of states
        rng = np.random.default_rng(4)
        X = np.concatenate([rng.normal(0, 300, (6, 3)), rng.normal(0, 0.5, (6, 3))], axis=1)
        assert np.array_equal(step(X, np.zeros(3), 10.0),
                              [step(x, np.zeros(3), 10.0) for x in X])

    @pytest.mark.parametrize("shape", [(5,), (6, 3), (2, 6, 1)])
    def test_state_shapes_validated(self, shape):
        with pytest.raises(ValueError, match="shape"):
            step(np.zeros(shape), np.zeros(3), 7.0)

    def test_zoh_map_reproduces_rk4(self):
        M, Nmat = rk4_zoh_map(0.2)
        rng = np.random.default_rng(5)
        x = rng.normal(0, 80, 6)
        u = rng.uniform(-1, 1, 3)
        a = u / P.mass
        y = x.copy()
        for _ in range(10):
            y = M @ y + Nmat @ a
        ref = rk4_oracle(x, u, 2.0, max_substep=0.2)[-1]
        assert np.all(np.abs(y - ref) < 1e-12)

    @pytest.mark.parametrize("dt", [7.0, 25.0])
    def test_step_matches_rk4_oracle(self, dt):
        rng = np.random.default_rng(int(dt))
        for _ in range(10):
            x, u = random_pair(rng)
            assert_rel_close(step(x, u, dt), rk4_oracle(x, u, dt)[-1])

    @pytest.mark.parametrize("dt", [7.0, 25.0])
    def test_batch_matches_rk4_oracle(self, dt):
        rng = np.random.default_rng(100 + int(dt))
        X = np.array([random_pair(rng)[0] for _ in range(8)])
        u = rng.uniform(-1, 1, 3)
        # the oracle takes the states as columns
        assert_rel_close(step(X, u, dt).T, rk4_oracle(X.T, u, dt)[-1])

    @pytest.mark.parametrize("dt", [7.0, 25.0])
    def test_hold_maps_match_rk4_oracle(self, dt):
        D, S = hold_maps(dt)
        rng = np.random.default_rng(200 + int(dt))
        x, u = random_pair(rng)
        ref = rk4_oracle(x, u, dt)
        assert len(D) == len(ref) == math.ceil(dt / DEFAULT_SUBSTEP)
        for j in range(len(D)):
            assert_rel_close(x + D[j] @ x + S[j] @ u, ref[j])

    def test_long_step_matches_rk4_oracle(self):
        # 5000 substeps in one call, composed into one cached hold map
        rng = np.random.default_rng(9)
        x, u = random_pair(rng)
        assert_rel_close(step(x, u, 1000.0),
                         rk4_oracle(x, u, 1000.0)[-1])

    def test_hold_maps_give_every_substep(self):
        D, S = hold_maps(2.0)
        assert D.shape == (10, 6, 6) and S.shape == (10, 6, 3)
        M, Nmat = rk4_zoh_map(0.2)
        rng = np.random.default_rng(6)
        x = rng.normal(0, 80, 6)
        u = rng.uniform(-1, 1, 3)
        y = x.copy()
        for j in range(10):
            y = M @ y + Nmat @ (u / P.mass)
            assert np.all(np.abs(x + D[j] @ x + S[j] @ u - y) < 1e-10)

    def test_hold_maps_validated_and_read_only(self):
        D, S = hold_maps(2.0)
        with pytest.raises(ValueError):
            D[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            S[0, 0, 0] = 1.0
        for period in (0.0, -2.0, math.inf, math.nan,
                       1e308):  # the substep count overflows
            with pytest.raises(ValueError):
                hold_maps(period)

    def test_substep_count_bounded(self):
        # 432 bytes per stored substep: a hold of 1e7 s would ask for 21.6 GB,
        # so too many substeps are refused before anything is allocated
        with pytest.raises(ValueError, match="substeps"):
            step(np.zeros(6), np.zeros(3), 1e7)
        with pytest.raises(ValueError, match="substeps"):
            step(np.zeros((2, 6)), np.zeros(3), 1e7)
        with pytest.raises(ValueError, match="substeps"):
            hold_maps(DEFAULT_SUBSTEP * (_MAX_SUBSTEPS + 1))


class TestAnalytic:
    def test_identity_at_zero(self):
        x = np.array([12, -4, 9, 0.1, 0.2, -0.3])
        assert np.allclose(cw_stm(0.0) @ x, x)

    def test_driftfree_state_is_periodic(self):
        # ydot0 = -2 n x0 cancels the along-track secular drift, so the
        # in-plane motion closes after one orbit period
        x = np.array([100, 0, 0, 0, -2 * N * 100, 0])
        out = cw_stm(2 * math.pi / N) @ x
        assert np.all(np.abs(out[:3] - x[:3]) < 1e-6)

    def test_radial_offset_drifts_along_track(self):
        # a pure radial offset is NOT an equilibrium: it drifts -6*pi*2*x0
        # in-track per orbit; RK4 and the transition matrix must agree on it
        x = np.array([100.0, 0, 0, 0, 0, 0])
        T = 2 * math.pi / N
        ref = cw_stm(T) @ x
        assert ref[1] == pytest.approx(-12 * math.pi * 100, rel=1e-12)
        assert np.all(np.abs(step(x, np.zeros(3), T)[:3] - ref[:3]) < 1e-6)

    def test_cross_track_half_period(self):
        out = cw_stm(math.pi / N) @ np.array([0, 0, 10, 0, 0, 0])
        assert out[2] == pytest.approx(-10.0, abs=1e-9)

    def test_stm_derivative_matches_system_matrix(self):
        A, _ = cw_matrices()
        dt = 1e-7
        fd = (cw_stm(dt) - np.eye(6)) / dt
        assert np.all(np.abs(fd - A) < 1e-7)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_degenerate_arguments_rejected(self, t):
        with pytest.raises(ValueError):
            cw_stm(t)


class TestSunVector:
    def test_cardinal_angles(self):
        assert np.allclose(sun_vector(0.0), [1, 0, 0])
        assert np.allclose(sun_vector(math.pi / 2), [0, 1, 0], atol=1e-15)

    def test_initial_mission_angle(self):
        v = sun_vector(3.42)
        assert v[0] == pytest.approx(math.cos(3.42))
        assert v[1] == pytest.approx(math.sin(3.42))
        assert v[0] == pytest.approx(-0.9615, abs=5e-4)
        assert v[1] == pytest.approx(-0.2748, abs=5e-4)
        assert v[2] == 0.0

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(11)
        for theta in rng.uniform(-50, 50, 200):
            assert abs(np.linalg.norm(sun_vector(theta)) - 1.0) < 1e-12


class TestSharedHelpers:
    """The clamp and the split hold flight against the numpy forms they
    replace, bit for bit."""

    EDGES = [0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0),
             0.3, -0.3, 2.5, -2.5, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf,
             math.nan]

    @pytest.mark.parametrize("limit", [1.0, 0.3, 2.5])
    def test_clamp_is_np_clip_on_edges(self, limit):
        # signed zeros, values exactly at +-limit, huge values and NaN
        v = np.array(self.EDGES)
        assert _clamp(v, limit).tobytes() == np.clip(v, -limit, limit).tobytes()
        assert np.signbit(_clamp(np.array([-0.0]), limit)[0])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(u=arrays(float, st.sampled_from([(3,), (4, 3)]),
                    elements=st.floats(allow_subnormal=True)),
           limit=st.floats(1e-6, 1e6))
    def test_clamp_is_np_clip(self, u, limit):
        assert _clamp(u, limit).tobytes() == np.clip(u, -limit, limit).tobytes()

    @pytest.mark.parametrize("period", [2.0, 10.0])
    def test_free_motion_cut_down_flies_as_the_cut_down_states(self, period):
        # the filter forms D @ x once for its states and cuts it down with
        # them: each iterate's hold is still the one flown from the states
        D, S = hold_maps(period)
        rng = np.random.default_rng(4)
        X = np.concatenate([rng.normal(0, 300, (9, 3)), rng.normal(0, 0.5, (9, 3))], axis=1)
        U = rng.uniform(-1, 1, (9, 3))
        free = _free_motion(D, X)
        for keep in (np.arange(9), np.array([0, 3, 4, 8]), np.array([5])):
            x, u = X[keep], U[keep]
            fly = x[:, None] + (D @ x[:, None, :, None] + S @ u[..., None, :, None])[..., 0]
            assert _add_thrust(x, free[keep], S, u).tobytes() == fly.tobytes()
