"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 2 flies the library's sampled-data filter
(`cwinspect.rta.filter_control`, on a batch of states) over the zero-order
hold and checks every barrier at every 0.2 s substep against the stated
-1e-3 bound; see README for the guarantee and its scope.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import cwinspect as cw
from cwinspect.dynamics import DEFAULT_SUBSTEP, cw_stm, rk4_zoh_map, step
from cwinspect.harness import default_experiment, emit, run
from cwinspect.rta import DEFAULT_PERIOD, filter_control
from cwinspect.safety import _COLUMNS, _barrier_pass, h_values_batch
from test_rta import lattice_search

DP = cw.DynamicsParams()
SP = cw.SafetyParams()


@contextmanager
def report(number, title):
    try:
        yield
    except AssertionError as exc:
        first = str(exc).splitlines()[0] if str(exc) else "assertion failed"
        print(f"[criterion {number}] FAIL: {title} -- {first}")
        raise
    print(f"[criterion {number}] PASS: {title}")


# -- criterion 1: boundary-riding reproduction ------------------------------

def test_criterion_1_lqr_with_filter_settles_at_keep_out_boundary():
    t0 = time.perf_counter()
    log, summary = run(default_experiment(2))
    runtime = time.perf_counter() - t0
    dist = np.linalg.norm(log.states[:, :3], axis=1)
    tail = dist[log.t >= log.t[-1] - 1000.0]

    cfg_off = default_experiment(2)
    cfg_off.rta_enabled = False
    _, summary_off = run(cfg_off)

    with report(1, "filtered LQR settles at the 10 m boundary; raw LQR collides"):
        assert runtime < 10.0, f"runtime {runtime:.1f}s"
        assert summary["min_distance"] >= 9.5, \
            f"min distance {summary['min_distance']:.3f} m"
        assert np.all(np.abs(tail - 10.0) <= 0.5), \
            f"tail excursion {np.abs(tail - 10.0).max():.3f} m"
        assert summary["interventions"] > 0
        assert summary_off["min_distance"] < 10.0, \
            "control run without the filter stayed outside 10 m"
    print(f"    runtime {runtime:.2f} s, min distance "
          f"{summary['min_distance']:.3f} m, tail max |d-10| "
          f"{np.abs(tail - 10.0).max():.3f} m, unfiltered min "
          f"{summary_off['min_distance']:.3f} m")


# -- criterion 2: forward invariance under zero-order hold ------------------

def _sample_safe_states(count, seed, margin=0.05):
    rng = np.random.default_rng(seed)
    out = np.empty((count, 6))
    got = 0
    while got < count:
        direction = rng.normal(0, 1, 3)
        direction /= np.linalg.norm(direction)
        p = rng.uniform(12.0, 700.0) * direction
        v = rng.uniform(-0.9, 0.9, 3)
        x = np.concatenate([p, v])
        if h_values_batch(x, SP)[0].min() >= margin:
            out[got] = x
            got += 1
    return out


def _invariance_min(states, controller, seed, duration=6000.0):
    """Filter a family of runs at the filter's 0.5 Hz control rate with the
    library's batched filter and return the minimum barrier value seen at
    any inner integration state, one RK4 substep of at most DEFAULT_SUBSTEP
    apart."""
    rng = np.random.default_rng(seed)
    X = states.T.copy()  # (6, N)
    n_runs = X.shape[1]
    dt_c = DEFAULT_PERIOD
    n_sub = math.ceil(dt_c / DEFAULT_SUBSTEP - 1e-12)
    M, Nmat = rk4_zoh_map(dt_c / n_sub)
    steps = int(round(duration / dt_c))
    overall_min = np.inf
    for _ in range(steps):
        U = controller(X.T, rng)
        U = filter_control(X.T, U, SP).u_act
        A_in = (U / DP.mass).T  # (3, N)
        for _ in range(n_sub):
            X = M @ X + Nmat @ A_in
            h = h_values_batch(X.T, SP)
            m = h.min()
            if m < overall_min:
                overall_min = m
    return overall_min


@pytest.mark.slow
def test_criterion_2_forward_invariance_suite():
    states = _sample_safe_states(100, seed=2024)
    K = cw.lqr_design()
    families = {
        "zero": lambda S, rng: np.zeros((len(S), 3)),
        "lqr": lambda S, rng: -S @ K.T,
        "random": lambda S, rng: rng.uniform(-1.0, 1.0, (len(S), 3)),
    }
    minima = {}
    for name, ctrl in families.items():
        minima[name] = _invariance_min(states, ctrl, seed=77)
    worst = min(minima.values())
    with report(2, "forward invariance at every 0.2 s substep of the 0.5 Hz hold"):
        assert worst >= -1e-3, (
            f"min_i h_i = {worst:.4f} (per family: "
            + ", ".join(f"{k}={v:.4f}" for k, v in minima.items()) + ")")
    print("    min h per family: "
          + ", ".join(f"{k} {v:.2e}" for k, v in minima.items()))


# -- criterion 3: QP correctness against a brute-force lattice ---------------

def test_criterion_3_qp_matches_lattice_search():
    rng = np.random.default_rng(314)
    resolution = 2.0 / 50.0  # 0.04 N per axis on the 51-point grid
    diag = math.sqrt(3.0) * resolution
    checked = feasible_zero = 0
    for _ in range(500):
        p = rng.normal(0, 120, 3)
        rho = np.linalg.norm(p)
        if rho < 1.0:
            continue
        if rng.random() < 0.5:
            p *= rng.uniform(10.5, 40.0) / rho
        v = rng.normal(0, 0.5, 3)
        if rng.random() < 0.5:
            v *= rng.uniform(0.8, 1.1) / max(np.linalg.norm(v), 1e-9)
        x = np.concatenate([p, v])
        C, b = cw.cbf_rows(x, SP)
        u_des = rng.uniform(-1.0, 1.0, 3)

        u_qp, _, qp_feasible = cw.solve_qp(u_des, (C, b))
        u_lat = lattice_search(u_des, C, b)
        if np.all(C @ u_des + b >= 0.0):
            assert qp_feasible and np.linalg.norm(u_qp - u_des) == 0.0
            feasible_zero += 1
            continue
        if u_lat is None:
            continue
        assert qp_feasible
        assert np.all(C @ u_qp + b >= -1e-8)
        d_qp = np.linalg.norm(u_qp - u_des)
        d_lat = np.linalg.norm(u_lat - u_des)
        assert d_qp <= d_lat + 1e-9, "grid found a better feasible point"
        assert d_lat - d_qp <= diag, "grid optimum unexpectedly far behind"
        checked += 1
    with report(3, "filter output matches 51^3 lattice search"):
        assert checked >= 100, f"only {checked} constrained instances checked"
        assert feasible_zero >= 50, \
            f"only {feasible_zero} feasible instances with zero deviation"
    print(f"    {checked} constrained instances, {feasible_zero} "
          f"feasible-request instances with deviation exactly 0")


# -- criterion 4: gradient verification --------------------------------------

def test_criterion_4_gradients_match_finite_differences():
    rng = np.random.default_rng(99)
    X = np.empty((1000, 6))
    got = 0
    while got < 1000:
        p = rng.normal(0, 250, 3)
        v = rng.normal(0, 0.5, 3)
        rho = np.linalg.norm(p)
        if not (15.0 < rho < 900.0) or np.linalg.norm(v) < 0.05:
            continue
        X[got] = np.concatenate([p, v])
        got += 1
    # the gradients cbf_rows takes its rows from, from the barrier pass on
    # the batch's columns, as a dense (1000, 6, 6) array
    G = _barrier_pass(X.T, SP, _COLUMNS)[1]
    G = _COLUMNS[-1]([g for row in G for g in row]).reshape(-1, 6, 6)
    eps = 1e-5
    worst = 0.0
    for j in range(6):
        Xp = X.copy()
        Xp[:, j] += eps
        Xm = X.copy()
        Xm[:, j] -= eps
        fd = (h_values_batch(Xp, SP) - h_values_batch(Xm, SP)) / (2 * eps)
        for i in range(6):
            scale = np.maximum(np.linalg.norm(G[:, i, :], axis=1), 1e-8)
            worst = max(worst, float(np.max(np.abs(G[:, i, j] - fd[:, i]) / scale)))
    with report(4, "analytic gradients vs central differences at 1000 states"):
        assert worst < 1e-5, f"worst relative error {worst:.2e}"
    print(f"    worst relative error {worst:.2e}")


# -- criterion 5: propagation accuracy ----------------------------------------

def test_criterion_5_rk4_matches_transition_matrix():
    rng = np.random.default_rng(555)
    X0 = np.vstack([rng.normal(0, 300, (3, 1000)),
                    rng.normal(0, 0.5, (3, 1000))]).T
    X = X0.copy()
    for _ in range(6000):
        X = step(X, np.zeros(3), 1.0)
    ref = X0 @ cw_stm(6000.0).T
    pos_err = np.abs(X[:, :3] - ref[:, :3]).max()
    vel_err = np.abs(X[:, 3:] - ref[:, 3:]).max()
    with report(5, "RK4 vs closed-form free motion over 6000 s, 1000 states"):
        assert pos_err < 1e-6, f"position error {pos_err:.2e} m"
        assert vel_err < 1e-8, f"velocity error {vel_err:.2e} m/s"
    print(f"    position error {pos_err:.2e} m, velocity error {vel_err:.2e} m/s")


# -- criterion 6: inspection completeness -------------------------------------

def test_criterion_6_circumnavigation_inspects_all_points():
    rate = 2.0 * DP.mean_motion
    period = 2.0 * math.pi / rate
    # from the paper's initial state, where every run starts
    cfg = cw.ExperimentConfig(
        controller="scripted", illumination=False, max_duration=1.2 * period)
    log, summary = run(cfg)
    completion_t = log.t[-1]

    # stationary deputy with illumination gating: the cumulative inspected
    # set can never exceed what the visible hemisphere offers, and matches
    # the running union of co-illuminated points exactly
    sphere = cw.generate_points()
    deputy = np.array([100.0, 0.0, 0.0])
    visible = sphere.points[:, 0] > 0.0
    union = np.zeros(99, dtype=bool)
    ok_bound = ok_union = True
    for k in range(400):
        theta = 3.42 - DP.mean_motion * 10.0 * k
        cw.update_inspected(sphere, deputy, theta, True)
        lit = sphere.points @ cw.sun_vector(theta) > 0.0
        union |= visible & lit
        count = cw.inspected_count(sphere)
        ok_bound &= count <= int(np.count_nonzero(visible))
        ok_union &= count == int(np.count_nonzero(union))

    with report(6, "scripted circumnavigation inspects all 99 points in one orbit"):
        assert summary["inspected"] == 99, f"inspected {summary['inspected']}"
        assert summary["success"]
        assert completion_t <= period, \
            f"completed at {completion_t:.0f} s > one orbit {period:.0f} s"
        assert ok_bound, "inspected exceeded the visible hemisphere"
        assert ok_union, "inspected diverged from the co-illumination union"
    print(f"    completed at {completion_t:.0f} s of a {period:.0f} s orbit; "
          f"illumination-gated stationary bound held")


# -- criterion 7: reward arithmetic vs reported performance -------------------

def test_criterion_7_reward_formula_reproduces_reported_values():
    # (points, delta-v, reported reward, reported sigma)
    table = [
        ("baseline no sensors", 98.6, 73.6, 2.50, 3.73),
        ("best no sensors", 95.3, 36.2, 5.83, 0.93),
        ("baseline all sensors", 90.5, 14.4, 7.56, 1.30),
        ("best all sensors", 96.5, 10.0, 8.61, 1.13),
    ]
    with report(7, "cumulative reward formula matches reported policy metrics"):
        for name, points, dv, reward, sigma in table:
            predicted = 0.1 * points - 0.1 * dv
            assert abs(predicted - reward) <= sigma, \
                f"{name}: predicted {predicted:.2f} vs {reward} +/- {sigma}"
    best_no = 0.1 * (95.3 - 36.2)
    assert best_no == pytest.approx(5.91)
    print(f"    e.g. best-no-sensors: 0.1*(95.3-36.2) = {best_no:.2f} "
          f"vs 5.83 +/- 0.93")


# -- criterion 8: determinism -------------------------------------------------

def test_criterion_8_identical_seeds_give_identical_logs(tmp_path):
    texts = []
    for name in ("first.csv", "second.csv"):
        cfg = default_experiment(2)
        cfg.closed_loop = True
        cfg.seed = 5
        cfg.max_duration = 600.0
        log, _ = run(cfg)
        texts.append(emit(log, "csv", tmp_path / name).read_bytes())
    with report(8, "same seed twice gives byte-identical CSV logs"):
        assert texts[0] == texts[1]


# -- criterion 9: closed-loop robustness --------------------------------------

@pytest.mark.slow
def test_criterion_9_closed_loop_noise_robustness():
    floors, tail_means, crossings = [], [], 0
    for seed in range(20):
        cfg = default_experiment(2)
        cfg.closed_loop = True
        cfg.seed = seed
        log, summary = run(cfg)
        dist = np.linalg.norm(log.states[:, :3], axis=1)
        floors.append(summary["min_distance"])
        tail_means.append(dist[log.t >= log.t[-1] - 1000.0].mean())
        crossings += int(dist.min() < 10.0)
    with report(9, "noisy closed loop stays above 5 m and re-converges, 20 seeds"):
        assert min(floors) >= 5.0, f"worst floor {min(floors):.2f} m"
        assert max(abs(m - 10.0) for m in tail_means) <= 1.0, \
            f"worst tail mean {max(tail_means):.2f} m"
    print(f"    floors in [{min(floors):.2f}, {max(floors):.2f}] m, "
          f"tail means in [{min(tail_means):.2f}, {max(tail_means):.2f}] m, "
          f"{crossings}/20 seeds crossed 10 m as in the noisy hardware runs")
