"""Experiment runner: reference configurations, noise injection, logging,
file emission, and the CLI."""

import dataclasses
import json
import math

import numpy as np
import pytest

from cwinspect import harness
from cwinspect.cli import main as cli_main
from cwinspect.control import mlp_save, random_policy
from cwinspect.dynamics import DynamicsParams, hold_maps, step
from cwinspect.env import EnvConfig, delta_v
from cwinspect.harness import (CONTROLLER_CHOICES, CSV_COLUMNS, ExperimentConfig, NoiseModel,
                               TrajectoryLog, default_experiment, emit,
                               inject_noise, load_config, run, run_batch)
from cwinspect.rta import filter_control
from cwinspect.safety import SafetyParams, h_values


def short_config(**kw):
    base = dict(controller="lqr", rta_enabled=True, max_duration=200.0)
    base.update(kw)
    return ExperimentConfig(**base)


class TestDefaults:
    def test_reference_table(self):
        expected = {
            1: ("nnc_no_sensors", False, False, 65.0, 10.0),
            2: ("lqr", True, False, 65.0, 10.0),
            3: ("nnc_no_sensors", True, False, 65.0, 10.0),
            4: ("nnc_all_sensors", False, True, 300.0, 20.0),
            5: ("best_nnc_no_sensors", True, True, 65.0, 15.0),
            6: ("best_nnc_all_sensors", True, True, 100.0, 20.0),
        }
        for n, (ctrl, rta, illum, ps, ts) in expected.items():
            cfg = default_experiment(n)
            assert cfg.controller == ctrl
            assert cfg.rta_enabled is rta
            assert cfg.illumination is illum
            assert cfg.position_scale == ps
            assert cfg.time_scale == ts

    def test_controller_names_pinned(self):
        # the NNC names are written once, as the keys of their observation modes
        assert CONTROLLER_CHOICES == (
            "nnc_no_sensors", "nnc_all_sensors", "best_nnc_no_sensors",
            "best_nnc_all_sensors", "lqr", "scripted")

    def test_rates_default_to_lab_window(self):
        cfg = default_experiment(1)
        assert cfg.control_rate == 0.5  # 5 Hz lab at time scale 10
        # the one hold the filter plans: read-only, and not a field
        with pytest.raises(AttributeError):
            cfg.control_rate = 1.0
        assert "control_rate" not in {f.name for f in dataclasses.fields(cfg)}

    def test_out_of_range_rejected(self):
        for n in (0, 7):
            with pytest.raises(ValueError):
                default_experiment(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(controller="pid")
        with pytest.raises(ValueError):
            ExperimentConfig(position_scale=-1.0)

    # inputs `run` cannot fly are refused when the config is built
    def test_infinite_max_duration_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(max_duration=math.inf)

    def test_zero_max_steps_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(max_steps=0)

    def test_negative_max_steps_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(max_steps=-1)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("build", [
        lambda value, path: ExperimentConfig(max_steps=value),
        lambda value, path: EnvConfig(max_steps=value),
        lambda value, path: load_config(path),
    ], ids=["ExperimentConfig", "EnvConfig", "load_config"])
    def test_bool_max_steps_rejected(self, build, value, tmp_path):
        # max_steps=True used to load and then fail in run with a TypeError,
        # and to end every env episode after one step
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"max_steps": value}))
        with pytest.raises(ValueError, match="max_steps"):
            build(value, path)

    def test_infinite_position_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(position_scale=math.inf)

    @pytest.mark.parametrize("box", [(math.nan, 8, 4), (-1, 8, 4), (0, 0, 0),
                                     (8, math.inf, 4), (8, 8)])
    def test_invalid_aviary_box_rejected(self, box, tmp_path):
        # the aviary is the one 8 x 8 x 4 m lab volume: no box can be set
        with pytest.raises(TypeError):
            ExperimentConfig(aviary_box=box)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": 1, "aviary_box": box}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(path)

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3", None])
    def test_invalid_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(seed=seed)

    @pytest.mark.parametrize("flag", ["rta_enabled", "illumination", "closed_loop"])
    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_non_bool_flag_rejected(self, flag, value):
        with pytest.raises(ValueError, match=flag):
            ExperimentConfig(**{flag: value})

    @pytest.mark.parametrize("flag", ["rta_enabled", "illumination", "closed_loop"])
    def test_numpy_bool_flag_stored_as_bool(self, flag):
        cfg = ExperimentConfig(**{flag: np.bool_(True)})
        assert getattr(cfg, flag) is True


class TestConfigFile:
    def test_overrides_reference_row(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": 2, "seed": 9,
                                    "max_duration": 120.0}))
        cfg = load_config(path)
        assert cfg.controller == "lqr"
        assert cfg.seed == 9
        assert cfg.max_duration == 120.0

    def test_standalone_fields(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "controller": "scripted", "max_duration": 50.0,
            "noise": {"position_sigma": 0.1, "velocity_sigma": 0.0,
                      "disturbance_sigma": 0.0},
        }))
        cfg = load_config(path)
        assert cfg.controller == "scripted"
        assert cfg.noise.position_sigma == 0.1

    def test_noise_seed_rejected(self, tmp_path):
        # the experiment seed seeds the noise stream
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": 2, "noise": {"seed": 5}}))
        with pytest.raises(ValueError, match="invalid noise model"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"controller": "lqr", "thrust": 3}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(path)
        # the substep count follows from the hold, the hold is the filter's
        # one 2 s hold and every run starts from the paper's initial state
        for key, value in (("sim_rate", 5.0), ("control_rate", 0.5),
                           ("initial_state", [21.8, -11.3, 41.8, 0, 0, 0, 3.42])):
            path.write_text(json.dumps({"experiment": 2, key: value}))
            with pytest.raises(ValueError, match="unknown config keys"):
                load_config(path)
        # the filter's class-K gains are not configurable
        path.write_text(json.dumps({"experiment": 2, "alpha_gains": [1.0] * 6}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(path)
        # nor is the scripted stand-in's orbit
        for key, value in (("scripted_radius", 30.0), ("scripted_gain", 0.002),
                           ("scripted_plane_normal", [0.0, 1.0, 0.0])):
            path.write_text(json.dumps({"experiment": 1, key: value}))
            with pytest.raises(ValueError, match="unknown config keys"):
                load_config(path)

    def test_string_flag_rejected(self, tmp_path):
        # "false" is a truthy string: flown, it would close the loop
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": 2, "closed_loop": "false"}))
        with pytest.raises(ValueError, match="closed_loop must be a bool"):
            load_config(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            load_config(path)

    @pytest.mark.parametrize("number", [2.5, True])
    def test_non_integer_experiment_rejected(self, tmp_path, number):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": number}))
        with pytest.raises(ValueError, match="experiment number"):
            load_config(path)

    def test_invalid_range_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"controller": "lqr", "time_scale": 0.0}))
        with pytest.raises(ValueError):
            load_config(path)


class TestNoise:
    def test_zero_sigma_identity(self):
        model = NoiseModel(0.0, 0.0, 0.0)
        x = np.array([10, 20, 30, 0.1, 0.2, 0.3])
        rng = np.random.default_rng(1)
        assert np.array_equal(inject_noise(x, model, rng), x)

    def test_same_seed_same_sequence(self):
        model = NoiseModel()
        x = np.array([10, 20, 30, 0.1, 0.2, 0.3])
        a = inject_noise(x, model, np.random.default_rng(7))
        b = inject_noise(x, model, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_draw_order_pinned(self):
        # three position draws, then three velocity draws, added to the state
        model = NoiseModel(position_sigma=0.7, velocity_sigma=0.03)
        x = np.array([10, -20, 30, 0.1, -0.2, 0.3])
        rng = np.random.default_rng(11)
        expected = x + np.concatenate([rng.normal(0.0, 0.7, 3), rng.normal(0.0, 0.03, 3)])
        sensed = inject_noise(x, model, np.random.default_rng(11))
        assert sensed.tobytes() == expected.tobytes()

    def test_sample_mean_law_of_large_numbers(self):
        model = NoiseModel(position_sigma=1.0, velocity_sigma=1.0,
                           disturbance_sigma=0.0)
        x = np.zeros(6)
        rng = np.random.default_rng(123)
        n = 100_000
        acc = np.zeros(6)
        for _ in range(n):
            acc += inject_noise(x, model, rng)
        assert np.all(np.abs(acc / n) < 3.0 / math.sqrt(n))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(position_sigma=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("position_sigma", math.nan), ("velocity_sigma", math.inf),
        ("disturbance_sigma", math.nan)])
    def test_non_finite_sigma_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(**{field: value})

    def test_noise_of_another_type_rejected(self):
        with pytest.raises(ValueError, match="NoiseModel"):
            ExperimentConfig(noise=[1, 2])

    def test_record_is_frozen(self):
        # a sigma set after the checks used to reach the flight: NaN failed
        # one step in, a negative sigma inside numpy
        noise = NoiseModel()
        for name, value in (("disturbance_sigma", math.nan), ("position_sigma", -1.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(noise, name, value)
        with pytest.raises(ValueError, match="position_sigma"):
            dataclasses.replace(noise, position_sigma=-1.0)


class TestRun:
    def test_zero_noise_closed_loop_equals_open(self):
        quiet = NoiseModel(0.0, 0.0, 0.0)
        cfg_open = short_config(closed_loop=False, noise=quiet)
        cfg_closed = short_config(closed_loop=True, noise=quiet)
        log_o, _ = run(cfg_open)
        log_c, _ = run(cfg_closed)
        assert np.array_equal(log_o.row_matrix(), log_c.row_matrix())

    def test_row_cadence_and_monotone_time(self):
        cfg = short_config(max_duration=100.0)
        log, summary = run(cfg)
        assert len(log) == summary["steps"] == 50  # 100 s at 0.5 Hz
        assert np.all(np.diff(log.t) > 0)
        assert np.allclose(np.diff(log.t), 2.0)

    def test_tiny_duration_records_first_row(self):
        # a duration far below one control period still logs the row at t = 0
        log, summary = run(short_config(max_duration=1e-12))
        assert len(log) == summary["steps"] == 1 and log.t[0] == 0.0
        assert summary["min_h"] == log.h.min()

    @pytest.mark.parametrize("field, value", [("max_steps", 0), ("closed_loop", "false")])
    def test_field_assigned_after_construction_checked(self, field, value):
        # run checks the config on entry, not only at construction: neither
        # an UnboundLocalError for max_steps 0 nor a closed-loop flight
        # logged as "false"
        cfg = default_experiment(2)
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=field):
            run(cfg)

    def test_max_steps_caps_rows(self):
        cfg = short_config(max_duration=1000.0, max_steps=7)
        log, summary = run(cfg)
        assert len(log) == summary["steps"] == 7

    @pytest.mark.parametrize("n", [1, 2])
    def test_plant_flies_step(self, n):
        # the simulator, the filter and dynamics.step fly a hold through one
        # function: each logged state is the step of the one before, bit
        # for bit
        cfg = default_experiment(n)
        cfg.max_steps = 200
        log, _ = run(cfg)
        dt = 1.0 / cfg.control_rate
        assert len(log) == 200
        for k in range(len(log) - 1):
            x_next = step(log.states[k, :6], log.u_act[k], dt)
            assert np.array_equal(log.states[k + 1, :6], x_next), k

    def test_batch_refilter_reproduces_open_loop_experiment2(self):
        # the filter flies its planned holds as the plant does and a batch
        # row is its one-state call: one batch over every logged (state,
        # request) pair returns the logged filter columns, bit for bit
        log, _ = run(default_experiment(2))
        assert len(log) == 3000
        res = filter_control(log.states[:, :6], log.u_des, SafetyParams())
        assert np.array_equal(res.u_act, log.u_act)
        assert np.array_equal(res.intervened, log.intervened)
        assert np.array_equal(res.deviation, log.deviation)

    def test_log_fields_are_named_columns_of_its_rows(self):
        log, _ = run(short_config(max_duration=50.0))
        rows = log.row_matrix()
        assert not rows.flags.writeable and rows.shape == (len(log), len(CSV_COLUMNS))
        for name in ("t", "deviation", "delta_v"):
            assert np.shares_memory(getattr(log, name), rows)
            assert np.array_equal(getattr(log, name), rows[:, CSV_COLUMNS.index(name)])
        assert np.array_equal(log.states, rows[:, 1:8]) and np.array_equal(log.h, rows[:, 14:20])
        assert log.intervened.dtype == bool and log.num_points.dtype.kind == "i"
        with pytest.raises(ValueError, match="rows"):
            TrajectoryLog(rows[:, :-1], log.metadata)

    def test_rta_off_leaves_commands_untouched(self):
        cfg = short_config(rta_enabled=False)
        log, _ = run(cfg)
        assert np.array_equal(log.u_des, log.u_act)
        assert not log.intervened.any()

    def test_rta_on_experiment2_intervenes(self):
        cfg = default_experiment(2)
        cfg.max_duration = 1200.0
        log, summary = run(cfg)
        dist = np.linalg.norm(log.states[:, :3], axis=1)
        assert summary["interventions"] > 100
        assert dist.min() >= 9.5
        assert np.any(log.intervened & (np.linalg.norm(log.u_des - log.u_act, axis=1) > 1e-6))

    def test_infeasible_steps_counted(self):
        cfg = dataclasses.replace(default_experiment(2), max_steps=100,
                                  closed_loop=True)
        _, summary = run(cfg)
        count = summary["infeasible_steps"]
        assert isinstance(count, int)
        # noisy sensing puts the sensed state outside the guarded set
        assert 0 < count <= summary["steps"]
        _, summary = run(dataclasses.replace(cfg, rta_enabled=False))
        assert summary["infeasible_steps"] == 0

    def test_nnc_without_weights_uses_stand_in(self):
        cfg = ExperimentConfig(controller="nnc_no_sensors", max_duration=20.0)
        log, summary = run(cfg)
        assert summary["controller_resolved"].startswith("scripted (stand-in")

    def test_nnc_with_weights_runs_policy(self, tmp_path):
        from cwinspect.control import mlp_save, random_policy
        path = tmp_path / "w.json"
        mlp_save(random_policy(6, hidden=(8, 8), seed=3), path)
        cfg = ExperimentConfig(controller="nnc_no_sensors", max_duration=20.0,
                               weights_path=str(path))
        log, summary = run(cfg)
        assert summary["controller_resolved"] == f"mlp:{path}"

    def test_weights_observation_mismatch_rejected(self, tmp_path):
        from cwinspect.control import mlp_save, random_policy
        path = tmp_path / "w.json"
        mlp_save(random_policy(11, hidden=(8, 8), seed=3), path)
        cfg = ExperimentConfig(controller="nnc_no_sensors", max_duration=20.0,
                               weights_path=str(path))
        with pytest.raises(ValueError, match="input_dim"):
            run(cfg)

    def test_aviary_flag(self):
        wide = short_config(max_duration=100.0)
        _, s1 = run(wide)
        assert s1["in_aviary"]
        # at 1 m per lab metre the initial 21.8 m offset is outside the box
        tight = short_config(max_duration=100.0, position_scale=1.0)
        _, s2 = run(tight)
        assert not s2["in_aviary"]

    def test_scripted_run_completes_inspection(self):
        cfg = ExperimentConfig(controller="scripted", illumination=False,
                               max_duration=4000.0)
        log, summary = run(cfg)
        assert summary["success"]
        assert summary["inspected"] == 99
        assert summary["steps"] < 2000  # stopped at completion, not max duration
        assert log.num_points[-1] == 99


@pytest.mark.parametrize("controller, inputs", [
    ("lqr", 0), ("scripted", 0), ("nnc_no_sensors", 6), ("nnc_all_sensors", 11)])
def test_controller_output_is_a_thrust_in_the_box(controller, inputs, tmp_path,
                                                 monkeypatch):
    # run logs each resolved controller's output as u_des without clipping
    # it again, so every output must be a (3,) float thrust in the box
    weights = tmp_path / "w.json"
    mlp_save(random_policy(inputs or 6, seed=1, scale=1.0), weights)
    cfg = ExperimentConfig(controller=controller, max_steps=300, closed_loop=True,
                           weights_path=str(weights) if inputs else None)
    outputs, resolve = [], harness._resolve_controller

    def recording(cfg):
        ctrl, label = resolve(cfg)

        def record(*args):
            outputs.append(ctrl(*args))
            return outputs[-1]
        return record, label

    monkeypatch.setattr(harness, "_resolve_controller", recording)
    log, _ = run(cfg)
    assert all(isinstance(u, np.ndarray) and u.shape == (3,) and u.dtype == float
               for u in outputs)
    U = np.array(outputs)
    assert np.abs(U).max() <= DynamicsParams().u_max
    assert np.array_equal(U, log.u_des)


def per_step_figures(cfg, log):
    """The log-only figures recomputed the way the step loop once did: the
    barrier values of each row, a running float sum of delta-v, and a
    re-flight of every flown hold (closed loop replays the noise stream) for
    the closest approach and the aviary flag."""
    dyn, sp = DynamicsParams(), SafetyParams()
    dt = 1.0 / cfg.control_rate
    D, S = hold_maps(dt)
    D, S = D.reshape(-1, 6), S.reshape(-1, 3)
    rng = np.random.default_rng(cfg.seed)
    half_box = 0.5 * np.array([8.0, 8.0, 4.0])
    X = log.states[:, :6]
    h = np.array([h_values(x, sp) for x in X])
    cum, dv = 0.0, []
    for u in log.u_act:
        cum += delta_v(u, dt)
        dv.append(cum)
    min_distance = float(np.linalg.norm(X[0, :3]))
    in_aviary = bool(np.all(np.abs(X[0, :3]) / cfg.position_scale <= half_box))
    for k, x in enumerate(X):
        if cfg.closed_loop:
            inject_noise(x, cfg.noise, rng)  # the sensing draws of step k
        if log.num_points[k] == 99:
            break
        force = log.u_act[k]
        if cfg.closed_loop:
            force = force + dyn.mass * rng.normal(0.0, cfg.noise.disturbance_sigma, 3)
        hold = (D @ x + S @ force).reshape(-1, 6) + x
        if k + 1 < len(X):
            assert np.array_equal(hold[-1], X[k + 1]), k
        pos = hold[:, :3]
        min_distance = min(min_distance,
                           float(np.sqrt(np.min(np.einsum("ij,ij->i", pos, pos)))))
        if in_aviary and np.any(np.abs(pos) / cfg.position_scale > half_box):
            in_aviary = False
    return h, np.array(dv), min_distance, in_aviary


@pytest.mark.parametrize("case", ["exp1", "exp2-open", "exp2-closed", "exp4-nnc"])
def test_log_figures_match_per_step_oracle(case, tmp_path):
    cfg = {
        "exp1": lambda: default_experiment(1),
        "exp2-open": lambda: default_experiment(2),
        "exp2-closed": lambda: dataclasses.replace(default_experiment(2),
                                                   closed_loop=True, seed=3),
        "exp4-nnc": lambda: dataclasses.replace(
            default_experiment(4), max_steps=400, weights_path=str(tmp_path / "w.json")),
    }[case]()
    if cfg.weights_path:
        mlp_save(random_policy(11, seed=1), cfg.weights_path)
    log, summary = run(cfg)
    h, dv, min_distance, in_aviary = per_step_figures(cfg, log)
    # exp1 inspects every point and stops before flying its last hold; the
    # random policy leaves the aviary
    assert summary["success"] == (case == "exp1")
    assert summary["in_aviary"] == (case != "exp4-nnc")
    assert np.array_equal(log.h, h)
    assert np.array_equal(log.delta_v, dv)
    assert summary["delta_v"] == dv[-1]
    assert summary["min_distance"] == min_distance
    assert summary["in_aviary"] is in_aviary


class TestEmission:
    def test_empty_log_rejected(self, tmp_path):
        cfg = short_config(max_duration=100.0)
        log, _ = run(cfg)
        log = TrajectoryLog(log.row_matrix()[:0], log.metadata)
        with pytest.raises(ValueError):
            emit(log, "csv", tmp_path / "x.csv")

    def test_csv_round_trip(self, tmp_path):
        cfg = short_config(max_duration=100.0)
        log, _ = run(cfg)
        path = emit(log, "csv", tmp_path / "t.csv")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) - 1 == len(log)
        parsed = np.array([[float(v) for v in line.split(",")]
                           for line in lines[1:]])
        ref = log.row_matrix()
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.all(np.abs(parsed - ref) / scale < 1e-9)

    def test_json_schema(self, tmp_path):
        cfg = short_config(max_duration=50.0)
        log, _ = run(cfg)
        path = emit(log, "json", tmp_path / "t.json")
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["columns"] == list(CSV_COLUMNS)
        assert len(doc["rows"]) == len(log)
        assert doc["metadata"]["controller"] == "lqr"

    def test_svg_panels(self, tmp_path):
        cfg = short_config(max_duration=50.0)
        log, _ = run(cfg)
        path = emit(log, "svg", tmp_path / "t.svg")
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2 + 6  # two paths + six barrier traces

    def test_unknown_format_rejected(self, tmp_path):
        cfg = short_config(max_duration=50.0)
        log, _ = run(cfg)
        with pytest.raises(ValueError):
            emit(log, "parquet", tmp_path / "t.parquet")


def _format_value(v: float) -> str:
    return f"{v:.9e}"


def oracle_csv(log) -> str:
    """CSV text written cell by cell, the reference for the emitter."""
    lines = [",".join(CSV_COLUMNS)]
    int_cols = {CSV_COLUMNS.index("intervened"), CSV_COLUMNS.index("num_points")}
    for row in log.row_matrix():
        lines.append(",".join(str(int(v)) if j in int_cols else _format_value(v)
                              for j, v in enumerate(row)))
    return "\n".join(lines) + "\n"


def oracle_json(log) -> str:
    """JSON text with the rows converted value by value."""
    return json.dumps({
        "schema_version": 1,
        "metadata": log.metadata,
        "columns": list(CSV_COLUMNS),
        "rows": [[float(v) for v in row] for row in log.row_matrix()],
    })


def synthetic_log() -> TrajectoryLog:
    edge = np.array([-0.0, 5e-324, 1e300, -1e300, 0.0, -5e-324, 1.5, -2.25e-7])
    rows = np.column_stack([
        [0.0, 2.0, 4.0], np.resize(edge, (3, 7)), np.resize(edge[1:], (3, 3)),
        np.resize(edge[2:], (3, 3)), np.resize(edge[3:], (3, 6)), [0.0, 1.0, 1.0],
        edge[:3], [0.0, 57.0, 99.0], edge[3:6]])
    return TrajectoryLog(rows, metadata={"controller": "synthetic"})


@pytest.fixture(scope="module")
def reference_logs():
    logs = {"synthetic": synthetic_log()}
    for n in (1, 2, 4):
        for closed in (False, True):
            cfg = dataclasses.replace(default_experiment(n), max_steps=400,
                                      closed_loop=closed)
            logs[f"exp{n}-{'closed' if closed else 'open'}"] = run(cfg)[0]
    return logs


def test_emission_matches_per_value_oracle(reference_logs, tmp_path):
    for name, log in reference_logs.items():
        csv_path = emit(log, "csv", tmp_path / f"{name}.csv")
        json_path = emit(log, "json", tmp_path / f"{name}.json")
        assert csv_path.read_bytes() == oracle_csv(log).encode(), name
        assert json_path.read_bytes() == oracle_json(log).encode(), name
    text = (tmp_path / "synthetic.csv").read_text()
    assert "-0.000000000e+00" in text and "4.940656458e-324" in text
    assert text.splitlines()[-1].split(",")[CSV_COLUMNS.index("num_points")] == "99"


class TestDeterminism:
    def test_identical_seeds_identical_csv(self, tmp_path):
        texts = []
        for name in ("a.csv", "b.csv"):
            cfg = short_config(max_duration=300.0, closed_loop=True, seed=5)
            log, _ = run(cfg)
            texts.append(emit(log, "csv", tmp_path / name).read_text())
        assert texts[0] == texts[1]

    def test_different_seeds_differ(self, tmp_path):
        logs = []
        for seed in (1, 2):
            cfg = short_config(max_duration=300.0, closed_loop=True, seed=seed)
            log, _ = run(cfg)
            logs.append(log.row_matrix())
        assert not np.array_equal(logs[0], logs[1])


class TestBatch:
    def test_batch_runs_and_merges(self, tmp_path):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        for k in (1, 2):
            (cfg_dir / f"run{k}.json").write_text(json.dumps(
                {"controller": "lqr", "rta_enabled": True,
                 "max_duration": 60.0, "seed": k}))
        out = tmp_path / "out"
        index = run_batch(cfg_dir, out, jobs=2)
        assert set(index) == {"run1", "run2"}
        assert (out / "index.json").exists()
        for k in (1, 2):
            assert (out / f"run{k}" / "trajectory.csv").exists()
            assert (out / f"run{k}" / "summary.json").exists()

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_batch(tmp_path, tmp_path / "out")

    def test_out_dir_that_is_a_file_refused_before_flying(self, tmp_path, monkeypatch):
        # used to fly the first config and only then fail to write it
        for k in (1, 2):
            (tmp_path / f"run{k}.json").write_text(json.dumps({"controller": "lqr"}))
        out = tmp_path / "taken"
        out.write_text("")
        flown = []
        monkeypatch.setattr(harness, "run", lambda cfg: flown.append(cfg))
        with pytest.raises(OSError):
            run_batch(tmp_path, out)
        assert not flown and out.read_text() == ""

    def test_a_refused_config_flies_nothing(self, tmp_path, monkeypatch):
        # every config is loaded before the first flight, and out_dir made after
        (tmp_path / "run1.json").write_text(json.dumps({"controller": "lqr"}))
        (tmp_path / "run2.json").write_text(json.dumps({"controller": "pid"}))
        flown = []
        monkeypatch.setattr(harness, "run", lambda cfg: flown.append(cfg))
        with pytest.raises(ValueError, match="unknown controller"):
            run_batch(tmp_path, tmp_path / "out")
        assert not flown and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", [0, -3, 1.0, 2.5, True, "2", None])
    def test_bad_jobs_rejected(self, tmp_path, jobs):
        (tmp_path / "one.json").write_text(json.dumps({"controller": "lqr"}))
        with pytest.raises(ValueError, match="jobs"):
            run_batch(tmp_path, tmp_path / "out", jobs=jobs)
        assert not (tmp_path / "out").exists()


class TestCli:
    def test_run_experiment(self, tmp_path, capsys):
        rc = cli_main(["run", "--experiment", "2", "--out", str(tmp_path),
                       "--format", "csv,json,svg", "--max-duration", "100"])
        assert rc == 0
        for ext in ("csv", "json", "svg"):
            assert (tmp_path / f"trajectory.{ext}").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert {"inspected", "delta_v", "reward", "steps", "success"} <= set(summary)
        assert "points" in summary and len(summary["points"]["xyz"]) == 99
        assert "min_distance" in capsys.readouterr().out

    def test_run_config_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": 2, "max_duration": 60.0}))
        rc = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path),
                       "--closed-loop", "--seed", "3"])
        assert rc == 0

    def test_unknown_format_errors(self, tmp_path):
        rc = cli_main(["run", "--experiment", "1", "--out", str(tmp_path),
                       "--format", "pdf", "--max-duration", "20"])
        assert rc == 2

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"], ["--max-duration", "inf"], ["--max-duration", "-5"]])
    def test_refused_override_exits_2(self, tmp_path, capsys, flags):
        rc = cli_main(["run", "--experiment", "1", "--out", str(tmp_path), *flags])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "summary.json").exists()

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        # used to end in a FileExistsError traceback and exit 1
        out = tmp_path / "taken"
        out.write_text("")
        rc = cli_main(["run", "--experiment", "1", "--out", str(out),
                       "--max-duration", "20"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == ""

    def test_out_that_is_a_file_exits_before_flying(self, tmp_path, capsys, monkeypatch):
        # used to fly the whole run and only then fail to write it
        out = tmp_path / "taken"
        out.write_text("")
        flown = []
        monkeypatch.setattr("cwinspect.cli.run", lambda cfg: flown.append(cfg))
        rc = cli_main(["run", "--experiment", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and not flown
        assert err.startswith("error: ") and "Traceback" not in err

    def test_batch_out_that_is_a_file_exits_before_flying(self, tmp_path, capsys,
                                                          monkeypatch):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        for k in (1, 2):
            (cfg_dir / f"run{k}.json").write_text(json.dumps({"controller": "lqr"}))
        out = tmp_path / "taken"
        out.write_text("")
        flown = []
        monkeypatch.setattr(harness, "run", lambda cfg: flown.append(cfg))
        rc = cli_main(["batch", "--configs", str(cfg_dir), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and not flown
        assert err.startswith("error: ") and "Traceback" not in err

    def test_run_with_weights_flag(self, tmp_path):
        from cwinspect.control import mlp_save, random_policy
        weights = tmp_path / "w.json"
        mlp_save(random_policy(6, hidden=(8, 8), seed=2), weights)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": 1, "max_duration": 20.0}))
        rc = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path),
                       "--weights", str(weights)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["controller_resolved"] == f"mlp:{weights}"

    def test_missing_weights_file_exits_2(self, tmp_path, capsys):
        rc = cli_main(["run", "--experiment", "4", "--out", str(tmp_path / "out"),
                       "--weights", str(tmp_path / "missing.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.json" in err
        assert not (tmp_path / "out").exists()

    def test_weights_of_the_wrong_input_size_exit_2(self, tmp_path, capsys):
        from cwinspect.control import mlp_save, random_policy
        weights = tmp_path / "w11.json"
        mlp_save(random_policy(11, hidden=(8, 8), seed=2), weights)
        rc = cli_main(["run", "--experiment", "1", "--out", str(tmp_path / "out"),
                       "--weights", str(weights)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: weights input_dim 11")
        assert not (tmp_path / "out").exists()

    def test_batch_with_a_missing_weights_file_exits_2(self, tmp_path, capsys):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "one.json").write_text(json.dumps(
            {"experiment": 4, "weights_path": str(tmp_path / "missing.json")}))
        rc = cli_main(["batch", "--configs", str(cfg_dir),
                       "--out", str(tmp_path / "out"), "--jobs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.json" in err
        assert not (tmp_path / "out" / "index.json").exists()

    @pytest.mark.parametrize("command", ["run", "batch"])
    def test_non_string_weights_path_exits_2(self, tmp_path, capsys, command):
        # Path(5) raised a TypeError that escaped both commands as a traceback
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        cfg = cfg_dir / "one.json"
        cfg.write_text(json.dumps({"experiment": 4, "weights_path": 5}))
        given = ["--config", str(cfg)] if command == "run" else ["--configs", str(cfg_dir)]
        rc = cli_main([command, *given, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "weights_path" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_validate_weights_ok(self, tmp_path, capsys):
        from cwinspect.control import mlp_save, random_policy
        path = tmp_path / "w.json"
        mlp_save(random_policy(6, hidden=(8, 8), seed=0), path)
        assert cli_main(["validate-weights", str(path)]) == 0
        assert "6 -> 8 -> 8 -> 6" in capsys.readouterr().out

    def test_validate_weights_bad(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text("{}")
        assert cli_main(["validate-weights", str(path)]) == 1

    def test_batch_command(self, tmp_path):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "one.json").write_text(json.dumps(
            {"controller": "lqr", "max_duration": 40.0}))
        rc = cli_main(["batch", "--configs", str(cfg_dir),
                       "--out", str(tmp_path / "out"), "--jobs", "1"])
        assert rc == 0
        # one writer of a run directory: `run` on the same config with its
        # default formats writes the batch run's files, byte for byte
        single = tmp_path / "single"
        assert cli_main(["run", "--config", str(cfg_dir / "one.json"),
                         "--out", str(single)]) == 0
        names = ["summary.json", "trajectory.csv", "trajectory.json"]
        assert sorted(p.name for p in single.iterdir()) == names
        for name in names:
            assert (single / name).read_bytes() == (tmp_path / "out" / "one" / name).read_bytes()

    def test_batch_zero_jobs_exits_2(self, tmp_path, capsys):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "one.json").write_text(json.dumps({"controller": "lqr"}))
        rc = cli_main(["batch", "--configs", str(cfg_dir),
                       "--out", str(tmp_path / "out"), "--jobs", "0"])
        assert rc == 2
        assert "jobs must be an integer of at least 1" in capsys.readouterr().err
