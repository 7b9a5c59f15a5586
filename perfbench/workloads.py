"""The benchmark workloads and the checks on their outputs.

Each workload is a closed loop in one process: the next episode starts when
the previous one returns.  It takes the workload seed, generates its inputs
from it in :meth:`Workload.setup`, and hands the library only those inputs.
:meth:`Workload.blocks` lists one fixed, seed-determined unit of work, so
every unit of a run repeats the same work and per-unit call counts repeat
exactly.  Library calls are reached through module attributes at call time,
so the bindings a :class:`tracer.Tracer` installs are the ones used.

A unit is split into blocks, each one library call timed on its own (an
episode, or a whole ``run_batch``), so the benchmark can time its reference
loop between blocks.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import cwinspect
from cwinspect import control, env, harness, safety

# Closed-loop exp2 episode rerun by the reproducibility check.
REPRO_STEPS = 200
WARMUP_STEPS = 50
# nnc_sensors policies per unit and control steps per episode.  The k-means
# cost per step depends on the path a policy flies: over 40 policies its
# spread was 12% (coefficient of variation), so one unit averages 16 of them.
NNC_POLICIES = 16
NNC_MAX_STEPS = 250
# Worker processes of the pooled nnc_sensors pass in a traced run.
POOL_JOBS = 2


@dataclass
class Episode:
    steps: int
    problems: list  # failed output checks; empty when the episode is correct
    min_distance: float
    min_h: float


@dataclass
class Block:
    start: float  # time.perf_counter() around the library call of the block
    end: float
    episodes: list
    seconds: float = 0.0  # set by the benchmark: host time in the call
    loops: float = 0.0  # set by the benchmark: that time in reference loops

    @property
    def steps(self) -> int:
        return sum(e.steps for e in self.episodes)


def row_problems(mat: np.ndarray, cap: int, u_max: float) -> list:
    """Output checks on a trajectory in CSV column order."""
    cols = harness.CSV_COLUMNS
    u_act = mat[:, cols.index("u_act_x"):cols.index("u_act_z") + 1]
    points = mat[:, cols.index("num_points")]
    dv = mat[:, cols.index("delta_v")]
    problems = []
    if not np.all(np.isfinite(mat)):
        problems.append("non-finite log entry")
    if np.any(np.abs(u_act) > u_max * (1.0 + 1e-12)):
        problems.append("|u_act| exceeds u_max")
    if np.any(np.diff(points) < 0) or points.max(initial=0) > 99:
        problems.append("num_points decreases or exceeds 99")
    if np.any(np.diff(dv) < 0):
        problems.append("delta_v decreases")
    if len(mat) > cap:
        problems.append(f"{len(mat)} steps exceed the cap {cap}")
    return problems


def repro_problems(seed: int) -> list:
    """Run one short closed-loop exp2 episode twice with the same seed; the
    logs and summaries must be identical."""
    cfg = harness.default_experiment(2)
    cfg.closed_loop = True
    cfg.seed = seed
    cfg.max_steps = REPRO_STEPS
    log_a, sum_a = harness.run(cfg)
    log_b, sum_b = harness.run(cfg)
    if sum_a != sum_b or not np.array_equal(log_a.row_matrix(), log_b.row_matrix()):
        return ["closed-loop exp2 rerun with the same seed differs"]
    return []


class Workload:
    name = ""
    # Layer whose first call starts the first timed step (see run.py).
    marker = ""
    # Layer called once per control step in this process, through which the
    # benchmark times its reference loop inside episodes.
    clock_layer = ""
    # Layer timed per call in the untraced pass, or "" for none.
    latency_layer = ""
    # True when blocks(pooled=True) run the unit in a process pool.
    uses_pool = False
    # Layer -> True when it must run on this workload, False when it must be
    # bypassed.  Layers not listed are not checked.
    expect: dict = {}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.dyn = cwinspect.DynamicsParams()

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def blocks(self, pooled: bool = False) -> list:
        """One unit of work: callables that each run one block."""
        raise NotImplementedError


class RtaLqr(Workload):
    """Reference experiment 2: LQR behind the filter, open then closed loop."""

    name = "rta_lqr"
    marker = "control.lqr_control"
    clock_layer = "safety.h_values"
    latency_layer = "rta.filter_control"
    expect = {
        "rta.filter_control": True, "rta.solve_qp": True,
        "safety.cbf_rows": True, "safety.h_values": True,
        "control.lqr_control": True, "inspection.update_inspected": True,
        "harness.run": True,
        "inspection.nearest_uninspected_cluster": False,
        "control.mlp_act": False, "env.build_observation": False,
        "dynamics.step": False, "env.InspectionEnv.step": False,
        "harness.emit": False, "harness.load_config": False,
        "harness.run_batch": False,
    }

    def setup(self) -> None:
        closed = harness.default_experiment(2)
        closed.closed_loop = True
        closed.seed = self.seed
        self.configs = [harness.default_experiment(2), closed]

    def warmup(self) -> None:
        for cfg in self.configs:
            harness.run(dataclasses.replace(cfg, max_steps=WARMUP_STEPS))

    def blocks(self, pooled: bool = False) -> list:
        return [partial(self._episode, cfg) for cfg in self.configs]

    def _episode(self, cfg) -> Block:
        t0 = time.perf_counter()
        log, summary = harness.run(cfg)
        t1 = time.perf_counter()
        cap = math.ceil(cfg.max_duration * cfg.control_rate - 1e-9)
        problems = row_problems(log.row_matrix(), cap, self.dyn.u_max)
        if len(log) != summary["steps"]:
            problems.append("log length differs from summary steps")
        return Block(t0, t1, [Episode(summary["steps"], problems,
                                      summary["min_distance"], summary["min_h"])])


class NncSensors(Workload):
    """Reference experiment 4 (all-sensors NNC with illumination, filter off)
    flown by 16 random 2x256 policies, one config file each, through
    ``run_batch`` with csv and json output."""

    name = "nnc_sensors"
    marker = "env.build_observation"
    clock_layer = "safety.h_values"
    uses_pool = True
    expect = {
        "inspection.nearest_uninspected_cluster": True,
        "control.mlp_act": True, "env.build_observation": True,
        "safety.h_values": True, "inspection.update_inspected": True,
        "harness.run": True, "harness.run_batch": True,
        "harness.load_config": True, "harness.emit": True,
        "rta.filter_control": False, "rta.solve_qp": False,
        "rta.infeasible_fallback": False, "safety.cbf_rows": False,
        "control.lqr_control": False, "dynamics.step": False,
        "env.InspectionEnv.step": False,
    }

    def setup(self) -> None:
        self.config_dir = self.workdir / "configs"
        self.config_dir.mkdir(parents=True, exist_ok=True)
        seeds = np.random.default_rng(self.seed).integers(2**31, size=NNC_POLICIES)
        for j, s in enumerate(seeds):
            weights = self.workdir / f"policy_all_sensors_{j:02d}.json"
            control.mlp_save(control.random_policy(11, seed=int(s)), weights)
            doc = {"experiment": 4, "weights_path": str(weights),
                   "max_steps": NNC_MAX_STEPS}
            (self.config_dir / f"exp4_policy_{j:02d}.json").write_text(json.dumps(doc))
        self.batches = 0

    def warmup(self) -> None:
        cfg = harness.load_config(self.config_dir / "exp4_policy_00.json")
        cfg.max_steps = WARMUP_STEPS
        harness.run(cfg)

    def blocks(self, pooled: bool = False) -> list:
        return [partial(self._batch, pooled)]

    def _batch(self, pooled: bool) -> Block:
        out = self.workdir / f"batch_{self.batches}"
        self.batches += 1
        t0 = time.perf_counter()
        index = harness.run_batch(self.config_dir, out,
                                  jobs=POOL_JOBS if pooled else 1)
        t1 = time.perf_counter()
        episodes = [self._check(path.stem, index, out)
                    for path in sorted(self.config_dir.glob("*.json"))]
        shutil.rmtree(out)
        return Block(t0, t1, episodes)

    def _check(self, stem: str, index: dict, out: Path) -> Episode:
        run_dir = out / stem
        try:
            summary = json.loads((run_dir / "summary.json").read_text())
            rows = json.loads((run_dir / "trajectory.json").read_text())["rows"]
            csv_lines = (run_dir / "trajectory.csv").read_text().splitlines()
        except (OSError, ValueError, KeyError) as exc:
            return Episode(0, [f"{stem}: unreadable output: {exc}"], math.nan, math.nan)
        mat = np.array(rows, dtype=float)
        problems = row_problems(mat, NNC_MAX_STEPS, self.dyn.u_max)
        if len(csv_lines) != summary["steps"] + 1 or len(mat) != summary["steps"]:
            problems.append("row count differs from summary steps")
        if index.get(stem, {}).get("steps") != summary["steps"]:
            problems.append("index entry differs from summary")
        return Episode(summary["steps"], [f"{stem}: {p}" for p in problems],
                       summary["min_distance"], summary["min_h"])


class EnvRollout(Workload):
    """InspectionEnv in no-sensors mode driven by a random 2x256 policy."""

    name = "env_rollout"
    marker = "env.InspectionEnv.step"
    clock_layer = "env.InspectionEnv.step"
    latency_layer = "env.InspectionEnv.step"
    expect = {
        "dynamics.step": True, "env.InspectionEnv.step": True,
        "control.mlp_act": True, "env.build_observation": True,
        "inspection.update_inspected": True,
        "rta.filter_control": False, "rta.solve_qp": False,
        "rta.infeasible_fallback": False, "safety.cbf_rows": False,
        "safety.h_values": False,
        "inspection.nearest_uninspected_cluster": False,
        "control.lqr_control": False, "harness.run": False,
        "harness.emit": False, "harness.load_config": False,
        "harness.run_batch": False,
    }

    def setup(self) -> None:
        self.policy = control.random_policy(6, seed=self.seed)
        self.env = env.InspectionEnv(env.EnvConfig(mode=env.OBS_NO_SENSORS))

    def _rollout(self, max_steps: int | None = None):
        obs = self.env.reset()
        states, infos = [self.env.state], []
        done = False
        while not done and len(infos) != max_steps:
            action = control.mlp_act(self.policy, obs, self.dyn.u_max)
            obs, _, done, info = self.env.step(action)
            states.append(self.env.state)
            infos.append(info)
        return obs, states, infos

    def warmup(self) -> None:
        self._rollout(WARMUP_STEPS)

    def blocks(self, pooled: bool = False) -> list:
        return [self._episode]

    def _episode(self) -> Block:
        t0 = time.perf_counter()
        obs, states, infos = self._rollout()
        t1 = time.perf_counter()
        X = np.array([s.vector() for s in states])
        inspected = np.array([i["inspected"] for i in infos])
        total_dv = np.array([i["total_delta_v"] for i in infos])
        step_dv = np.array([i["step_delta_v"] for i in infos])
        cfg = self.env.config
        problems = []
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(obs))):
            problems.append("non-finite state or observation")
        if np.any(step_dv > 3 * self.dyn.u_max / self.dyn.mass * cfg.dt * (1 + 1e-12)):
            problems.append("step delta-v exceeds the thrust box")
        if np.any(np.diff(inspected) < 0) or inspected.max(initial=0) > 99:
            problems.append("inspected count decreases or exceeds 99")
        if np.any(np.diff(total_dv) < 0):
            problems.append("delta_v decreases")
        if len(infos) > cfg.max_steps:
            problems.append("episode exceeds the step cap")
        h = safety.h_values_batch(X, safety.SafetyParams())
        episode = Episode(len(infos), problems,
                          float(np.linalg.norm(X[:, :3], axis=1).min()),
                          float(h.min()))
        return Block(t0, t1, [episode])


WORKLOADS = {w.name: w for w in (RtaLqr, NncSensors, EnvRollout)}
