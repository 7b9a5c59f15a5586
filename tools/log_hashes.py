"""Print the SHA-256 identity table of the fixed-seed logs.

Five tables, for comparing the logs of two commits byte for byte:

- reference experiments 1-6 at their default seeds, open and closed loop:
  SHA-256 of the emitted CSV / of the emitted JSON / first 16 hex of the
  ``row_matrix()`` bytes / rows;
- 16 seeded NNC episodes, experiments 1, 3, 4 and 6 flying
  ``random_policy(6 or 11, seed=s)`` for s = 1, 2 over 400 steps, open and
  closed loop: full SHA-256 of the ``row_matrix()`` bytes / rows;
- 8 ``InspectionEnv`` rollouts, no-sensors and all-sensors observations
  driven through ``mlp_act`` by ``random_policy(6 or 11, seed=s)`` for
  s = 1, 2 over 400 steps, illumination off and on: SHA-256 of the state,
  sun angle, clock, reward, delta-v and reward totals and observation of
  every step / steps;
- ``filter_control`` on one batch of 64 seeded safe states (12-700 m out,
  every barrier at least 0.05), flown 100 holds of ``DEFAULT_PERIOD`` on
  ``hold_maps`` under zero, LQR and seeded random requests: SHA-256 of the
  ``u_act``, active sets, ``feasible`` and ``slack_used`` of every hold /
  intervened / infeasible results / holds.  After each hold every 8th state
  is filtered again alone, and any difference from its batch row in
  ``u_act``, ``active_set``, ``feasible``, ``slack_used`` or ``stage``
  raises.  Both shapes walk the stages with the same function, so this
  guards the batch's screen (one hold pass over all its states) against
  the one-state screen;
- the summary of every run of the first two tables: SHA-256 of its
  ``json.dumps(..., sort_keys=True)`` without ``controller_resolved``,
  which names the temporary weights file.

Run from a checkout with ``PYTHONPATH=src python tools/log_hashes.py``.
The hashes depend on the BLAS build and the CPU, so compare tables made on
the same machine; they are not a test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from cwinspect.control import lqr_design, mlp_act, mlp_save, random_policy
from cwinspect.dynamics import DynamicsParams, hold_maps
from cwinspect.env import (OBS_ALL_SENSORS, OBS_NO_SENSORS, EnvConfig,
                           InspectionEnv)
from cwinspect.harness import default_experiment, emit, run
from cwinspect.rta import DEFAULT_PERIOD, filter_control
from cwinspect.safety import SafetyParams, h_values

# experiment -> policy inputs: 6 for the no-sensors NNCs, 11 for all-sensors
NNC_EXPERIMENTS = {1: 6, 3: 6, 4: 11, 6: 11}
NNC_SEEDS = (1, 2)
NNC_STEPS = 400
LOOPS = (("open", False), ("closed", True))
# observation mode -> policy inputs
ENV_MODES = {OBS_NO_SENSORS: 6, OBS_ALL_SENSORS: 11}
FILTER_STATES = 64
FILTER_HOLDS = 100
FILTER_ALONE_EVERY = 8


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _summary_sha(summary: dict) -> str:
    kept = {k: v for k, v in summary.items() if k != "controller_resolved"}
    return _sha(json.dumps(kept, sort_keys=True).encode())


def _env_rollout(mode: str, inputs: int, seed: int, illumination: bool):
    """SHA-256 of every step's record and the step count of one episode."""
    env = InspectionEnv(EnvConfig(mode=mode, illumination=illumination,
                                  max_steps=NNC_STEPS))
    policy = random_policy(inputs, seed=seed)
    u_max = DynamicsParams().u_max
    obs, done, steps = env.reset(), False, 0
    digest = hashlib.sha256()
    while not done:
        obs, reward, done, _ = env.step(mlp_act(policy, obs, u_max))
        state = env.state
        digest.update(np.concatenate([
            state.vector(), (state.sun_angle, state.t, reward,
                             env.total_delta_v, env.total_reward), obs]).tobytes())
        steps += 1
    return digest.hexdigest(), steps


def _safe_states(count: int, seed: int, params: SafetyParams) -> np.ndarray:
    """``count`` states 12-700 m out in a random direction with speeds in
    the +-0.9 m/s box, kept when every barrier is at least 0.05."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        direction = rng.normal(0, 1, 3)
        direction /= np.linalg.norm(direction)
        x = np.concatenate([rng.uniform(12.0, 700.0) * direction,
                            rng.uniform(-0.9, 0.9, 3)])
        if h_values(x, params).min() >= 0.05:
            out.append(x)
    return np.array(out)


def _filter_batch(family: str):
    """SHA-256 of every hold's filter results, and the intervened and
    infeasible results, of one request family over the batch of safe
    states."""
    params = SafetyParams()
    X = _safe_states(FILTER_STATES, 2024, params)
    K = lqr_design()
    D, S = hold_maps(DEFAULT_PERIOD)
    rng = np.random.default_rng(77)
    digest = hashlib.sha256()
    intervened = infeasible = 0
    for _ in range(FILTER_HOLDS):
        if family == "zero":
            U = np.zeros((len(X), 3))
        elif family == "lqr":
            U = -X @ K.T
        else:
            U = rng.uniform(-1.0, 1.0, (len(X), 3))
        res = filter_control(X, U, params)
        for k in range(0, len(X), FILTER_ALONE_EVERY):
            alone = filter_control(X[k], U[k], params)
            if not (alone.u_act.tobytes() == res.u_act[k].tobytes()
                    and alone.active_set == res.active_set[k]
                    and alone.feasible == res.feasible[k]
                    and alone.slack_used.tobytes() == res.slack_used[k].tobytes()
                    and alone.stage == res.stage[k]):
                raise AssertionError(f"filter batch {family}: state {k} alone differs "
                                     "from its batch row")
        digest.update(res.u_act.tobytes() + repr(res.active_set).encode()
                      + res.feasible.tobytes() + res.slack_used.tobytes())
        intervened += int(np.count_nonzero(res.intervened))
        infeasible += len(X) - int(np.count_nonzero(res.feasible))
        X = X + (D[-1] @ X[:, :, None] + S[-1] @ res.u_act[:, :, None])[..., 0]
    return digest.hexdigest(), intervened, infeasible


def main() -> None:
    summaries = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        print("exp / loop / CSV / JSON / row_matrix()[:16] / rows")
        for n in range(1, 7):
            for name, closed in LOOPS:
                cfg = dataclasses.replace(default_experiment(n), closed_loop=closed)
                log, summary = run(cfg)
                summaries.append(f"exp{n} {name:<6} {_summary_sha(summary)}")
                files = [emit(log, fmt, tmp / f"log.{fmt}").read_bytes()
                         for fmt in ("csv", "json")]
                print(f"exp{n} {name:<6} {_sha(files[0])} / {_sha(files[1])} / "
                      f"{_sha(log.row_matrix().tobytes())[:16]} / {len(log)}")
        print("nnc exp / policy seed / loop / row_matrix() / rows")
        for n, inputs in NNC_EXPERIMENTS.items():
            cfg = default_experiment(n)
            for s in NNC_SEEDS:
                weights = tmp / f"policy_{inputs}_{s}.json"
                mlp_save(random_policy(inputs, seed=s), weights)
                for name, closed in LOOPS:
                    log, summary = run(dataclasses.replace(
                        cfg, weights_path=str(weights), max_steps=NNC_STEPS,
                        closed_loop=closed))
                    summaries.append(f"nnc exp{n} seed{s} {name:<6} {_summary_sha(summary)}")
                    print(f"nnc exp{n} seed{s} {name:<6} "
                          f"{_sha(log.row_matrix().tobytes())} {len(log)}")
    print("env mode / policy seed / illumination / per-step records / steps")
    for mode, inputs in ENV_MODES.items():
        for s in NNC_SEEDS:
            for illumination in (False, True):
                digest, steps = _env_rollout(mode, inputs, s, illumination)
                print(f"env {mode:<11} seed{s} illum {illumination!s:<5} "
                      f"{digest} {steps}")
    print("filter batch / requests / per-hold results / intervened / infeasible / holds")
    for family in ("zero", "lqr", "random"):
        digest, intervened, infeasible = _filter_batch(family)
        print(f"filter batch {family:<6} {digest} {intervened} {infeasible} {FILTER_HOLDS}")
    print("summary of run / summary without controller_resolved")
    for line in summaries:
        print(f"summary {line}")


if __name__ == "__main__":
    main()
