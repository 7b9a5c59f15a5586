"""Interleaved A/B timing of two cwinspect trees in one process.

    python tools/ab_interleave.py A_TREE B_TREE --workload env|exp2|nnc|filter \
        [--rounds 8] [--steps N]

Each tree is a checkout whose ``src/cwinspect`` is imported under its own
package name (``cwinspect_a``, ``cwinspect_b``), so both run in the same
process on the same host state.  The tool first asserts that the two trees
give identical outputs on the workload, then times ``--rounds`` rounds,
each one unit of the workload on each side, the side that goes first
alternating by round.  Which tree is imported first also moves the timing
by a few percent, so the whole run is made twice, in a fresh process per
import order.

Workloads, one unit each:

- ``env``: an ``InspectionEnv`` episode (no sensors) driven through
  ``mlp_act`` by ``random_policy(6, seed=1)``, the benchmark's
  ``env_rollout`` chain; 1223 steps unless ``--steps`` caps it;
- ``exp2``: reference experiment 2 (LQR behind the filter), open and closed
  loop, 3000 steps each unless ``--steps`` caps them;
- ``nnc``: reference experiment 4 (all-sensors NNC, illumination) flown by
  ``random_policy(11, seed=s)`` for s = 1..4, 250 steps each unless
  ``--steps`` caps them;
- ``filter``: the requests ``filter_control`` gets in reference experiment
  2, open and closed loop (3000 steps each unless ``--steps`` caps them),
  recorded once per tree and replayed one call at a time; the outputs
  compared are every call's ``u_act``, ``active_set``, ``feasible`` and
  ``slack_used``, and a step is one filter call.  It times the filter alone,
  without the rest of the episode.

Prints, per import order and over both, each side's median time per step,
the median of the per-round B/A ratios and how many rounds B was faster.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ENV_STEPS = 1223
EXP2_STEPS = 3000
NNC_STEPS = 250
NNC_SEEDS = (1, 2, 3, 4)
SIDES = ("a", "b")


def load_tree(tree: Path, name: str):
    """Import ``tree/src/cwinspect`` as the package ``name``."""
    init = tree / "src" / "cwinspect" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def env_unit(cw, steps: int, workdir: Path):
    """One no-sensors env episode; returns (steps, digest of every step)."""
    env = cw.InspectionEnv(cw.EnvConfig(max_steps=steps))
    policy = cw.random_policy(6, seed=1)
    u_max = cw.DynamicsParams().u_max
    obs, done, n = env.reset(), False, 0
    digest = hashlib.sha256()
    while not done:
        obs, reward, done, _ = env.step(cw.mlp_act(policy, obs, u_max))
        digest.update(np.concatenate([env.state.x, obs, (reward,)]).tobytes())
        n += 1
    return n, digest.hexdigest()


def _runs(cw, configs):
    """Run each config; returns (steps, digest of every log and summary)."""
    n, digest = 0, hashlib.sha256()
    for cfg in configs:
        log, summary = cw.run(cfg)
        n += len(log)
        digest.update(log.row_matrix().tobytes())
        digest.update(json.dumps(summary, sort_keys=True, default=str).encode())
    return n, digest.hexdigest()


def exp2_unit(cw, steps: int, workdir: Path):
    cfg = dataclasses.replace(cw.default_experiment(2), max_steps=steps)
    return _runs(cw, [cfg, dataclasses.replace(cfg, closed_loop=True)])


def filter_unit(cw, steps: int, workdir: Path):
    """Replay the exp2 requests one filter call at a time; returns (calls,
    digest of every call's u_act, active_set, feasible and slack_used).  The
    requests are recorded in the first call for each tree and kept in
    ``workdir``; ``run`` filters with the default parameters."""
    stream = workdir / f"filter_requests_{cw.__name__}.npz"
    if not stream.exists():
        seen = []
        filter_control = cw.harness.filter_control

        def record(x, u_des, safety, dyn, period):
            seen.append(np.concatenate([x, u_des, [period]]))
            return filter_control(x, u_des, safety, dyn, period=period)

        cw.harness.filter_control = record
        try:
            exp2_unit(cw, steps, workdir)
        finally:
            cw.harness.filter_control = filter_control
        np.savez(stream, requests=np.array(seen))
    requests = np.load(stream)["requests"]
    safety, dyn, filter_control = cw.SafetyParams(), cw.DynamicsParams(), cw.filter_control
    digest = hashlib.sha256()
    for r in requests:
        res = filter_control(r[:6], r[6:9], safety, dyn, period=float(r[9]))
        digest.update(res.u_act.tobytes())
        digest.update(res.slack_used.tobytes())
        digest.update(repr((res.active_set, res.feasible)).encode())
    return len(requests), digest.hexdigest()


def nnc_unit(cw, steps: int, workdir: Path):
    configs = []
    for s in NNC_SEEDS:
        weights = workdir / f"policy_11_{s}.json"
        if not weights.exists():
            cw.mlp_save(cw.random_policy(11, seed=s), weights)
        configs.append(dataclasses.replace(cw.default_experiment(4),
                                           weights_path=str(weights), max_steps=steps))
    return _runs(cw, configs)


WORKLOADS = {"env": (env_unit, ENV_STEPS), "exp2": (exp2_unit, EXP2_STEPS),
             "nnc": (nnc_unit, NNC_STEPS), "filter": (filter_unit, EXP2_STEPS)}


def child(trees, order: str, workload: str, rounds: int, steps: int) -> dict:
    """Import the trees in ``order`` ("ab" or "ba"), check that they agree,
    and time the rounds; returns seconds per step of each side per round."""
    packages = {side: load_tree(trees[side], f"cwinspect_{side}") for side in order}
    unit, default_steps = WORKLOADS[workload]
    steps = steps or default_steps
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        outputs = {side: unit(packages[side], steps, workdir) for side in SIDES}
        if outputs["a"] != outputs["b"]:
            raise SystemExit(f"{workload}: the trees' outputs differ: {outputs}")
        per_step = {side: [] for side in SIDES}
        for r in range(rounds):
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                t0 = time.perf_counter()
                n, _ = unit(packages[side], steps, workdir)
                per_step[side].append((time.perf_counter() - t0) / n)
    return per_step


def report(label: str, per_step: dict) -> None:
    a, b = per_step["a"], per_step["b"]
    ratios = [tb / ta for ta, tb in zip(a, b)]
    wins = sum(r < 1.0 for r in ratios)
    print(f"{label:<14} A {statistics.median(a) * 1e6:9.2f} us/step   "
          f"B {statistics.median(b) * 1e6:9.2f} us/step   "
          f"B/A {statistics.median(ratios):.4f}   B faster in {wins} of {len(ratios)} rounds")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_tree", type=Path)
    parser.add_argument("b_tree", type=Path)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--steps", type=int, default=0,
                        help="cap on the steps of each episode (default: the workload's)")
    parser.add_argument("--order", choices=("ab", "ba"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    trees = {"a": args.a_tree.resolve(), "b": args.b_tree.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "cwinspect" / "__init__.py").is_file():
            parser.error(f"{tree} has no src/cwinspect package")
    if args.rounds < 1 or args.steps < 0:
        parser.error("--rounds must be positive and --steps non-negative")

    if args.order:
        print(json.dumps(child(trees, args.order, args.workload, args.rounds, args.steps)))
        return 0

    merged = {side: [] for side in SIDES}
    print(f"workload {args.workload}: A = {trees['a']}, B = {trees['b']}, "
          f"{args.rounds} rounds per import order")
    for order in ("ab", "ba"):
        cmd = [sys.executable, __file__, str(trees["a"]), str(trees["b"]),
               "--workload", args.workload, "--rounds", str(args.rounds),
               "--steps", str(args.steps), "--order", order]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr + proc.stdout)
            return 1
        per_step = json.loads(proc.stdout.splitlines()[-1])
        report(f"imported {order.upper()}", per_step)
        for side in SIDES:
            merged[side] += per_step[side]
    report("both orders", merged)
    return 0


if __name__ == "__main__":
    sys.exit(main())
