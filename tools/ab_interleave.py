"""Interleaved A/B timing of two cwinspect trees in one process.

    python tools/ab_interleave.py A_TREE B_TREE \
        --workload env|exp2|nnc|filter|cluster [--rounds 8] [--steps N]

Each tree is a checkout whose ``src/cwinspect`` is imported under its own
package name (``cwinspect_a``, ``cwinspect_b``), so both run in the same
process on the same host state.  The tool first asserts that the two trees
give identical outputs on the workload, then times ``--rounds`` rounds.  A
round replays one unit of the workload twice on each side, in the order
A B B A (B A A B on odd rounds), and keeps each side's faster replay, so a
burst of load from elsewhere on the host must slow both of a side's
replays to move the round.  Which tree is imported first also moves the
timing by a few percent, so the whole run is made twice, in a fresh process
per import order.

Workloads, one unit each:

- ``env``: an ``InspectionEnv`` episode (no sensors) driven through
  ``mlp_act`` by ``random_policy(6, seed=1)``, the benchmark's
  ``env_rollout`` chain; 1223 steps unless ``--steps`` caps it;
- ``exp2``: reference experiment 2 (LQR behind the filter), open and closed
  loop, 3000 steps each unless ``--steps`` caps them;
- ``nnc``: reference experiment 4 (all-sensors NNC, illumination) flown by
  ``random_policy(11, seed=s)`` for s = 1..4, 250 steps each unless
  ``--steps`` caps them;
- ``filter``: the calls ``filter_control`` gets in reference experiment
  2, open and closed loop (3000 steps each unless ``--steps`` caps them),
  recorded once per tree with the arguments that tree's ``run`` passes and
  replayed one call at a time with them unchanged; the outputs
  compared are every call's ``u_act``, ``active_set``, ``feasible`` and
  ``slack_used``, and a step is one filter call.  It times the filter alone,
  without the rest of the episode;
- ``cluster``: the ``nearest_uninspected_cluster`` calls of the ``nnc``
  unit, each one's inspected mask and deputy position, recorded once per
  tree and replayed one call at a time on one sphere; the outputs compared
  are every returned direction's bytes, and a step is one call.  Each
  replay starts with the tree's ``inspection`` memos cleared (the cluster
  memo, and in older trees the seeded generator), as a fresh process does;
  the pair table of squared distances is built at import and is not
  cleared per replay.  The calls are also timed apart: ``fresh`` ones, whose mask
  differs from the previous call's (as the benchmark tags a call fresh; the
  memo may still hold that mask from an earlier episode), and memo ``hit``
  ones, whose mask does not.

Prints, per import order and over both, each side's median time per step,
the median of the per-round B/A ratios and how many rounds B was faster;
for ``cluster`` the same again for the fresh calls and for the hits.
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
# (package name, steps) -> the recorded filter_control calls of filter_unit
FILTER_CALLS = {}


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
    calls are recorded in the first call for each tree, each with the
    arguments that tree's ``run`` passed (its arrays copied), and replayed
    with those arguments unchanged, so trees whose ``filter_control`` takes
    different arguments still compare."""
    key = (cw.__name__, steps)
    if key not in FILTER_CALLS:
        seen = []
        filter_control = cw.harness.filter_control

        def record(*args, **kwargs):
            seen.append((tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args),
                         kwargs))
            return filter_control(*args, **kwargs)

        cw.harness.filter_control = record
        try:
            exp2_unit(cw, steps, workdir)
        finally:
            cw.harness.filter_control = filter_control
        FILTER_CALLS[key] = seen
    calls, filter_control = FILTER_CALLS[key], cw.filter_control
    digest = hashlib.sha256()
    for args, kwargs in calls:
        res = filter_control(*args, **kwargs)
        digest.update(res.u_act.tobytes())
        digest.update(res.slack_used.tobytes())
        digest.update(repr((res.active_set, res.feasible)).encode())
    return len(calls), digest.hexdigest()


def nnc_unit(cw, steps: int, workdir: Path):
    configs = []
    for s in NNC_SEEDS:
        weights = workdir / f"policy_11_{s}.json"
        if not weights.exists():
            cw.mlp_save(cw.random_policy(11, seed=s), weights)
        configs.append(dataclasses.replace(cw.default_experiment(4),
                                           weights_path=str(weights), max_steps=steps))
    return _runs(cw, configs)


def cluster_unit(cw, steps: int, workdir: Path):
    """Replay the nnc unit's cluster calls one at a time; returns (calls,
    digest of every returned direction, {kind: (calls, seconds)} for the
    fresh calls and the memo hits).  The calls are recorded in the first
    call for each tree and kept in ``workdir``."""
    stream = workdir / f"cluster_calls_{cw.__name__}.npz"
    if not stream.exists():
        masks, positions = [], []
        inspection = cw.inspection
        nearest = inspection.nearest_uninspected_cluster

        def record(sphere, deputy_position):
            masks.append(sphere.inspected.copy())
            positions.append(np.array(deputy_position, dtype=float))
            return nearest(sphere, deputy_position)

        inspection.nearest_uninspected_cluster = record
        try:
            nnc_unit(cw, steps, workdir)
        finally:
            inspection.nearest_uninspected_cluster = nearest
        np.savez(stream, masks=np.array(masks), positions=np.array(positions))
    calls = np.load(stream)
    masks, positions = calls["masks"], calls["positions"]
    for cached in vars(cw.inspection).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    fresh = np.r_[True, (masks[1:] != masks[:-1]).any(axis=1)].tolist()
    sphere, nearest = cw.generate_points(), cw.nearest_uninspected_cluster
    clock, digest = time.perf_counter, hashlib.sha256()
    spent = {"fresh": 0.0, "hit": 0.0}
    for mask, position, is_fresh in zip(masks, positions, fresh):
        if is_fresh:
            sphere.inspected[:] = mask
        t0 = clock()
        direction = nearest(sphere, position)
        spent["fresh" if is_fresh else "hit"] += clock() - t0
        digest.update(direction.tobytes())
    n_fresh = sum(fresh)
    parts = {"fresh": (n_fresh, spent["fresh"]), "hit": (len(fresh) - n_fresh, spent["hit"])}
    return len(masks), digest.hexdigest(), parts


WORKLOADS = {"env": (env_unit, ENV_STEPS), "exp2": (exp2_unit, EXP2_STEPS),
             "nnc": (nnc_unit, NNC_STEPS), "filter": (filter_unit, EXP2_STEPS),
             "cluster": (cluster_unit, NNC_STEPS)}


def child(trees, order: str, workload: str, rounds: int, steps: int) -> dict:
    """Import the trees in ``order`` ("ab" or "ba"), check that they agree,
    and time the rounds; returns {part: {side: seconds per step per round}},
    the part "all" being the whole unit and any others the unit's own."""
    packages = {side: load_tree(trees[side], f"cwinspect_{side}") for side in order}
    unit, default_steps = WORKLOADS[workload]
    steps = steps or default_steps
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        outputs = {side: unit(packages[side], steps, workdir)[:2] for side in SIDES}
        if outputs["a"] != outputs["b"]:
            raise SystemExit(f"{workload}: the trees' outputs differ: {outputs}")
        per_step = {"all": {side: [] for side in SIDES}}
        for r in range(rounds):
            first, second = SIDES if r % 2 == 0 else SIDES[::-1]
            fastest = {}  # side -> (seconds, steps, parts) of its faster replay
            for side in (first, second, second, first):
                t0 = time.perf_counter()
                n, _, *parts = unit(packages[side], steps, workdir)
                seconds = time.perf_counter() - t0
                if side not in fastest or seconds < fastest[side][0]:
                    fastest[side] = seconds, n, parts
            for side, (seconds, n, parts) in fastest.items():
                per_step["all"][side].append(seconds / n)
                for part, (count, spent) in (parts[0] if parts else {}).items():
                    per_side = per_step.setdefault(part, {s: [] for s in SIDES})
                    per_side[side].append(spent / max(count, 1))
    return per_step


def report(label: str, per_step: dict) -> None:
    for part, sides in per_step.items():
        _report_part(label if part == "all" else f"  {part}", sides)


def _report_part(label: str, per_step: dict) -> None:
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

    merged = {}
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
        for part, sides in per_step.items():
            for side in SIDES:
                merged.setdefault(part, {s: [] for s in SIDES})[side] += sides[side]
    report("both orders", merged)
    return 0


if __name__ == "__main__":
    sys.exit(main())
