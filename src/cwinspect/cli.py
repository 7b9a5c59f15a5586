"""Command-line interface: run experiments, batch configs, validate weights."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .control import mlp_load
from .harness import (_EMITTERS, _resolve_controller, default_experiment, load_config, run,
                      run_batch, write_run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwinspect",
        description="Inspection-mission simulator with run-time assurance")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one experiment")
    group = p_run.add_mutually_exclusive_group(required=True)
    group.add_argument("--experiment", type=int, choices=range(1, 7),
                       metavar="N", help="reference experiment number 1..6")
    group.add_argument("--config", type=str, help="JSON config file")
    p_run.add_argument("--closed-loop", action="store_true",
                       help="feed noise-corrupted state to controller and filter")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", type=str, default=".")
    p_run.add_argument("--format", type=str, default="csv,json",
                       help="comma-separated subset of csv,json,svg")
    p_run.add_argument("--weights", type=str, default=None,
                       help="policy weights file for NNC controllers")
    p_run.add_argument("--max-duration", type=float, default=None,
                       help="override run duration [space s]")

    p_batch = sub.add_parser("batch", help="run a directory of configs")
    p_batch.add_argument("--configs", type=str, required=True)
    p_batch.add_argument("--jobs", type=int, default=1)
    p_batch.add_argument("--out", type=str, default="batch_out")

    p_val = sub.add_parser("validate-weights", help="check a weights file")
    p_val.add_argument("file", type=str)

    return parser


def _cmd_run(args) -> int:
    given = {"closed_loop": args.closed_loop or None, "seed": args.seed,
             "weights_path": args.weights, "max_duration": args.max_duration}
    overrides = {k: v for k, v in given.items() if v is not None}
    try:
        if args.experiment is not None:
            cfg = default_experiment(args.experiment)
        else:
            cfg = load_config(args.config)
        # replace() builds a new config, so its checks see the overrides
        cfg = dataclasses.replace(cfg, **overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    bad = [f for f in formats if f not in _EMITTERS]
    if bad:
        print(f"error: unknown format(s) {bad}; choose from {tuple(_EMITTERS)}",
              file=sys.stderr)
        return 2

    try:
        # refuse the weights, then an --out that cannot be made, before flying
        _resolve_controller(cfg)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        log, summary = run(cfg)
        write_run(log, summary, args.out, formats)
    except (OSError, ValueError) as exc:
        # a missing or unreadable weights file, weights that do not fit, or
        # an --out that is a file or cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"controller={summary['controller_resolved']} steps={summary['steps']} "
          f"inspected={summary['inspected']}/99 delta_v={summary['delta_v']:.2f} m/s "
          f"reward={summary['reward']:.2f} min_distance={summary['min_distance']:.2f} m "
          f"success={summary['success']}")
    return 0


def _cmd_batch(args) -> int:
    try:
        index = run_batch(args.configs, args.out, jobs=args.jobs)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, brief in index.items():
        print(f"{name}: inspected={brief['inspected']} "
              f"delta_v={brief['delta_v']:.2f} reward={brief['reward']:.2f} "
              f"success={brief['success']}")
    return 0


def _cmd_validate(args) -> int:
    try:
        policy = mlp_load(args.file)
    except (OSError, ValueError) as exc:
        print(f"invalid weights file: {exc}", file=sys.stderr)
        return 1
    shape = " -> ".join(
        [str(policy.input_dim)] + [str(l.weights.shape[0]) for l in policy.layers])
    acts = ", ".join(l.activation for l in policy.layers)
    print(f"ok: {shape} (activations: {acts})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "validate-weights":
        return _cmd_validate(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
