"""Print the SHA-256 identity table of the fixed-seed logs.

Two tables, for comparing the logs of two commits byte for byte:

- reference experiments 1-6 at their default seeds, open and closed loop:
  SHA-256 of the emitted CSV / of the emitted JSON / first 16 hex of the
  ``row_matrix()`` bytes / rows;
- 16 seeded NNC episodes, experiments 1, 3, 4 and 6 flying
  ``random_policy(6 or 11, seed=s)`` for s = 1, 2 over 400 steps, open and
  closed loop: full SHA-256 of the ``row_matrix()`` bytes / rows.

Run from a checkout with ``PYTHONPATH=src python tools/log_hashes.py``.
The hashes depend on the BLAS build and the CPU, so compare tables made on
the same machine; they are not a test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
from pathlib import Path

from cwinspect.control import mlp_save, random_policy
from cwinspect.harness import default_experiment, emit, run

# experiment -> policy inputs: 6 for the no-sensors NNCs, 11 for all-sensors
NNC_EXPERIMENTS = {1: 6, 3: 6, 4: 11, 6: 11}
NNC_SEEDS = (1, 2)
NNC_STEPS = 400
LOOPS = (("open", False), ("closed", True))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        print("exp / loop / CSV / JSON / row_matrix()[:16] / rows")
        for n in range(1, 7):
            for name, closed in LOOPS:
                cfg = dataclasses.replace(default_experiment(n), closed_loop=closed)
                log, _ = run(cfg)
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
                    log, _ = run(dataclasses.replace(
                        cfg, weights_path=str(weights), max_steps=NNC_STEPS,
                        closed_loop=closed))
                    print(f"nnc exp{n} seed{s} {name:<6} "
                          f"{_sha(log.row_matrix().tobytes())} {len(log)}")


if __name__ == "__main__":
    main()
