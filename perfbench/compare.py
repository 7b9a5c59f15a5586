"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines ``run.py --out FILE`` appends, one per run.  For
every workload and trace mode in both files, and every metric of the result
line, this prints the median and quartiles of each side, the change of the
medians as a share of the base median, and for end-to-end metrics the bound
from ``BENCHMARK.json``: a change worse than the bound is marked ``WORSE``,
and a metric whose base runs spread wider than the bound is ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """(workload, trace) -> metric -> list of values."""
    runs = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        key = (record["meta"]["workload"], record["meta"]["trace"])
        for name, metric in record["result"]["metrics"].items():
            runs[key][name].append(metric["value"])
    return runs


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    for key in sorted(set(base) & set(new)):
        print(f"== {key[0]} (trace {key[1]}): {len(next(iter(base[key].values())))} "
              f"base runs, {len(next(iter(new[key].values())))} new runs")
        for name in base[key]:
            if name not in new[key]:
                continue
            b1, b2, b3 = quartiles(base[key][name])
            n1, n2, n3 = quartiles(new[key][name])
            change = (n2 - b2) / abs(b2) if b2 else float("nan")
            m = e2e.get(name) or layers.get(name, {})
            verdict = ""
            if "bound" in m:
                worse = -change if m["better"] == "higher" else change
                if b2 and (b3 - b1) / abs(b2) > m["bound"]:
                    verdict = "unresolved"
                elif worse > m["bound"]:
                    verdict = "WORSE"
                else:
                    verdict = f"within {m['bound']:g}"
            print(f"  {name:<50} base {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"new {n2:.6g} [{n1:.6g}, {n3:.6g}]  {change:+.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
