"""cwinspect benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload rta_lqr --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: the only
instrument is one clock pair per call of the workload's latency layer
(``filter_control`` or ``InspectionEnv.step``).  Between blocks of the
workload it times a fixed reference loop that runs no cwinspect code; the
gated throughput metric ``step_cost`` is host time per control step
divided by the loop's time per iteration, which cancels the host's speed
swings.  ``--trace 1`` alternates untraced units with units run under a
:class:`tracer.Tracer` and reports the per-layer metrics.  The last line of standard output is the result
object; the line before it holds the run metadata and every measured
figure.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120

# End-to-end metrics in the result line: (name, unit).  The report line also
# carries the ones that do not apply to every workload.
END_TO_END = (("step_cost", "ref_loops"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Per-call latencies of the layer a workload's caller waits on; a workload
# without that layer reports them as absent (per-layer result: 0).
LATENCIES = tuple(f"{p}{s}" for p in ("filter_us", "env_step_us")
                  for s in ("_p50", "_p99", ".samples"))
QP_SPLITS = ("k0", "k1", "k2", "k3", "infeasible")
US_P50 = ("rta.filter_control", "rta.infeasible_fallback", "safety.cbf_rows",
          "safety.h_values", "inspection.nearest_uninspected_cluster",
          "inspection.update_inspected", "control.mlp_act", "control.lqr_control",
          "dynamics.step")
SELF_US_P50 = ("env.build_observation", "env.InspectionEnv.step")

# Per-layer metrics in the result line of a traced run: (name, unit, better).
PER_LAYER = (
    *((f"{layer}.calls", "count", "lower") for layer in tracer.LAYERS),
    *((f"{layer}.us_p50", "us", "lower") for layer in US_P50),
    *((f"{layer}.self_us_p50", "us", "lower") for layer in SELF_US_P50),
    *((f"rta.solve_qp.calls.{k}", "count", "lower") for k in QP_SPLITS),
    *((f"rta.solve_qp.us_p50.{k}", "us", "lower") for k in QP_SPLITS),
    ("rta.solve_qp.infeasible_frac", "1", "lower"),
    ("rta.filter_control.intervened_frac", "1", "lower"),
    ("inspection.nearest_uninspected_cluster.us_p99", "us", "lower"),
    ("inspection.nearest_uninspected_cluster.fresh_frac", "1", "higher"),
    ("harness.run.self_us_per_step", "us", "lower"),
    ("harness.emit.ms_per_episode.csv", "ms", "lower"),
    ("harness.emit.ms_per_episode.json", "ms", "lower"),
    ("harness.load_config.ms", "ms", "lower"),
    ("harness.run_batch.parallel_eff", "1", "higher"),
    ("trace_overhead_frac", "1", "lower"),
    *((name, "count" if name.endswith("samples") else "us",
       "higher" if name.endswith("samples") else "lower") for name in LATENCIES),
)


REF_ITERS = 50
# Workload time between reference loops run from inside an episode.
REF_INTERVAL_S = 0.1
_REF_M = 0.9 * np.eye(6) + 0.01
_REF_N = np.full((6, 3), 1e-3)
_REF_U = np.ones(3)
_REF_POINTS = np.random.default_rng(0).random((60, 3))


def reference_us() -> float:
    """µs per iteration of a fixed loop shaped like the library's per-step
    work: small matrix-vector products, clipping and number formatting, and
    one nearest-centre assignment of 60 points to 6 centres.

    It shares no code with cwinspect, so a change to the library leaves it
    alone, while it slows and speeds up with the host as the workload does.
    """
    x = np.zeros(6)
    centres = _REF_POINTS[:6].copy()
    t0 = time.perf_counter()
    for _ in range(REF_ITERS):
        x = _REF_M @ x + _REF_N @ _REF_U
        cells = ",".join(f"{v:.9e}" for v in x[:2])
        x = np.clip(x, -1.0, 1.0) * (len(cells) > 0)
        d2 = np.sum((_REF_POINTS[:, None, :] - centres[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        for j in range(len(centres)):
            members = _REF_POINTS[labels == j]
            if len(members):
                centres[j] = 0.5 * (centres[j] + members.mean(axis=0))
    return (time.perf_counter() - t0) * 1e6 / REF_ITERS


class Reference:
    """Reference-loop timings taken beside the workload.

    :meth:`burst` times the loop; :meth:`tick`, called once per control step
    through the workload's clock layer, times it again once ``REF_INTERVAL_S``
    of workload time has passed.  The host's speed swings last from well
    under a second to minutes, so each stretch of workload time between two
    loops is scaled by the mean of those two loops.
    """

    def __init__(self):
        self.bursts = []  # (start, end, µs per loop iteration)
        self.burst()

    def burst(self) -> None:
        """Time the loop once; its interval is cut out of the workload's."""
        t0 = time.perf_counter()
        us = reference_us()
        self.bursts.append((t0, time.perf_counter(), us))

    def tick(self, spans=None) -> None:
        if time.perf_counter() - self.bursts[-1][1] >= REF_INTERVAL_S:
            self.burst()
            if spans is not None:
                start, end, _ = self.bursts[-1]
                spans.pause(int((end - start) * 1e9))

    def scale(self, block, first: int) -> None:
        """Set ``block.seconds`` to its time outside reference loops and
        ``block.loops`` to that time in loop iterations, using the bursts
        from index ``first`` on."""
        block.seconds = block.loops = 0.0
        recent = self.bursts[first:]
        for (_, lo, us0), (hi, _, us1) in zip(recent, recent[1:]):
            overlap = min(hi, block.end) - max(lo, block.start)
            if overlap > 0:
                block.seconds += overlap
                block.loops += overlap * 2e6 / (us0 + us1)

    @contextmanager
    def ticking(self, layer: str, spans=None):
        """Call :meth:`tick` before every call of ``layer``; a loop run
        inside a span of the :class:`tracer.Tracer` ``spans`` is kept out of
        that span's self time."""
        saved = []
        for owner, name in tracer.bindings(layer):
            func = getattr(owner, name)

            def ticked(*args, _func=func, **kwargs):
                self.tick(spans)
                return _func(*args, **kwargs)

            saved.append((owner, name, func))
            setattr(owner, name, ticked)
        try:
            yield
        finally:
            for owner, name, func in reversed(saved):
                setattr(owner, name, func)


class _FirstStep(Exception):
    """Raised by the set-up probe at the first timed step."""


def _import_workloads():
    """Put the checkout's ``src`` first on the path and load the workloads,
    which import cwinspect from there."""
    sys.path.insert(0, str(SRC))
    import cwinspect
    import workloads
    if Path(cwinspect.__file__).resolve().parent != SRC / "cwinspect":
        raise RuntimeError(f"imported cwinspect from {cwinspect.__file__}, not {SRC}")
    return workloads


def setup_probe(name: str, seed: int, workdir: Path) -> int:
    """Child process of :func:`measure_setup`: import, set up, and print the
    clock at the first call of the workload's marker layer."""
    workloads = _import_workloads()
    w = workloads.WORKLOADS[name](seed, workdir)

    def first_step(*args, **kwargs):
        raise _FirstStep(time.perf_counter())

    for owner, attr in tracer.bindings(w.marker):
        setattr(owner, attr, first_step)
    try:
        w.setup()
        for block in w.blocks():
            block()
    except _FirstStep as mark:
        print(repr(mark.args[0]))
        return 0
    print(f"set-up probe: {w.marker} was never called", file=sys.stderr)
    return 1


def measure_setup(name: str, seed: int, workdir: Path, count: int) -> list:
    """Times of ``count`` fresh processes from spawn to the first timed step.

    ``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
    the child's reading and the parent's start time share one time base.
    """
    times = []
    for k in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", name, "--seed", str(seed),
               "--workdir", str(workdir / f"probe{k}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def _git_sha() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args, loadavg) -> dict:
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_start": loadavg,
    }


class Tally:
    """Attempted and failed episodes of one run, with what failed."""

    def __init__(self):
        self.attempted = 0
        self.problems = []
        self.episodes = []
        self.ref = Reference()

    @property
    def failed(self) -> int:
        return len(self.problems)

    def run_unit(self, w, pooled: bool = False):
        """One unit of blocks, each scaled by :meth:`Reference.scale`.
        Returns None when a block raises, which counts as one failed
        attempt."""
        blocks = []
        ref = self.ref
        for run_block in w.blocks(pooled=pooled):
            first = len(ref.bursts) - 1
            try:
                block = run_block()
            except Exception:
                self.attempted += 1
                self.problems.append(traceback.format_exc())
                return None
            ref.burst()
            ref.scale(block, first)
            self.attempted += len(block.episodes)
            self.episodes += block.episodes
            self.problems += ["; ".join(e.problems) for e in block.episodes if e.problems]
            blocks.append(block)
        return blocks

    def repro(self, workloads, seed: int) -> None:
        self.attempted += 1
        try:
            self.problems += workloads.repro_problems(seed)
        except Exception:
            self.problems.append(traceback.format_exc())


def _seconds(units) -> float:
    return sum(b.seconds for u in units for b in u)


def _steps(units) -> int:
    return sum(b.steps for u in units for b in u)


def _cost(units) -> float:
    """Reference-loop iterations per control step."""
    steps = _steps(units)
    return sum(b.loops for u in units for b in u) / steps if steps else 0.0


def _latency(lat, layer: str, prefix: str) -> dict:
    """Per-call latency of ``layer`` when ``lat`` timed it, else nothing."""
    if lat is None or lat.layers != (layer,):
        return {}
    return {f"{prefix}_p50": lat.self_us(layer, 50),
            f"{prefix}_p99": lat.self_us(layer, 99),
            f"{prefix}.samples": lat.calls(layer)}


def run_end_to_end(w, workloads, args, workdir, tally):
    # Half the set-up probes run before the timed loop and half after, so
    # the median spans the host's state over the whole run.
    setup = measure_setup(args.workload, args.seed, workdir / "before", SETUP_PROBES // 2)
    w.setup()
    w.warmup()
    lat = tracer.Tracer([w.latency_layer]) if w.latency_layer else None
    units = []
    while _seconds(units) < args.seconds:
        with lat or nullcontext(), tally.ref.ticking(w.clock_layer):
            unit = tally.run_unit(w)
        if unit is None:
            break
        units.append(unit)
    tally.repro(workloads, args.seed)
    setup += measure_setup(args.workload, args.seed, workdir / "after",
                           SETUP_PROBES - len(setup))
    eps = tally.episodes
    elapsed = _seconds(units)
    figures = {
        "step_cost": _cost(units),
        "steps_per_s": _steps(units) / elapsed if elapsed else 0.0,
        "episodes_per_s": len(eps) / elapsed if elapsed else 0.0,
        "ref_us": statistics.median(b[2] for b in tally.ref.bursts),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        **dict.fromkeys(LATENCIES),
        **_latency(lat, "rta.filter_control", "filter_us"),
        **_latency(lat, "env.InspectionEnv.step", "env_step_us"),
        "min_distance_m": min((e.min_distance for e in eps), default=float("nan")),
        "min_h": min((e.min_h for e in eps), default=float("nan")),
        "failed_frac": tally.failed / tally.attempted,
        "units": len(units),
        "measured_s": elapsed,
    }
    return figures, {name: figures[name] for name, _ in END_TO_END}, []


def run_traced(w, workloads, args, workdir, tally):
    w.setup()
    w.warmup()
    lat = tracer.Tracer([w.latency_layer]) if w.latency_layer else None
    tr = tracer.Tracer()
    untraced, traced, pooled = [], [], []
    ref = tally.ref
    while _seconds(untraced) + _seconds(traced) + _seconds(pooled) < args.seconds:
        with lat or nullcontext(), ref.ticking(w.clock_layer):
            plain = tally.run_unit(w)
        with tr, ref.ticking(w.clock_layer, tr):
            spanned = tally.run_unit(w)
        pool = tally.run_unit(w, pooled=True) if w.uses_pool else None
        if plain is None or spanned is None or (w.uses_pool and pool is None):
            break
        untraced.append(plain)
        traced.append(spanned)
        if pool is not None:
            pooled.append(pool)
    tally.repro(workloads, args.seed)
    n = max(len(traced), 1)
    m = {f"{layer}.calls": tr.calls(layer) / n for layer in tracer.LAYERS}
    m.update({f"{layer}.us_p50": tr.self_us(layer, 50) for layer in US_P50})
    m.update({f"{layer}.self_us_p50": tr.self_us(layer, 50) for layer in SELF_US_P50})
    for k in QP_SPLITS:
        m[f"rta.solve_qp.calls.{k}"] = tr.calls("rta.solve_qp", k) / n
        m[f"rta.solve_qp.us_p50.{k}"] = tr.self_us("rta.solve_qp", 50, k)
    m["rta.solve_qp.infeasible_frac"] = tr.tag_frac("rta.solve_qp", "infeasible")
    m["rta.filter_control.intervened_frac"] = tr.tag_frac("rta.filter_control", True)
    cluster = "inspection.nearest_uninspected_cluster"
    m[f"{cluster}.us_p99"] = tr.self_us(cluster, 99)
    m[f"{cluster}.fresh_frac"] = tr.tag_frac(cluster, True)
    run_steps = sum(r[1] for r in tr.records.get("harness.run", ()))
    m["harness.run.self_us_per_step"] = (
        tr.self_s("harness.run") * 1e6 / run_steps if run_steps else 0.0)
    for fmt in ("csv", "json"):
        m[f"harness.emit.ms_per_episode.{fmt}"] = tr.self_us("harness.emit", 50, fmt) / 1e3
    m["harness.load_config.ms"] = tr.self_us("harness.load_config", 50) / 1e3
    serial = _cost(untraced)
    m["harness.run_batch.parallel_eff"] = serial / (2 * _cost(pooled)) if pooled else 0.0
    m["trace_overhead_frac"] = _cost(traced) / serial - 1.0 if serial else 0.0
    m.update(dict.fromkeys(LATENCIES, 0.0))
    m.update(_latency(lat, "rta.filter_control", "filter_us"))
    m.update(_latency(lat, "env.InspectionEnv.step", "env_step_us"))
    binding = [f"{layer}: expected {'calls' if want else 'no calls'}, got {m[f'{layer}.calls']:g}"
               for layer, want in w.expect.items()
               if (m[f"{layer}.calls"] > 0) != want]
    figures = {**m, "units": len(traced),
               "measured_s": _seconds(untraced) + _seconds(traced) + _seconds(pooled)}
    return figures, {name: m[name] for name, _, _ in PER_LAYER}, binding


def _units() -> dict:
    units = {name: unit for name, unit in END_TO_END}
    units.update({name: unit for name, unit, _ in PER_LAYER})
    units.update(steps_per_s="1/s", ref_us="us", episodes_per_s="1/s", filter_us_p50="us", filter_us_p99="us",
                 env_step_us_p50="us", env_step_us_p99="us", min_distance_m="m",
                 min_h="1", failed_frac="1", measured_s="s")
    return units


def print_report(figures: dict, tally: Tally, binding: list) -> None:
    units = _units()
    for name, value in figures.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<52} {shown} {units.get(name, '')}")
    for problem in tally.problems + binding:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the metadata and result as one JSON line")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        args.workdir.mkdir(parents=True, exist_ok=True)
        return setup_probe(args.workload, args.seed, args.workdir)

    loadavg = os.getloadavg()
    if not (SRC / "cwinspect" / "__init__.py").is_file():
        print(f"cwinspect sources not found under {SRC}", file=sys.stderr)
        return 2
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally()
        measure = run_traced if args.trace else run_end_to_end
        figures, metrics, binding = measure(w, workloads, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    correct = tally.failed == 0 and not binding
    units = _units()
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    meta = metadata(args, loadavg)
    print(f"cwinspect benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print_report(figures, tally, binding)
    record = {"meta": meta, "figures": figures, "result": result}
    if args.out is not None:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"meta": meta, "figures": figures}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
