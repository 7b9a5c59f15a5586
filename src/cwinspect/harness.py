"""Experiment runner: the six reference experiments, open/closed loop,
sensor-noise emulation, trajectory logging and file emission.

Open loop feeds the simulated truth to the controller and filter; closed
loop feeds a noise-corrupted copy and applies a random disturbance
acceleration to the plant, standing in for the flight-volume hardware loop.
The state is a plain 6-vector with the sun angle beside it.  Each control
step is logged as one row in CSV column order and can be written as CSV
(bit-stable), schema-versioned JSON, or a simple SVG plot.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import inspection
from .control import lqr_control, mlp_act, mlp_load, scripted_orbit_control
from .dynamics import (MASS, MEAN_MOTION, _flag, _fly, _integer, _positive, _vector,
                       hold_maps)
from .env import OBS_ALL_SENSORS, OBS_NO_SENSORS, PAPER_INITIAL_STATE, \
    PAPER_INITIAL_SUN_ANGLE, build_observation
from .rta import DEFAULT_PERIOD, filter_control
from .safety import NUM_CONSTRAINTS, SafetyParams, h_values

__all__ = [
    "CONTROLLER_CHOICES",
    "NoiseModel",
    "ExperimentConfig",
    "TrajectoryLog",
    "default_experiment",
    "load_config",
    "inject_noise",
    "run",
    "emit",
    "write_run",
    "run_batch",
]

_NNC_MODES = {
    "nnc_no_sensors": OBS_NO_SENSORS,
    "nnc_all_sensors": OBS_ALL_SENSORS,
    "best_nnc_no_sensors": OBS_NO_SENSORS,
    "best_nnc_all_sensors": OBS_ALL_SENSORS,
}
CONTROLLER_CHOICES = (*_NNC_MODES, "lqr", "scripted")

CSV_COLUMNS = (
    "t", "x", "y", "z", "xd", "yd", "zd", "sun_angle",
    "u_des_x", "u_des_y", "u_des_z", "u_act_x", "u_act_y", "u_act_z",
    "h1", "h2", "h3", "h4", "h5", "h6",
    "intervened", "deviation", "num_points", "delta_v",
)

JSON_SCHEMA_VERSION = 1

# half the lab-frame extents of the 8 x 8 x 4 m flight volume, centred on the chief
_AVIARY_HALF_BOX = np.array([4.0, 4.0, 2.0])  # [m]


# where each quantity sits in a row of CSV_COLUMNS: one column by index,
# a group of columns by slice
_T, _SUN_ANGLE, _INTERVENED, _DEVIATION, _NUM_POINTS, _DELTA_V = map(
    CSV_COLUMNS.index, ("t", "sun_angle", "intervened", "deviation", "num_points", "delta_v"))
_X, _STATES, _U_DES, _U_ACT, _H = (
    slice(CSV_COLUMNS.index(first), CSV_COLUMNS.index(last) + 1) for first, last in (
        ("x", "zd"), ("x", "sun_angle"), ("u_des_x", "u_des_z"), ("u_act_x", "u_act_z"),
        ("h1", "h6")))


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian sensing noise and plant disturbance for closed-loop runs.

    Magnitudes are modeling choices, calibrated only to produce visibly
    noisy but trackable runs; a zero-sigma model reproduces the open loop
    record for record.  The experiment seed seeds the noise stream.
    """

    position_sigma: float = 0.5  # [m]
    velocity_sigma: float = 0.02  # [m/s]
    disturbance_sigma: float = 5e-5  # [m/s^2]

    def __post_init__(self):
        for name in ("position_sigma", "velocity_sigma", "disturbance_sigma"):
            _positive(getattr(self, name), name, zero=True)


@dataclass
class ExperimentConfig:
    controller: str = "scripted"
    rta_enabled: bool = False
    illumination: bool = False
    position_scale: float = 65.0
    time_scale: float = 10.0
    max_duration: float = 6000.0  # [s] space frame
    max_steps: int | None = None
    closed_loop: bool = False
    seed: int = 0
    noise: NoiseModel = field(default_factory=NoiseModel)
    weights_path: str | None = None

    def __post_init__(self):
        if self.controller not in CONTROLLER_CHOICES:
            raise ValueError(f"unknown controller {self.controller!r}; "
                             f"choose from {CONTROLLER_CHOICES}")
        for name in ("rta_enabled", "illumination", "closed_loop"):
            setattr(self, name, _flag(getattr(self, name), name))
        for name in ("position_scale", "time_scale", "max_duration"):
            _positive(getattr(self, name), name)
        if self.max_steps is not None:
            _integer(self.max_steps, "max_steps", 1)
        _integer(self.seed, "seed", 0)
        if not isinstance(self.weights_path, (str, type(None))):
            raise ValueError(f"weights_path must be a path string or None, "
                             f"not {self.weights_path!r}")
        if isinstance(self.noise, dict):
            try:
                self.noise = NoiseModel(**self.noise)
            except TypeError as exc:
                raise ValueError(f"invalid noise model: {exc}") from exc
        if not isinstance(self.noise, NoiseModel):
            raise ValueError("noise must be a NoiseModel or a dict of its fields")

    @property
    def control_rate(self) -> float:
        """The control rate [Hz] in the space frame: 1 / :data:`DEFAULT_PERIOD`."""
        return 1.0 / DEFAULT_PERIOD


@dataclass
class TrajectoryLog:
    """Per-control-step records plus run metadata: ``rows`` is the read-only
    (S, 24) buffer that :func:`run` writes, one record per row in CSV_COLUMNS
    order, and the named fields are its columns."""

    rows: np.ndarray
    metadata: dict

    t = property(lambda log: log.rows[:, _T])  # (S,) strictly increasing
    states = property(lambda log: log.rows[:, _STATES])  # (S, 7): x..zd, sun angle
    u_des = property(lambda log: log.rows[:, _U_DES])  # (S, 3)
    u_act = property(lambda log: log.rows[:, _U_ACT])  # (S, 3)
    h = property(lambda log: log.rows[:, _H])  # (S, 6)
    intervened = property(lambda log: log.rows[:, _INTERVENED].astype(bool))  # (S,)
    deviation = property(lambda log: log.rows[:, _DEVIATION])  # (S,)
    num_points = property(lambda log: log.rows[:, _NUM_POINTS].astype(int))  # (S,)
    delta_v = property(lambda log: log.rows[:, _DELTA_V])  # (S,) cumulative

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float).view()
        self.rows.setflags(write=False)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(CSV_COLUMNS):
            raise ValueError(f"rows must have shape (S, {len(CSV_COLUMNS)})")

    def __len__(self) -> int:
        return len(self.rows)

    def row_matrix(self) -> np.ndarray:
        """All records as the (S, 24) float matrix in CSV column order."""
        return self.rows


_EXPERIMENT_TABLE = {
    1: ("nnc_no_sensors", False, False, 65.0, 10.0),
    2: ("lqr", True, False, 65.0, 10.0),
    3: ("nnc_no_sensors", True, False, 65.0, 10.0),
    4: ("nnc_all_sensors", False, True, 300.0, 20.0),
    5: ("best_nnc_no_sensors", True, True, 65.0, 15.0),
    6: ("best_nnc_all_sensors", True, True, 100.0, 20.0),
}


def default_experiment(n: int) -> ExperimentConfig:
    """Reference configuration for experiment ``n`` (1..6).  Without
    ``weights_path`` an NNC row flies the scripted stand-in, so experiments
    5 and 6 then fly and log the same rows."""
    _integer(n, "experiment number", 1)  # True and 2.0 would match keys 1 and 2
    if n not in _EXPERIMENT_TABLE:
        raise ValueError(f"experiment number must be at most {len(_EXPERIMENT_TABLE)}, not {n!r}")
    controller, rta, illum, pos_scale, time_scale = _EXPERIMENT_TABLE[n]
    return ExperimentConfig(
        controller=controller,
        rta_enabled=rta,
        illumination=illum,
        position_scale=pos_scale,
        time_scale=time_scale,
    )


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON key/value file.

    The file may set ``experiment`` (1..6) to start from a reference row;
    every other key must name an ExperimentConfig field and overrides it.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    doc = dict(doc)
    base = doc.pop("experiment", None)
    unknown = set(doc) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if base is not None:
        cfg = default_experiment(base)
        merged = {**dataclasses.asdict(cfg), **doc}
    else:
        merged = doc
    try:
        return ExperimentConfig(**merged)
    except TypeError as exc:
        raise ValueError(f"invalid config in {path}: {exc}") from exc


def inject_noise(x: np.ndarray, model: NoiseModel,
                 rng: np.random.Generator) -> np.ndarray:
    """The finite 6-state ``x`` plus Gaussian noise on position and velocity
    (three draws each, position first), deterministic under a fixed one."""
    x = _vector(x, "state", 6)
    return x + np.concatenate([rng.normal(0.0, model.position_sigma, 3),
                               rng.normal(0.0, model.velocity_sigma, 3)])


def _resolve_controller(cfg: ExperimentConfig):
    """Build the control callback (x, theta, sphere) -> u_des, a (3,) thrust
    in the box, and its label."""
    name = cfg.controller
    if name == "lqr":
        return (lambda x, theta, sphere: lqr_control(x)), "lqr"
    if name == "scripted" or not cfg.weights_path:
        # an NNC without trained weights flies the scripted circumnavigation
        label = "scripted" if name == "scripted" else f"scripted (stand-in for {name})"
        return (lambda x, theta, sphere: scripted_orbit_control(x)), label
    mode = _NNC_MODES[name]
    policy = mlp_load(cfg.weights_path)
    if (mode == OBS_NO_SENSORS) != (policy.input_dim == 6):
        raise ValueError(
            f"weights input_dim {policy.input_dim} does not match "
            f"controller {name!r}")

    def nnc(x, theta, sphere):
        obs = build_observation(x, theta, sphere, mode)
        return mlp_act(policy, obs)

    return nnc, f"mlp:{cfg.weights_path}"


def run(cfg: ExperimentConfig) -> tuple[TrajectoryLog, dict]:
    """Simulate one experiment; returns (trajectory log, episode summary).

    Rows are recorded at each control instant: the state at t_k, the raw and
    filtered commands issued there, barrier values of the true state, the
    inspected count after the update at t_k, and the cumulative delta-v
    including the thrust held over [t_k, t_k + DEFAULT_PERIOD).  The run
    starts from the paper's initial state, as an :class:`InspectionEnv`
    episode does.

    The step loop runs only what the next step reads: the controller, the
    filter, the inspection update and the hold flight.  It keeps the state
    and commands in a row buffer and each flown hold's substep positions in
    a path buffer; the barrier values, delta-v, closest approach and
    aviary flag are computed from those buffers once the episode ends.

    ``cfg`` is checked again on entry, since fields may have been assigned
    after construction; the run, its log metadata and its summary use that
    checked copy.  Raises ValueError for a field ``ExperimentConfig`` refuses.
    """
    cfg = dataclasses.replace(cfg)
    safety = SafetyParams()
    controller, resolved = _resolve_controller(cfg)

    dt_c = DEFAULT_PERIOD
    # the plant flies each hold as the filter plans it
    D, S = hold_maps(dt_c)

    # any positive duration records the row at t = 0
    max_rows = max(1, math.ceil(cfg.max_duration * cfg.control_rate - 1e-9))
    if cfg.max_steps is not None:
        max_rows = min(max_rows, cfg.max_steps)

    rng = np.random.default_rng(cfg.seed)
    sphere = inspection.generate_points()
    x = PAPER_INITIAL_STATE.copy()

    rows = np.zeros((max_rows, len(CSV_COLUMNS)))
    path = np.empty((max_rows, len(D), 3))  # substep positions of each hold
    infeasible_steps = 0

    for k in range(max_rows):
        t_k = k * dt_c
        theta_k = PAPER_INITIAL_SUN_ANGLE - MEAN_MOTION * t_k
        sensed = inject_noise(x, cfg.noise, rng) if cfg.closed_loop else x

        u_des = controller(sensed, theta_k, sphere)  # (3,), in the thrust box
        if cfg.rta_enabled:
            res = filter_control(sensed, u_des, safety)
            u_act = res.u_act
            rows[k, _INTERVENED] = res.intervened
            rows[k, _DEVIATION] = res.deviation
            infeasible_steps += int(not res.feasible)
        else:
            u_act = u_des

        inspection.update_inspected(sphere, x[:3], theta_k, cfg.illumination)
        inspected = inspection.inspected_count(sphere)
        rows[k, _T] = t_k
        rows[k, _X] = x
        rows[k, _SUN_ANGLE] = theta_k
        rows[k, _U_DES] = u_des
        rows[k, _U_ACT] = u_act
        rows[k, _NUM_POINTS] = inspected

        if inspected == len(sphere.inspected):
            break

        force = u_act
        if cfg.closed_loop:
            force = force + MASS * rng.normal(0.0, cfg.noise.disturbance_sigma, 3)
        hold = _fly(D, S, x, force)
        path[k] = hold[:, :3]
        x = hold[-1]

    rows = rows[:k + 1]
    success = inspected == len(sphere.inspected)
    # an episode that inspects every point stops before flying its last hold
    flown = path[:k + 1 - success].reshape(-1, 3)
    rows[:, _H] = h_values(rows[:, _X], safety)
    rows[:, _DELTA_V] = np.cumsum(np.abs(rows[:, _U_ACT]).sum(axis=1) / MASS * dt_c)
    cum_dv = float(rows[-1, _DELTA_V])
    x0 = PAPER_INITIAL_STATE[:3]
    nearest = np.sqrt(np.min(np.einsum("ij,ij->i", flown, flown), initial=math.inf))
    min_distance = min(float(np.linalg.norm(x0)), float(nearest))
    in_aviary = bool(np.all(np.abs(x0) / cfg.position_scale <= _AVIARY_HALF_BOX)
                     and not np.any(np.abs(flown) / cfg.position_scale > _AVIARY_HALF_BOX))

    log = TrajectoryLog(
        rows,
        metadata={
            "controller": cfg.controller,
            "controller_resolved": resolved,
            "rta_enabled": cfg.rta_enabled,
            "illumination": cfg.illumination,
            "closed_loop": cfg.closed_loop,
            "seed": cfg.seed,
            "position_scale": cfg.position_scale,
            "time_scale": cfg.time_scale,
            "control_rate": cfg.control_rate,
            "columns": list(CSV_COLUMNS),
        },
    )

    summary = {
        "inspected": inspected,
        "delta_v": cum_dv,
        "reward": 0.1 * inspected - 0.1 * cum_dv,
        "steps": len(rows),
        "success": success,
        "min_distance": min_distance,
        "min_h": float(log.h.min()),
        "interventions": int(log.intervened.sum()),
        "infeasible_steps": infeasible_steps,
        "in_aviary": in_aviary,
        "final_distance": float(np.linalg.norm(x[:3])),
        "controller_resolved": resolved,
        "points": {
            "xyz": sphere.points.tolist(),
            "inspected": sphere.inspected.tolist(),
        },
    }
    return log, summary


# -- emission -------------------------------------------------------------

def _emit_csv(log: TrajectoryLog, path: Path) -> None:
    # 9-digit precision, fixed scientific layout: bit-stable and parses back
    # to within 5e-10 relative; the two count columns are written as integers
    int_cols = ("intervened", "num_points")
    row = ",".join("%d" if c in int_cols else "%.9e" for c in CSV_COLUMNS) + "\n"
    mat = log.row_matrix()
    path.write_text(",".join(CSV_COLUMNS) + "\n"
                    + row * len(mat) % tuple(mat.ravel().tolist()))


def _emit_json(log: TrajectoryLog, path: Path) -> None:
    doc = {
        "schema_version": JSON_SCHEMA_VERSION,
        "metadata": log.metadata,
        "columns": list(CSV_COLUMNS),
        "rows": log.row_matrix().tolist(),
    }
    # no cycle to look for: rows fresh from tolist(), run's metadata flat (a
    # cycle put into a log's metadata by hand raises RecursionError instead)
    path.write_text(json.dumps(doc, check_circular=False))


def _polyline(xs, ys, x0, y0, w, h, color) -> str:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xmin, xmax = xs.min(), xs.max()
    ymin, ymax = ys.min(), ys.max()
    xr = xmax - xmin or 1.0
    yr = ymax - ymin or 1.0
    px = x0 + (xs - xmin) / xr * w
    py = y0 + h - (ys - ymin) / yr * h
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1" '
            f'points="{pts}"/>')


def _emit_svg(log: TrajectoryLog, path: Path) -> None:
    """Three panels: x-y path, x-z path, and barrier values vs time."""
    W, H, pad = 1200, 400, 40
    pw = (W - 4 * pad) / 3
    ph = H - 2 * pad
    s = log.states
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
    ]
    panels = [(s[:, 0], s[:, 1], "x [m]", "y [m]"),
              (s[:, 0], s[:, 2], "x [m]", "z [m]")]
    for i, (xs, ys, xl, yl) in enumerate(panels):
        x0 = pad + i * (pw + pad)
        parts.append(f'<rect x="{x0}" y="{pad}" width="{pw:.1f}" height="{ph}" '
                     f'fill="none" stroke="black"/>')
        parts.append(_polyline(xs, ys, x0, pad, pw, ph, "#1f77b4"))
        parts.append(f'<text x="{x0 + pw / 2:.1f}" y="{H - 10}" '
                     f'text-anchor="middle" font-size="14">{xl} vs {yl}</text>')
    x0 = pad + 2 * (pw + pad)
    parts.append(f'<rect x="{x0}" y="{pad}" width="{pw:.1f}" height="{ph}" '
                 f'fill="none" stroke="black"/>')
    colors = ["#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]
    for j in range(NUM_CONSTRAINTS):
        parts.append(_polyline(log.t, log.h[:, j], x0, pad, pw, ph, colors[j]))
    parts.append(f'<text x="{x0 + pw / 2:.1f}" y="{H - 10}" '
                 f'text-anchor="middle" font-size="14">h1..h6 vs t</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts))


_EMITTERS = {"csv": _emit_csv, "json": _emit_json, "svg": _emit_svg}


def emit(log: TrajectoryLog, fmt: str, path) -> Path:
    """Write ``log`` to ``path`` as one of csv, json or svg."""
    if len(log) == 0:
        raise ValueError("cannot emit an empty trajectory log")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    emitter = _EMITTERS.get(fmt) if isinstance(fmt, str) else None
    if emitter is None:
        raise ValueError(f"unknown format {fmt!r} (expected csv, json or svg)")
    emitter(log, path)
    return path


# -- batch execution ------------------------------------------------------

def write_run(log: TrajectoryLog, summary: dict, run_dir,
              formats=("csv", "json")) -> None:
    """Write one run into the directory ``run_dir``, made if missing: its
    trajectory as ``trajectory.<fmt>`` through :func:`emit` for each of
    ``formats``, then its summary as ``summary.json``."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    for fmt in formats:
        emit(log, fmt, run_dir / f"trajectory.{fmt}")
    (run_dir / "summary.json").write_text(json.dumps(summary))


def _run_one(args):
    cfg, run_dir = args
    log, summary = run(cfg)
    write_run(log, summary, run_dir)
    brief = {k: summary[k] for k in
             ("inspected", "delta_v", "reward", "steps", "success")}
    return run_dir.name, brief


def run_batch(config_dir, out_dir, jobs: int = 1) -> dict:
    """Run every ``*.json`` config under ``config_dir``, write each run's
    CSV and JSON trajectory and its summary, and merge the summaries.

    ``jobs=1`` runs the configs one after another in this process; a larger
    positive integer runs them in that many worker processes.  Each config
    carries its own seed so streams stay isolated.  Every config is loaded,
    and ``out_dir`` made, before the first run, so a refused config or an
    ``out_dir`` that is a file flies nothing.  Returns the merged index,
    also written to ``out_dir``/index.json.
    """
    _integer(jobs, "jobs", 1)
    paths = sorted(Path(config_dir).glob("*.json"))
    if not paths:
        raise ValueError(f"no *.json configs found in {config_dir}")
    out = Path(out_dir)
    tasks = [(load_config(p), out / p.stem) for p in paths]
    out.mkdir(parents=True, exist_ok=True)
    if jobs > 1:
        with Pool(processes=jobs) as pool:
            results = pool.map(_run_one, tasks)
    else:
        results = [_run_one(t) for t in tasks]
    index = {name: brief for name, brief in results}
    (out / "index.json").write_text(json.dumps(index, indent=2))
    return index
