"""Package-level properties."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import cwinspect


def test_runs_without_scipy():
    # SciPy is a test dependency only: with it unimportable the package
    # designs the LQR gain, flies open-loop experiment 2 behind the filter
    # and finds the least-violation thrust of two contradictory rows
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        import numpy as np
        import cwinspect as cw
        cw.lqr_design()
        cfg = cw.default_experiment(2)
        cfg.max_steps = 100
        log, summary = cw.run(cfg)
        assert summary["steps"] == 100 and summary["interventions"] > 0
        C = np.array([[-1 / 6, 0, 0], [1 / 6, 0, 0]])
        u = cw.infeasible_fallback([0.9, 0.0, 0.0], (C, np.array([-0.5, -0.5])))
        assert np.all(np.abs(u) <= 1.0)
        print(sys.modules["scipy"])
    """)
    src = str(Path(cwinspect.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "None"


POSITIVE, FINITE = "and finite, not", "must be a finite number, not"


@pytest.mark.parametrize("call, match", [
    (lambda v: cwinspect.step(np.zeros(6), np.zeros(3), v), POSITIVE),
    (lambda v: cwinspect.dynamics.hold_maps(v), POSITIVE),
    (lambda v: cwinspect.delta_v(np.zeros(3), v), POSITIVE),
    (lambda v: cwinspect.mlp_act(cwinspect.random_policy(6, hidden=(4,)), np.zeros(6), u_max=v),
     POSITIVE),
    (lambda v: cwinspect.NoiseModel(position_sigma=v), POSITIVE),
    (lambda v: cwinspect.ExperimentConfig(position_scale=v), POSITIVE),
    (lambda v: cwinspect.ExperimentConfig(max_duration=v), POSITIVE),
    (lambda v: cwinspect.SafetyParams(a_max=v), POSITIVE),
    (lambda v: cwinspect.cw_stm(v), FINITE),
    (lambda v: cwinspect.sun_vector(v), FINITE),
    (lambda v: cwinspect.update_inspected(cwinspect.generate_points(), [100.0, 0.0, 0.0], v, True),
     FINITE),
    (lambda v: cwinspect.build_observation(np.full(6, 50.0), v, cwinspect.generate_points(),
                                           cwinspect.env.OBS_ALL_SENSORS), FINITE),
], ids=["step", "hold_maps", "delta_v", "mlp_act", "NoiseModel", "position_scale",
        "max_duration", "SafetyParams", "cw_stm.t", "sun_vector",
        "update_inspected.sun_angle", "build_observation.sun_angle"])
@pytest.mark.parametrize("value", [True, np.True_, "1.0", None, np.array([1.0, 2.0])],
                         ids=["True", "np.True_", "str", "None", "array"])
def test_bool_number_refused(call, match, value):
    # each took True as 1: step flew a 1 s hold, mlp_act clamped to +-1 N,
    # build_observation gave a sun angle of 1; a string or None raised a
    # bare TypeError, and an array numpy's "truth value ... is ambiguous"
    # (hold_maps: "unhashable type")
    with pytest.raises(ValueError, match=match):
        call(value)


NAN_STATE = np.array([100.0, 0.0, np.nan, 0.0, 0.0, 0.0])
STATE = np.array([100.0, 0.0, 0.0, 0.0, 0.0, 0.0])
COMPLEX_STATE, BOOL_STATE = STATE + 0j, STATE.astype(bool)
COMPLEX_REQUEST, BOOL_REQUEST = np.array([1 + 1j, 0, 0]), np.ones(3, dtype=bool)


def _env_step(action):
    env = cwinspect.InspectionEnv(cwinspect.EnvConfig())
    env.reset()
    return env.step(action)


@pytest.mark.parametrize("call, match", [
    (lambda: cwinspect.inject_noise(NAN_STATE, cwinspect.NoiseModel(), np.random.default_rng(0)),
     "state must be finite"),
    (lambda: cwinspect.lqr_control(NAN_STATE), "state must be finite"),
    (lambda: cwinspect.scripted_orbit_control(NAN_STATE), "state must be finite"),
    (lambda: cwinspect.update_inspected(cwinspect.generate_points(), [100.0, 0.0, 0.0], 0.0, "no"),
     "illumination_enabled must be a bool"),
    (lambda: cwinspect.sun_vector(True), "sun angle must be a finite number"),
    (lambda: cwinspect.sun_vector(np.True_), "sun angle must be a finite number"),
    (lambda: cwinspect.cw_stm(True), "t must be a finite number"),
    # a vector of the wrong size: numpy's "cannot reshape array of size 7
    # into shape (6,)" named no argument
    (lambda: cwinspect.step(np.zeros(6), np.zeros(4), 1.0), r"control must be finite and hold 3"),
    (lambda: cwinspect.lqr_control(np.zeros(7)), r"state must be finite and hold 6"),
    (lambda: cwinspect.scripted_orbit_control(np.zeros(5)), r"state must be finite and hold 6"),
    (lambda: cwinspect.normalize_state([1.0] * 7), r"state must be finite and hold 6"),
    (lambda: cwinspect.inject_noise(np.zeros(7), cwinspect.NoiseModel(), np.random.default_rng(0)),
     r"state must be finite and hold 6"),
    (lambda: cwinspect.delta_v(np.zeros(4), 1.0), r"action must be finite and hold 3"),
    (lambda: _env_step(np.zeros(2)), r"action must be finite and hold 3"),
    (lambda: cwinspect.mlp_act(cwinspect.random_policy(6, hidden=(4,)), np.zeros(7)),
     r"observation must be finite and hold 6"),
    (lambda: cwinspect.solve_qp(np.zeros(2), (np.eye(3), np.zeros(3))),
     r"u_des must be finite and hold 3"),
    (lambda: cwinspect.nearest_uninspected_cluster(cwinspect.generate_points(), np.zeros(4)),
     r"deputy position must be finite and hold 3"),
    # a norm whose square overflows: numpy's overflow warning came first
    (lambda: cwinspect.update_inspected(cwinspect.generate_points(), [1e200, 0, 0], 0.0, False),
     "finite norm"),
    (lambda: cwinspect.nearest_uninspected_cluster(cwinspect.generate_points(), [1e200, 0, 0]),
     "finite norm"),
    # a float cast flew a complex thrust's real part behind a ComplexWarning
    # and a bool thrust as 1 N on each axis
    (lambda: cwinspect.step(STATE, COMPLEX_REQUEST, 1.0),
     "control must be finite and hold 3 real"),
    (lambda: cwinspect.step(STATE, [np.complex128(1), np.complex128(0), np.complex128(0)], 1.0),
     "control must be finite and hold 3 real"),
    (lambda: cwinspect.step(STATE, BOOL_REQUEST, 1.0), "control must be finite and hold 3 real"),
    (lambda: cwinspect.step(COMPLEX_STATE, np.zeros(3), 1.0), "states must hold real numbers"),
    (lambda: cwinspect.step(BOOL_STATE[None], np.zeros(3), 1.0), "states must hold real numbers"),
    (lambda: cwinspect.h_values(COMPLEX_STATE, cwinspect.SafetyParams()),
     "states must hold real numbers"),
    (lambda: cwinspect.h_values(BOOL_STATE, cwinspect.SafetyParams()),
     "states must hold real numbers"),
    (lambda: cwinspect.cbf_rows(COMPLEX_STATE, cwinspect.SafetyParams()),
     "states must hold real numbers"),
    (lambda: cwinspect.cbf_rows(BOOL_STATE[None], cwinspect.SafetyParams()),
     "states must hold real numbers"),
    (lambda: cwinspect.safety.hold_values(COMPLEX_STATE, cwinspect.SafetyParams()),
     "states must hold real numbers"),
    (lambda: cwinspect.safety.hold_values(BOOL_STATE, cwinspect.SafetyParams()),
     "states must hold real numbers"),
    (lambda: cwinspect.filter_control(STATE, COMPLEX_REQUEST, cwinspect.SafetyParams()),
     "u_des must hold real numbers"),
    (lambda: cwinspect.filter_control(STATE, BOOL_REQUEST, cwinspect.SafetyParams()),
     "u_des must hold real numbers"),
    (lambda: cwinspect.solve_qp(np.zeros(3), (np.eye(3) + 0j, np.zeros(3))),
     "constraint rows must hold real numbers"),
    (lambda: cwinspect.solve_qp(np.zeros(3), (np.eye(3), np.ones(3, dtype=bool))),
     "constraint rows must hold real numbers"),
], ids=["inject_noise.nan_state", "lqr_control.nan_state", "scripted_orbit_control.nan_state",
        "update_inspected.string_illumination", "sun_vector.True", "sun_vector.np.True_",
        "cw_stm.bool_t", "step.wrong_size", "lqr_control.wrong_size",
        "scripted_orbit_control.wrong_size", "normalize_state.wrong_size",
        "inject_noise.wrong_size", "delta_v.wrong_size", "InspectionEnv.step.wrong_size",
        "mlp_act.wrong_size", "solve_qp.wrong_size", "nearest_uninspected_cluster.wrong_size",
        "update_inspected.overflowing_norm", "nearest_uninspected_cluster.overflowing_norm",
        "step.complex_control", "step.complex128_list_control", "step.bool_control",
        "step.complex_state", "step.bool_states", "h_values.complex_state",
        "h_values.bool_state", "cbf_rows.complex_state", "cbf_rows.bool_states",
        "hold_values.complex_state", "hold_values.bool_state",
        "filter_control.complex_request", "filter_control.bool_request",
        "solve_qp.complex_rows", "solve_qp.bool_offsets"])
def test_bad_input_refused(call, match):
    # each returned NaN, took the value as a number or a truth value, or
    # raised an error that did not name the argument
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call, minimum", [
    (lambda v: cwinspect.EnvConfig(max_steps=v), 1),
    (lambda v: cwinspect.ExperimentConfig(max_steps=v), 1),
    (lambda v: cwinspect.ExperimentConfig(seed=v), 0),
    (cwinspect.default_experiment, 1),
    (lambda v: cwinspect.run_batch(".", ".", jobs=v), 1),
], ids=["EnvConfig.max_steps", "ExperimentConfig.max_steps", "ExperimentConfig.seed",
        "default_experiment", "run_batch.jobs"])
@pytest.mark.parametrize("value", [True, np.True_, 1.5, None],
                         ids=["True", "np.True_", "1.5", "below_minimum"])
def test_integer_refused(call, minimum, value):
    # one check and one message for every integer input
    if value is None:
        value = minimum - 1
    with pytest.raises(ValueError, match=f"must be an integer of at least {minimum}, not"):
        call(value)


@pytest.mark.parametrize("call, name", [
    (lambda v: cwinspect.ExperimentConfig(rta_enabled=v), "rta_enabled"),
    (lambda v: cwinspect.ExperimentConfig(illumination=v), "illumination"),
    (lambda v: cwinspect.ExperimentConfig(closed_loop=v), "closed_loop"),
    (lambda v: cwinspect.EnvConfig(illumination=v), "illumination"),
    (lambda v: cwinspect.update_inspected(cwinspect.generate_points(), [100.0, 0.0, 0.0], 0.0, v),
     "illumination_enabled"),
    (lambda v: cwinspect.safety.hold_values(np.zeros(6), cwinspect.SafetyParams(), guarded=v),
     "guarded"),
], ids=["ExperimentConfig.rta_enabled", "ExperimentConfig.illumination",
        "ExperimentConfig.closed_loop", "EnvConfig.illumination", "update_inspected",
        "hold_values.guarded"])
@pytest.mark.parametrize("value", ["yes", 1], ids=["yes", "1"])
def test_flag_refused(call, name, value):
    # one check and one message for every bool flag
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a bool, not {value!r}")):
        call(value)


@pytest.mark.parametrize("call, params", [
    (cwinspect.solve_qp, ["u_des", "rows"]),
    (cwinspect.infeasible_fallback, ["u_des", "rows"]),
    (cwinspect.lqr_control, ["x"]),
    (cwinspect.cw_stm, ["t"]),
    (cwinspect.MlpPolicy, ["layers", "input_dim"]),
], ids=["solve_qp", "infeasible_fallback", "lqr_control", "cw_stm", "MlpPolicy"])
def test_constant_signatures(call, params):
    # the thrust box, the LQR gain, the mean motion and the output width are
    # constants of the one design, not arguments
    assert list(inspect.signature(call).parameters) == params


def _public_callables():
    """(name, callable) for each callable in a module's __all__ and each
    public method of a class there."""
    for m in pkgutil.iter_modules(cwinspect.__path__):
        mod = importlib.import_module(f"cwinspect.{m.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if callable(obj):
                yield f"{m.name}.{name}", obj
            if inspect.isclass(obj):
                yield from ((f"{m.name}.{name}.{attr}", meth) for attr, meth in vars(obj).items()
                            if not attr.startswith("_") and callable(meth))


def test_no_callable_takes_the_pair():
    # MEAN_MOTION, MASS and U_MAX are constants; only mlp_act keeps its box
    # half-width u_max
    takes = [name for name, call in _public_callables()
             if {"u_max", "mass", "mean_motion"} & set(inspect.signature(call).parameters)]
    assert takes == ["control.mlp_act"]


def test_lqr_gain_is_built_once_and_read_only():
    K = cwinspect.control._MINUS_LQR_GAIN
    assert (-K).tobytes() == cwinspect.lqr_design().tobytes()
    with pytest.raises(ValueError, match="read-only"):
        K[0, 0] = 0.0


def test_every_exported_name_resolves():
    # each module's __all__ and each name the package imports must exist,
    # so a deleted function cannot linger as an advertised export
    modules = [importlib.import_module(f"cwinspect.{m.name}")
               for m in pkgutil.iter_modules(cwinspect.__path__)]
    for mod in modules:
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"{mod.__name__}.__all__ names {missing}"
    package_names = [n for n, v in vars(cwinspect).items()
                     if not n.startswith("_") and not inspect.ismodule(v)]
    exported = {n for mod in modules for n in getattr(mod, "__all__", ())}
    assert set(package_names) <= exported


def _loaded_names(path: Path) -> set:
    """Every name a module's code reads: plain names and attribute names,
    not its definitions, strings, comments or docstrings."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_or_a_test():
    # each name in a module's __all__ is read by package code (another
    # module, or its own beyond the definition and the __all__ entry) or by
    # a test; a re-export in __init__ alone is not a use
    package = Path(cwinspect.__file__).parent
    read = set().union(*(_loaded_names(p) for p in package.glob("*.py")),
                       *(_loaded_names(p) for p in Path(__file__).parent.glob("*.py")))
    unused = [f"{m.name}.{n}" for m in pkgutil.iter_modules(cwinspect.__path__)
              for n in getattr(importlib.import_module(f"cwinspect.{m.name}"), "__all__", ())
              if n not in read]
    assert not unused, f"public names with no caller and no test: {unused}"


def test_every_module_reads_its_imports():
    # each name a module imports at module level is read by its code, so a
    # deletion cannot leave an import behind; __init__ only re-exports
    package = Path(cwinspect.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        read = _loaded_names(path)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                unused += [f"{path.stem}.{name}" for alias in node.names
                           if (name := alias.asname or alias.name.split(".")[0]) not in read]
    assert not unused, f"imported and never read: {unused}"
