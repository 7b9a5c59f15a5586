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
        u = cw.infeasible_fallback([0.9, 0.0, 0.0], (C, np.array([-0.5, -0.5])), 1.0)
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


@pytest.mark.parametrize("call", [
    lambda v: cwinspect.step(np.zeros(6), np.zeros(3), v),
    lambda v: cwinspect.dynamics.hold_maps(v),
    lambda v: cwinspect.delta_v(np.zeros(3), v),
    lambda v: cwinspect.mlp_act(cwinspect.random_policy(6, hidden=(4,)), np.zeros(6), u_max=v),
    lambda v: cwinspect.NoiseModel(position_sigma=v),
    lambda v: cwinspect.ExperimentConfig(position_scale=v),
    lambda v: cwinspect.ExperimentConfig(max_duration=v),
    lambda v: cwinspect.SafetyParams(a_max=v),
    lambda v: cwinspect.cw_stm(v, 1.0),
], ids=["step", "hold_maps", "delta_v", "mlp_act", "NoiseModel", "position_scale",
        "max_duration", "SafetyParams", "cw_stm"])
@pytest.mark.parametrize("value", [True, np.True_, "1.0", None],
                         ids=["True", "np.True_", "str", "None"])
def test_bool_number_refused(call, value):
    # each took True as 1: step flew a 1 s hold, mlp_act clamped to +-1 N;
    # a string or None raised a bare TypeError from the comparison
    with pytest.raises(ValueError, match="and finite, not"):
        call(value)


NAN_STATE = np.array([100.0, 0.0, np.nan, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("call, match", [
    *[(lambda fn=fn, a=a: fn(np.zeros(6), cwinspect.SafetyParams(), keep_in=(a, 900.0)),
       "keep-in braking rate")
      for fn in (cwinspect.safety.hold_values, cwinspect.safety.hold_gradients)
      for a in (np.nan, -1.0)],
    (lambda: cwinspect.inject_noise(NAN_STATE, cwinspect.NoiseModel(), np.random.default_rng(0)),
     "state must be finite"),
    (lambda: cwinspect.lqr_control(cwinspect.lqr_design(), NAN_STATE), "state must be finite"),
    (lambda: cwinspect.scripted_orbit_control(NAN_STATE), "state must be finite"),
    (lambda: cwinspect.update_inspected(cwinspect.generate_points(), [100.0, 0.0, 0.0], 0.0, "no"),
     "illumination_enabled must be a bool"),
    (lambda: cwinspect.sun_vector(True), "sun angle must be a finite number"),
    (lambda: cwinspect.sun_vector(np.True_), "sun angle must be a finite number"),
    (lambda: cwinspect.cw_stm(0.001, True), "t must be a finite number"),
    (lambda: cwinspect.safety.hold_values(np.array([100.0, 0, 0, 0, 0, 0]),
                                          cwinspect.SafetyParams(), keep_in=(0.05, 1.0)),
     "keep-in radius must exceed the keep-out radius"),
], ids=["hold_values.nan_braking", "hold_values.negative_braking",
        "hold_gradients.nan_braking", "hold_gradients.negative_braking",
        "inject_noise.nan_state", "lqr_control.nan_state", "scripted_orbit_control.nan_state",
        "update_inspected.string_illumination", "sun_vector.True", "sun_vector.np.True_",
        "cw_stm.bool_t", "hold_values.keep_in_inside_keep_out"])
def test_bad_input_refused(call, match):
    # each returned NaN, or took the value as a number or a truth value
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
], ids=["ExperimentConfig.rta_enabled", "ExperimentConfig.illumination",
        "ExperimentConfig.closed_loop", "EnvConfig.illumination", "update_inspected"])
@pytest.mark.parametrize("value", ["yes", 1], ids=["yes", "1"])
def test_flag_refused(call, name, value):
    # one check and one message for every bool flag
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a bool, not {value!r}")):
        call(value)


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
