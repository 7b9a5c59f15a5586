"""Package-level properties."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import cwinspect


def test_import_leaves_scipy_solvers_unloaded():
    # SciPy's solver submodules are imported by the functions that use them,
    # so importing the package and stepping the env do not pay for them
    code = ("import sys, cwinspect; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg') "
            "if m in sys.modules))")
    src = str(Path(cwinspect.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


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
