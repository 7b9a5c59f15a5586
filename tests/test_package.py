"""Package-level properties."""

import os
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
