"""tools/ab_interleave.py: two trees timed in one process, both import
orders, refused when their outputs differ; on the env chain, on the filter
alone and on the cluster direction alone."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_interleave.py"


def _run(a, b, *extra, workload="env"):
    return subprocess.run([sys.executable, str(TOOL), str(a), str(b), "--workload", workload,
                           "--rounds", "2", "--steps", "20", *extra],
                          capture_output=True, text=True, timeout=300)


def _assert_both_orders(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines[1:]] == [
        ["imported", "AB"], ["imported", "BA"], ["both", "orders"]]
    assert lines[-1].endswith("of 4 rounds")


def test_a_tree_against_itself():
    _assert_both_orders(_run(ROOT, ROOT))


def test_a_filter_against_itself():
    _assert_both_orders(_run(ROOT, ROOT, workload="filter"))


def test_filters_with_different_outputs_are_refused(tmp_path):
    # a filter with another hold margin gives other thrusts on the replay
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "cwinspect", other / "src" / "cwinspect",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rta_py = other / "src" / "cwinspect" / "rta.py"
    text = rta_py.read_text()
    assert "_HOLD_MARGIN = 1e-3" in text
    rta_py.write_text(text.replace("_HOLD_MARGIN = 1e-3", "_HOLD_MARGIN = 2e-3"))
    proc = _run(ROOT, other, workload="filter")
    assert proc.returncode != 0
    assert "outputs differ" in proc.stderr + proc.stdout


def test_a_cluster_direction_against_itself():
    # each import order and both together report the whole replay, then its
    # fresh calls and its memo hits apart
    proc = _run(ROOT, ROOT, workload="cluster")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines[1:]] == [
        ["imported", "AB"], ["fresh", "A"], ["hit", "A"],
        ["imported", "BA"], ["fresh", "A"], ["hit", "A"],
        ["both", "orders"], ["fresh", "A"], ["hit", "A"]]
    assert all(line.endswith("of 4 rounds") for line in lines[-3:])


def test_cluster_directions_that_differ_are_refused(tmp_path):
    # another k-means seed gives other directions on the replayed calls
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "cwinspect", other / "src" / "cwinspect",
                    ignore=shutil.ignore_patterns("__pycache__"))
    inspection_py = other / "src" / "cwinspect" / "inspection.py"
    text = inspection_py.read_text()
    assert "KMEANS_SEED = 0" in text
    inspection_py.write_text(text.replace("KMEANS_SEED = 0", "KMEANS_SEED = 1"))
    proc = _run(ROOT, other, workload="cluster")
    assert proc.returncode != 0
    assert "outputs differ" in proc.stderr + proc.stdout


def test_trees_with_different_outputs_are_refused(tmp_path):
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "cwinspect", other / "src" / "cwinspect",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env_py = other / "src" / "cwinspect" / "env.py"
    text = env_py.read_text()
    assert "POSITION_NORM = 100.0" in text
    env_py.write_text(text.replace("POSITION_NORM = 100.0", "POSITION_NORM = 50.0"))
    proc = _run(ROOT, other)
    assert proc.returncode != 0
    assert "outputs differ" in proc.stderr + proc.stdout
