"""Smoke tests: each experiment script runs at a small size and exits 0."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]


@pytest.mark.parametrize("script, args", [
    ("lhv_vs_quantum.py", ["--samples", "2000"]),
    ("run_agr_experiment.py", ["--pairs", "2000"]),
    ("scan_violation_regions.py", ["--grid", "16", "--out-dir", "{tmp}"]),
    ("bench_exact_path.py", ["--help"]),
])
def test_script_runs(tmp_path, script, args):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(ROOT / "scripts" / script), *(a.format(tmp=tmp_path) for a in args)]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
