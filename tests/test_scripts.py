"""Smoke tests: each experiment script runs at a small size and exits 0, and the
README's Python API sketch runs as written."""
import os
import pathlib
import re
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


def test_readme_api_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    (sketch,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    namespace = {}
    exec(compile(sketch, "README.md", "exec"), namespace)
    bl = namespace["bl"]
    assert bl.chsh_value(namespace["state"], namespace["settings"]) > 2.0
    assert namespace["est"].value <= 2.0
    assert bl.estimate_S(namespace["cfg"]).s_value == pytest.approx(-2.70, abs=0.01)
