"""Smoke tests: each experiment script runs at a small size and exits 0, the
LHV script's local columns stay in [0, 2], the scan script takes C = 0 and rejects out-of-range inputs with exit 2,
and the README's Python API sketch runs as written."""
import os
import pathlib
import re
import subprocess
import sys

import pytest

from belllab.regions import MAX_GRID_N

ROOT = pathlib.Path(__file__).parents[1]


@pytest.mark.parametrize("script, args", [
    ("lhv_vs_quantum.py", ["--samples", "2000"]),
    ("run_agr_experiment.py", ["--pairs", "2000"]),
    ("scan_violation_regions.py", ["--grid", "16", "--out-dir", "{tmp}"]),
])
def test_script_runs(tmp_path, script, args):
    done = run_script(tmp_path, script, *(a.format(tmp=tmp_path) for a in args))
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_lhv_script_local_columns_keep_two(tmp_path):
    # Each row: C, the quantum maximum, then "S +- stderr" per local model.
    done = run_script(tmp_path, "lhv_vs_quantum.py", "--samples", "2000")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert len(rows) == 6
    for row in rows:
        assert float(row[1]) > 2.0
        assert all(0.0 <= float(s) <= 2.0 for s in row[2::3])


def run_script(tmp_path, script, *args):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(ROOT / "scripts" / script), *args]
    return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def test_scan_script_separable_point(tmp_path):
    # C = 0 used to write its CSV and then die dividing by zero in band_fraction.
    done = run_script(tmp_path, "scan_violation_regions.py", "--grid", "8", "--concurrences", "0")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1].split()[:3] == ["0.0000", "0.000000", "0.000000"]
    assert (tmp_path / "region_scans" / "xy_C0.0000_grid8.csv").exists()


@pytest.mark.parametrize("args", [
    ["--concurrences", "1.5"],
    ["--concurrences", "0.8", "-0.1"],
    ["--concurrences", "nan"],
    ["--grid", "1"],
    ["--grid", str(MAX_GRID_N + 1)],
    ["--concurrences", "0.70711", "0.707105"],
])
def test_scan_script_rejects_out_of_range(tmp_path, args):
    # These used to end in a ValueError traceback, after writing the earlier concurrences;
    # two concurrences equal to 4 decimals used to write one file, the second over the first.
    done = run_script(tmp_path, "scan_violation_regions.py", "--grid", "8", *args)
    assert done.returncode == 2
    assert "error:" in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "region_scans").exists()


def test_readme_api_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    (sketch,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    namespace = {}
    exec(compile(sketch, "README.md", "exec"), namespace)
    bl = namespace["bl"]
    assert bl.chsh_value(namespace["state"], namespace["settings"]) > 2.0
    assert namespace["est"].value <= 2.0
    assert bl.estimate_S(namespace["cfg"]).value == pytest.approx(-2.70, abs=0.01)
