"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import tracing
import worker
import workloads
from belllab import agr, chsh, cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_self_time_is_span_minus_child_coverage():
    spans = [
        ("bench", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("b", 20, 30, 1, 0),
        ("a", 50, 90, 0, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"bench": 30e-9, "a": 60e-9, "b": 10e-9})
    assert sum(selfs.values()) == pytest.approx(100e-9)


def test_traced_op_accounts_for_its_time_and_uninstalls():
    original = chsh.correlation_matrix
    tracer = tracing.Tracer()
    tracing.install_belllab(tracer)
    w = workloads.QuantumSweep()
    try:
        w.check(1, w.op(0, 1), w.run(w.op(0, 1)))
        assert tracer.spans == []  # outside an op the wrappers record nothing
        tracer.run_op(0, w.run, w.op(0, 1))
    finally:
        tracer.uninstall()
    assert chsh.correlation_matrix is original
    (root,) = [s for s in tracer.spans if s[0] == tracing.ROOT_SPAN]
    assert sum(tracing.self_times(tracer.spans).values()) == pytest.approx((root[2] - root[1]) * 1e-9)
    calls = tracing.call_counts(tracer.spans)
    assert set(calls) <= {*tracing.SPAN_NAMES, tracing.ROOT_SPAN}
    assert calls["chsh.joint_probabilities"] == 4
    # Four pairs each for chsh_value and chsh_value_symmetric, plus the closed-vs-matrix pair.
    assert calls["chsh.correlation_matrix"] == calls["algebra.tensor_observable"] == 9


def test_errors_count_once_in_the_raising_layer():
    tracer = tracing.Tracer()
    tracing.install_belllab(tracer)
    try:
        with pytest.raises(ValueError):
            tracer.run_op(0, chsh.gisin_settings, 0.6, 0.6)
    finally:
        tracer.uninstall()
    assert dict(tracer.counts) == {"chsh.errors": 1}


def test_quantum_sweep_passes_and_a_wrong_value_fails(monkeypatch):
    w = workloads.QuantumSweep()
    assert not worker.measure(w, seed=0, seconds=0.2).failures
    real = chsh.chsh_value
    monkeypatch.setattr(chsh, "chsh_value", lambda state, s: real(state, s) + 1e-6)
    run = worker.measure(w, seed=0, seconds=0.05)
    assert len(run.failures) == len(run.latencies) >= 2


def test_monte_carlo_passes_and_a_wrong_value_fails(monkeypatch):
    w = workloads.MonteCarlo(lhv_samples=10 ** 4, ideal_pairs=10 ** 5, damped_pairs=10 ** 4)
    assert not worker.measure(w, seed=0, seconds=0).failures
    real = agr.run_experiment

    def shifted(cfg):
        report = real(cfg)
        return dataclasses.replace(report, s=dataclasses.replace(report.s, s_value=report.s.s_value + 0.5))

    monkeypatch.setattr(agr, "run_experiment", shifted)
    run = worker.measure(w, seed=0, seconds=0)
    assert len(run.failures) == len(run.latencies) == 2


def test_region_export_passes_and_a_wrong_fraction_fails(monkeypatch, tmp_path):
    w = workloads.RegionExport(str(tmp_path), grid=64)
    for i in range(6):
        op = w.op(5, i)
        assert w.check(i, op, w.run(op)) == []
    real = cli.scan_region

    def inflated(*args):
        grid = real(*args)
        return dataclasses.replace(grid, violating_fraction=grid.violating_fraction + 0.1)

    monkeypatch.setattr(cli, "scan_region", inflated)
    for i in range(2):
        op = w.op(5, i)
        assert w.check(i, op, w.run(op))
    w.close()
    assert os.listdir(tmp_path) == []


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in workloads.NAMES:
        w = workloads.make(name, str(tmp_path))
        assert worker.inputs_digest(w, 1) == worker.inputs_digest(w, 1) != worker.inputs_digest(w, 2)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(tmp_path, "--workload", "quantum_sweep", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_metric_of_benchmark_json(trace, kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    done = _run(ROOT, "--workload", "quantum_sweep", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[kind]}
