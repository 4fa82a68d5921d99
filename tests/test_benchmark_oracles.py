"""The benchmark's workloads run against the package, with their own correctness oracles.

perfbench reads package attributes (SchmidtForm.sign, Correlators.s_value, the CLI's output, ...)
that no other test here may read, so a change that drops one would pass every other test and
fail only in a benchmark run.  perfbench/workloads.py is loaded from its directory as it is.
"""
import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_first_ops_pass_their_oracle(name, tmp_path):
    w = workloads.make(name, str(tmp_path))
    try:
        for i in range(2):
            op = w.op(0, i)
            assert w.check(i, op, w.run(op)) == [], (name, i)
    finally:
        getattr(w, "close", lambda: None)()


def test_monte_carlo_first_300_ops_pass_their_oracle(tmp_path):
    # Gisin and random quadruples alternate, so the exact LHV laws meet both coplanar and rank-3 sets.
    w = workloads.make("monte_carlo", str(tmp_path))
    for i in range(300):
        op = w.op(0, i)
        assert w.check(i, op, w.run(op)) == [], i
