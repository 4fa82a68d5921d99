"""Golden files: every byte each CLI report writes, pinned.

Each case runs ``belllab`` in-process, in an empty working directory, and
stores its exit code, stdout, stderr and every file it wrote in
``tests/golden/<case>.json``, each text split into lines so that a diff
shows the line that moved.  The cases are the README's six commands (``scan``
at grid 16), every subcommand in each ``--format`` it accepts with and
without ``--out``, the separable end of the entanglement axis (concurrence 0,
where S meets the local bound 2), and two usage errors (exit 2).

A deliberate change to a report is made by rewriting the goldens from the
same case table and reviewing their diff; the rewrite first names the cases
whose records changed (or says that none did) and any stale golden it removes::

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from belllab.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

README = {
    "readme_chsh_gisin": ["chsh", "--c1", "0.7071068", "--c2", "0.7071068", "--gisin"],
    "readme_chsh_explicit": ["chsh", "--c1", "0.7071068", "--c2", "-0.7071068",
                             "--alpha", "0", "--alpha-prime", "90", "--beta", "45", "--beta-prime", "135"],
    "readme_scan": ["scan", "--plane", "xy", "--concurrence", "1.0", "--grid", "16", "--out", "region.csv"],
    "readme_lhv": ["lhv", "--model", "bell-sign", "--samples", "1000000", "--seed", "42",
                   "--gisin-for", "0.7071068", "0.7071068"],
    "readme_agr": ["agr", "--pairs", "10000000", "--seed", "1", "--damping", "0.955", "--out", "report.json"],
    "readme_selftest": ["selftest"],
}
# One invocation per subcommand, run in each --format it accepts, with and without --out.
FORMATS = {
    "chsh": (["chsh", "--c1", "0.9486833", "--c2", "0.3162278", "--gisin"], ("text", "json")),
    "scan": (["scan", "--plane", "xz", "--concurrence", "0.9", "--sign", "-1", "--grid", "16"],
             ("csv", "json")),
    "lhv": (["lhv", "--model", "averaged-linear", "--samples", "20000", "--seed", "3", "--radians",
             "--alpha", "0", "--alpha-prime", "1.5707963", "--beta", "0.7853982", "--beta-prime", "2.3561945"],
            ("text", "json")),
    "agr": (["agr", "--pairs", "100000", "--seed", "9", "--efficiency", "0.8", "--misalignment-sigma", "0.1"],
            ("text", "json", "csv")),
}
# Concurrence 0: Gisin's quadruple attains S = 2 exactly, and the local model stays at 2.
SEPARABLE = {
    "chsh_separable": ["chsh", "--c1", "-1", "--c2", "0", "--gisin"],
    "lhv_separable": ["lhv", "--gisin-for", "1", "0", "--samples", "1000000", "--seed", "5", "--format", "json"],
}
ERRORS = {
    "error_chsh_unnormalised": ["chsh", "--c1", "0.9", "--c2", "0.9", "--gisin"],
    "error_lhv_zero_samples": ["lhv", "--samples", "0", "--gisin-for", "0.7071068", "0.7071068"],
}

CASES = dict(README)
for command, (argv, formats) in FORMATS.items():
    for fmt in formats:
        CASES[f"{command}_{fmt}"] = [*argv, "--format", fmt]
        CASES[f"{command}_{fmt}_out"] = [*argv, "--format", fmt, "--out", f"report.{fmt}"]
CASES.update(SEPARABLE)
CASES.update(ERRORS)


def run_case(argv: list[str], workdir: pathlib.Path) -> dict:
    """Exit code, stdout, stderr and written files of one in-process run in workdir."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {
        "argv": argv,
        "exit_code": code,
        "stdout": stdout.getvalue().split("\n"),
        "stderr": stderr.getvalue().split("\n"),
        "files": {p.name: p.read_text().split("\n") for p in sorted(workdir.iterdir())},
    }


def golden_path(case: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{case}.json"


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.delenv("BELLLAB_SEED", raising=False)
    expected = json.loads(golden_path(case).read_text())
    assert run_case(CASES[case], tmp_path) == expected


def test_no_stale_goldens():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    os.environ.pop("BELLLAB_SEED", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    records = {}
    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            records[case] = run_case(argv, pathlib.Path(tmp))
    stored = {p.stem: json.loads(p.read_text()) for p in GOLDEN_DIR.glob("*.json")}
    changed = sorted(case for case, record in records.items() if stored.get(case) != record)
    stale = sorted(set(stored) - set(CASES))
    print(f"changed: {', '.join(changed)}" if changed else "no golden changed", file=sys.stderr)
    if stale:
        print(f"stale: {', '.join(stale)}", file=sys.stderr)
    for case in stale:
        golden_path(case).unlink()
    for case, record in records.items():
        golden_path(case).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(CASES)} goldens to {GOLDEN_DIR}", file=sys.stderr)
