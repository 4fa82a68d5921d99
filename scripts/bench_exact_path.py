#!/usr/bin/env python3
"""Per-call times of the exact CHSH path and the bell-sign LHV estimators,
baseline tree against this tree.

    python scripts/bench_exact_path.py --baseline <git-rev> [--rounds 7] [--write BENCH_exact_path.json]

The baseline revision is exported with ``git archive`` into a temporary
directory; "change" is the ``src/`` next to this script, as it is on disk.
Each round times both trees, each in a fresh single-threaded interpreter, and
alternates which one runs first.  Within an interpreter every function is
called on the same 64 seeded inputs, once untimed and then in 5 timed passes
(of 8 sweeps over the inputs, or 1 for the LHV estimators at 1e5 samples),
and its time per call is the best pass; the table holds the median of those
over the rounds, in microseconds.
``--write`` stores the table under "per_call_us" in the given JSON file,
keeping its other keys, and creates the file if it does not exist.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FUNCTIONS = ("pauli_dot", "tensor_observable", "correlation_matrix", "chsh_value",
             "joint_probabilities", "schmidt_decompose", "chsh_lhv_bell_sign", "bell1964_check")

# Run in each child; prints {function: microseconds per call}.
CHILD = r"""
import json, math, time
import numpy as np
from belllab import algebra, chsh, lhv

rng = np.random.default_rng(2024)
def unit():
    v = rng.normal(size=3)
    return algebra.UnitVector3(*(float(c) for c in v / np.linalg.norm(v)))
cases = []
for i in range(64):
    if i % 2:
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = algebra.TwoQubitState(amps / np.linalg.norm(amps))
    else:
        t = rng.uniform(0.05, math.pi / 2 - 0.05)
        state = algebra.canonical_state(math.cos(t), math.sin(t))
    cases.append((state, chsh.MeasurementSettings(unit(), unit(), unit(), unit())))
calls = {
    "pauli_dot": lambda st, s: algebra.pauli_dot(s.a),
    "tensor_observable": lambda st, s: algebra.tensor_observable(s.a, s.b),
    "correlation_matrix": lambda st, s: chsh.correlation_matrix(st, s.a, s.b),
    "chsh_value": lambda st, s: chsh.chsh_value(st, s),
    "joint_probabilities": lambda st, s: chsh.joint_probabilities(st, s.a, s.b),
    "schmidt_decompose": lambda st, s: algebra.schmidt_decompose(st),
    "chsh_lhv_bell_sign": lambda st, s: lhv.chsh_lhv(lhv.BellSignModel(), s, 10 ** 5, 1),
    "bell1964_check": lambda st, s: lhv.bell1964_check(lhv.BellSignModel(), s.a, s.b, s.b_prime, 10 ** 5, 1),
}
sweeps = {"chsh_lhv_bell_sign": 1, "bell1964_check": 1}
for fn in calls.values():  # warm-up pass, untimed
    for st, s in cases:
        fn(st, s)
out = {}
for name, fn in calls.items():
    best = math.inf
    k = sweeps.get(name, 8)
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(k):
            for st, s in cases:
                fn(st, s)
        best = min(best, (time.perf_counter() - t0) / (k * len(cases)))
    out[name] = best * 1e6
print(json.dumps(out))
"""


def time_tree(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=600)
    return json.loads(done.stdout)


def export_tree(rev: str, dest: str) -> str:
    """Extract ``src/`` of git revision ``rev`` under ``dest``; returns its path."""
    archive = os.path.join(dest, "tree.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True, help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--write", metavar="JSON", help="store the table under per_call_us in this file")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    samples = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export_tree(args.baseline, tmp), "change": os.path.join(ROOT, "src")}
        for r in range(args.rounds):
            for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                samples[side].append(time_tree(trees[side]))

    table = {}
    print(f"{'function':22s} {'parent us':>10s} {'change us':>10s} {'speedup':>8s}")
    for name in FUNCTIONS:
        parent = statistics.median(s[name] for s in samples["parent"])
        change = statistics.median(s[name] for s in samples["change"])
        table[name] = {"parent": round(parent, 2), "change": round(change, 2),
                       "speedup": round(parent / change, 2)}
        print(f"{name:22s} {parent:10.2f} {change:10.2f} {parent / change:7.2f}x")

    if args.write:
        payload = {}
        if os.path.exists(args.write):
            with open(args.write) as fh:
                payload = json.load(fh)
        payload["per_call_us"] = {
            "how": (f"scripts/bench_exact_path.py --baseline {args.baseline} --rounds {args.rounds}: "
                    "best of 5 timed passes over 64 seeded inputs (8 sweeps per pass, 1 for the LHV "
                    "estimators at 1e5 samples) after one untimed pass, per fresh interpreter; median "
                    "over rounds, parent and change alternating"),
            "functions": table,
        }
        with open(args.write, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
