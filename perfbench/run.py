"""belllab benchmark: run one workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload quantum_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from anywhere; it benchmarks the belllab sources in ``src/`` next to
this directory.  Each workload runs in a fresh single-threaded process
(``worker.py``).  ``--trace 0`` reports the end-to-end metrics, including the
set-up time measured over several fresh interpreters; ``--trace 1`` reports
the per-layer metrics.  Human-readable lines come first; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  See
NOTES.md for the workloads and the meaning of every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("quantum_sweep", "monte_carlo", "region_export")
SETUP_RUNS = 7
WORKER_TIMEOUT_S = 170

# Each workload's name for its completed ops, and what each generic gated
# metric is on it, for the report.
OPS = {"quantum_sweep": "quadruples", "monte_carlo": "comparisons", "region_export": "scans"}
ALIASES = {
    "quantum_sweep": (("quadruple_p50_us", "op_p50_ms", 1e3, "us"),
                      ("canonical_quadruples_per_s", "path_a_per_s", 1.0, "1/s"),
                      ("general_quadruples_per_s", "path_b_per_s", 1.0, "1/s")),
    "monte_carlo": (("comparison_p50_s", "op_p50_ms", 1e-3, "s"),
                    ("lhv_samples_per_s", "path_a_per_s", 1.0, "1/s"),
                    ("damped_pairs_per_s", "path_b_per_s", 1.0, "1/s")),
    "region_export": (("scan_p50_s", "op_p50_ms", 1e-3, "s"),
                      ("csv_cells_per_s", "path_a_per_s", 1.0, "1/s"),
                      ("json_cells_per_s", "path_b_per_s", 1.0, "1/s")),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import belllab, belllab.cli`` returns.

    CLOCK_MONOTONIC is shared by all processes, so the child's reading after
    the import minus ours before the start covers the whole start-up.  One
    untimed import first fills the bytecode cache.
    """
    probe = "import time, belllab, belllab.cli; print(time.monotonic_ns())"
    subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, check=True,
                   capture_output=True, timeout=60)
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic_ns()
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        samples.append((int(done.stdout.split()[-1]) - t0) * 1e-9)
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    env = child_env()
    setup = setup_seconds(env) if not trace else None
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker for {name} exited with code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        result["setup_samples"] = setup
    return result


def report(name: str, seconds: float, trace: int, r: dict) -> None:
    env = r["env"]
    m = r["metrics"]
    print(f"== {name}: seed={env['seed']} seconds={seconds:g} trace={trace} "
          f"attempted={r['attempted']} failed={r['failed']}")
    print(f"   env: commit={env['commit']} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} threads={env['threads']}")
    print(f"   inputs: sha256 of the first {env['inputs_digest_ops']} ops = {env['inputs_sha256']}")
    print("   closed loop, one client, one process: nothing queues, so no wait times are recorded")
    for failure in r["failures"]:
        print(f"   FAILED {failure}")
    if trace:
        for key, v in m.items():
            print(f"   {key} = {v['value']:.6g} {v['unit']}")
        layers = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
        print(f"   self times incl. bench.self_s sum to {layers:.6g} s/op; "
              f"traced op time {m['trace.op_s']['value']:.6g} s/op")
        return
    for alias, key, scale, unit in ALIASES[name]:
        print(f"   {alias} = {m[key]['value'] * scale:.6g} {unit}   (gated as {key})")
    print(f"   {OPS[name]}_per_s = {r['ops_per_s']:.6g} 1/s, completed over time spent (diagnostic)")
    print(f"   op_p99 = {r['p99']['value_ms']:.6g} ms over {r['p99']['samples']} ops (diagnostic)")
    print(f"   peak_rss_mb = {m['peak_rss_mb']['value']:.6g} MB")
    print(f"   setup_s = {m['setup_s']['value']:.6g} s (median of "
          + ", ".join(f"{s:.4f}" for s in r["setup_samples"]) + ")")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "belllab", "__init__.py")):
        print(f"error: no belllab sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(name, args.seconds, args.trace, results[name])

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
