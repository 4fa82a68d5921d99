"""Run one workload in this process and print its result as one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``run.py`` starts this in a fresh process per workload, so that peak memory
belongs to the workload alone.  With ``--trace 0`` it measures the end-to-end
metrics with tracing off.  With ``--trace 1`` it runs the op sequence twice
for half the time each, untraced and then traced, and reports per-layer
metrics from the traced half and the tracing overhead from the pair.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import belllab
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DIGEST_OPS = 256


class Run:
    """Outcome of one closed-loop measurement: a latency per op and each op's
    rate on each path.  Ops i and i + period have inputs of the same shape
    (op kind, plane, efficiency), so ``i % period`` is the op's stratum."""

    def __init__(self, period: int):
        self.period = period
        self.latencies: list[float | None] = []  # seconds in op order; None for a failed op
        self.rates: dict[tuple[str, int], list[float]] = {}  # (path, stratum) -> units/s per op
        self.failures: list[tuple[int, list[str]]] = []

    def ok(self, start: int = 0, step: int = 1) -> list[float]:
        return [t for t in self.latencies[start::step] if t is not None]


def measure(workload, seed: int, seconds: float, tracer=None) -> Run:
    """Closed loop over ops 0, 1, 2, ... until ``seconds`` of wall time pass.

    At least two ops run, so both op kinds are measured.  Only the op itself
    is timed; the oracle runs after the clock stops.
    """
    run = Run(workload.period)
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < seconds:
        op = workload.op(seed, i)
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(i, workload.run, op) if tracer else workload.run(op)
            latency = time.perf_counter() - t0
            problems = workload.check(i, op, result)
        except Exception as exc:  # a failed op is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            run.latencies.append(None)
            run.failures.append((i, problems))
        else:
            run.latencies.append(latency)
            for path, units, secs in workload.paths_of(i, op, result, latency):
                run.rates.setdefault((path, i % run.period), []).append(units / secs)
        i += 1
    return run


def inputs_digest(workload, seed: int) -> str:
    """SHA-256 of the first DIGEST_OPS generated ops: equal digests, equal inputs."""
    ops = [workload.op(seed, i) for i in range(DIGEST_OPS)]
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def stratified_median(groups) -> float:
    """Mean over strata of each stratum's median.

    The machine's speed drifts by tens of percent over seconds, so a median
    per stratum keeps a fast or slow stretch from moving the result, and the
    mean over strata gives each input shape equal weight however many ops of
    each the run happened to complete.
    """
    groups = [g for g in groups if g]
    return statistics.fmean(statistics.median(g) for g in groups) if groups else 0.0


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of one untraced run."""
    out = {
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_p50_ms": (1e3 * stratified_median(run.ok(k, run.period) for k in range(run.period)), "ms"),
    }
    for path in "ab":
        out[f"path_{path}_per_s"] = (stratified_median(r for (p, _), r in run.rates.items() if p == path), "1/s")
    return out


def p99_ms(run: Run) -> tuple[float, int]:
    lat = run.ok()
    if len(lat) < 2:
        return (1e3 * lat[0] if lat else 0.0), len(lat)
    return 1e3 * statistics.quantiles(lat, n=100, method="inclusive")[98], len(lat)


def per_layer(tracer: tracing.Tracer, traced: Run, untraced: Run) -> dict[str, tuple[float, str]]:
    """Per-op self times, calls and counts of the traced half, plus diagnostics."""
    n = len(traced.latencies)
    selfs = tracing.self_times(tracer.spans)
    calls = tracing.call_counts(tracer.spans)
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.self_s"] = (selfs.get(name, 0.0) / n, "s/op")
        out[f"{name}.calls"] = (calls[name] / n, "count/op")
    out["bench.self_s"] = (selfs.get(tracing.ROOT_SPAN, 0.0) / n, "s/op")
    for name in tracing.COUNTERS:
        out[name] = (tracer.counts[name] / n, "B/op" if name.startswith("regions.bytes") else "count/op")
    pairs = tracer.counts["agr.pairs_emitted"]
    out["agr.coincidence_ratio"] = (tracer.counts["agr.coincidences"] / pairs if pairs else 0.0, "ratio")
    for layer in tracing.LAYERS:
        out[f"{layer}.errors"] = (float(tracer.counts[f"{layer}.errors"]), "count")
    root = [end - start for name, start, end, _, _ in tracer.spans if name == tracing.ROOT_SPAN]
    out["trace.op_s"] = (sum(root) * 1e-9 / n, "s")
    # Same op indices on both sides, so the comparison holds the op mix fixed.
    both = [(t, u) for t, u in zip(traced.latencies, untraced.latencies) if t is not None and u is not None]
    t_plain = sum(u for _, u in both)
    out["trace.overhead_frac"] = (sum(t for t, _ in both) / t_plain - 1.0 if t_plain else 0.0, "ratio")
    out["op_p99_ms"] = (p99_ms(untraced)[0], "ms")
    return out


def environment(seed: int, digest: str) -> dict:
    commit = "unknown"  # the checkout need not be a git repository
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30,
                                  env={**os.environ, "GIT_DIR": os.path.join(ROOT, ".git")})
        except (OSError, subprocess.SubprocessError):
            done = None
        if done is not None and done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "inputs_sha256": digest,
        "inputs_digest_ops": DIGEST_OPS,
    }


def write_spans(path: str, spans) -> None:
    with open(path, "w") as fh:
        fh.write("name,start_ns,end_ns,parent,op\n")
        for span in spans:
            fh.write(",".join(map(str, span)) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(belllab.__file__).startswith(src + os.sep):
        print(f"belllab was imported from {belllab.__file__}, not from {src}", file=sys.stderr)
        return 2
    scratch = os.path.join(OUT_DIR, "scratch")
    os.makedirs(scratch, exist_ok=True)
    workload = workloads.make(args.workload, scratch)
    try:
        digest = inputs_digest(workload, args.seed)
        workload.warm_up()
        if args.trace:
            untraced = measure(workload, args.seed, args.seconds / 2)
            tracer = tracing.Tracer()
            tracing.install_belllab(tracer)
            try:
                traced = measure(workload, args.seed, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            runs = [untraced, traced]
            metrics = per_layer(tracer, traced, untraced)
            write_spans(os.path.join(OUT_DIR, f"{args.workload}.spans.csv"), tracer.spans)
        else:
            untraced = measure(workload, args.seed, args.seconds)
            runs = [untraced]
            metrics = end_to_end(untraced)
    finally:
        if hasattr(workload, "close"):
            workload.close()
        os.rmdir(scratch)

    failures = [f for run in runs for f in run.failures]
    p99, p99_n = p99_ms(untraced)
    result = {
        "correct": not failures,
        "attempted": sum(len(run.latencies) for run in runs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": environment(args.seed, digest),
        "p99": {"value_ms": p99, "samples": p99_n},
        "ops_per_s": p99_n / sum(untraced.ok()) if p99_n else 0.0,
        "failures": [f"op {i}: {'; '.join(problems)}" for i, problems in failures[:20]],
    }
    record = {**result, "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "latencies": [run.latencies for run in runs]}
    with open(os.path.join(OUT_DIR, f"{args.workload}.trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
