"""Span tracing of belllab from outside the package.

Each public function is wrapped at the place its caller looks it up (a module
or class attribute), so the package itself is unchanged.  A wrapper records a
span (name, start, end, parent, op id) only while an op is open; outside ops,
for example while the correctness oracle runs, it passes straight through.
Spans are kept in memory and written out when the run ends.
"""
from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

ROOT_SPAN = "bench"


class Tracer:
    """Collects spans and counters for the ops of one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)  # filled in when the span closes
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self._op_id)

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as the root span of op ``op_id``."""
        self._op_id = op_id
        idx = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(idx, ROOT_SPAN, start)
            self._op_id = None

    def wrap(self, name, fn, on_result=None):
        """Wrapper of ``fn`` that records one span per call inside an op.

        ``name`` is a span name or a function of the call arguments that
        returns one; ``on_result(counts, args, result)`` updates counters after
        the span has closed.
        """

        def traced(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            idx = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # Count an error once, in the innermost layer that raised it.
                if not getattr(exc, "_perfbench_counted", False):
                    self.counts[span.split(".", 1)[0] + ".errors"] += 1
                    exc._perfbench_counted = True
                raise
            finally:
                self._close(idx, span, start)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    # ------------------------------------------------------------ install

    def patch(self, owner, attr: str, name, on_result=None) -> None:
        """Replace ``owner.attr`` by its traced wrapper until ``uninstall``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per span name: duration minus child coverage.

    Spans come from one thread, so the children of a span never overlap and
    their coverage is the sum of their durations.
    """
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start - child[i]) * 1e-9
    return dict(out)


def call_counts(spans) -> Counter:
    return Counter(span[0] for span in spans)


def install_belllab(tracer: Tracer) -> None:
    """Wrap the belllab public functions the workloads reach.

    Each function is patched where its caller looks it up: ``chsh_value``
    finds ``correlation_matrix`` and ``tensor_observable`` in ``chsh``,
    ``agr.simulate_run`` imports ``chsh.joint_probabilities`` lazily,
    ``chsh_lhv`` finds ``estimate_correlation`` in ``lhv``, the estimator
    calls the models' methods through their classes, and ``cli.cmd_scan``
    finds the region functions in ``cli``.  The workloads call through the
    module attributes, so they reach the wrappers too.
    """
    from belllab import agr, algebra, chsh, cli, lhv

    def damped_or_ideal(args):
        return "agr.simulate_run.ideal" if args[0].misalignment_sigma == 0.0 else "agr.simulate_run.damped"

    def count_pairs(counts, args, result):
        if args[0].misalignment_sigma != 0.0:
            counts["agr.pairs_emitted"] += result.n_pairs
            counts["agr.coincidences"] += result.total()

    def count_samples(counts, args, result):
        counts["lhv.samples_drawn"] += len(result)

    def count_cells(counts, args, result):
        counts["regions.cells"] += result.values.size

    def count_bytes(counts, args, result):
        counts["regions.bytes_written"] += os.path.getsize(args[1])

    tracer.patch(chsh, "tensor_observable", "algebra.tensor_observable")
    for fn in ("correlation_matrix", "correlation_closed", "joint_probabilities", "chsh_value",
               "chsh_value_symmetric", "gisin_settings", "max_violation"):
        tracer.patch(chsh, fn, f"chsh.{fn}")
    for fn in ("canonical_state", "schmidt_decompose", "concurrence"):
        tracer.patch(algebra, fn, f"algebra.{fn}")
    tracer.patch(lhv, "chsh_lhv", "lhv.chsh_lhv")
    tracer.patch(lhv, "estimate_correlation", "lhv.estimate_correlation")
    for model in (lhv.BellSignModel, lhv.AveragedLinearModel):
        tracer.patch(model, "sample_lambda", "lhv.sample_lambda", count_samples)
        tracer.patch(model, "response_a", "lhv.response")
        tracer.patch(model, "response_b", "lhv.response")
    tracer.patch(agr, "run_experiment", "agr.run_experiment")
    tracer.patch(agr, "simulate_run", damped_or_ideal, count_pairs)
    tracer.patch(agr, "estimate_E", "agr.estimate_E")
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "scan_region", "regions.scan_region", count_cells)
    tracer.patch(cli, "write_grid_csv", "regions.write_grid_csv", count_bytes)
    tracer.patch(cli, "write_grid_json", "regions.write_grid_json", count_bytes)


# Every span name install_belllab can record, in report order.
SPAN_NAMES = (
    "algebra.tensor_observable",
    "algebra.canonical_state",
    "algebra.schmidt_decompose",
    "algebra.concurrence",
    "chsh.correlation_matrix",
    "chsh.correlation_closed",
    "chsh.joint_probabilities",
    "chsh.chsh_value",
    "chsh.chsh_value_symmetric",
    "chsh.gisin_settings",
    "chsh.max_violation",
    "lhv.chsh_lhv",
    "lhv.estimate_correlation",
    "lhv.sample_lambda",
    "lhv.response",
    "agr.run_experiment",
    "agr.simulate_run.ideal",
    "agr.simulate_run.damped",
    "agr.estimate_E",
    "cli.main",
    "regions.scan_region",
    "regions.write_grid_csv",
    "regions.write_grid_json",
)
LAYERS = ("algebra", "chsh", "lhv", "agr", "regions", "cli")
COUNTERS = (
    "lhv.samples_drawn",
    "agr.pairs_emitted",
    "agr.coincidences",
    "regions.cells",
    "regions.bytes_written",
)
