"""The benchmark workloads: inputs, one op, and the op's correctness oracle.

Each workload is a closed loop with one client: op i + 1 starts only after op
i has returned, so nothing queues and no wait time exists to record.  Op i
draws its inputs from (seed, i) alone, so every commit sees the same op
sequence.  An op builds belllab's inputs from plain numbers, calls belllab
through its module attributes (where the tracer's wrappers sit), and returns
what the oracle needs.  The oracle runs outside the timed interval and
returns a list of problems; an op with any problem is a failed op.

Ops of kind i % 2 alternate, ops i and i + period have inputs of the same
shape, and each workload times two code paths, a and b; see NOTES.md for
what they are on each workload.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

from belllab import agr, algebra, chsh, cli, lhv

TSIRELSON = 2.0 ** 1.5
HERE = os.path.dirname(os.path.abspath(__file__))

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _spin(v) -> np.ndarray:
    return sum(c * s for c, s in zip(v, _PAULI))


def exact_correlation(amps, a, b) -> float:
    """Oracle <psi|(a.sigma)(x)(b.sigma)|psi>, computed as tr(M^+ A M B^T).

    M is the 2x2 amplitude matrix; this route shares no code with belllab's
    Kronecker-product evaluation.
    """
    m = np.asarray(amps, dtype=complex).reshape(2, 2)
    return float(np.trace(m.conj().T @ _spin(a) @ m @ _spin(b).T).real)


def exact_concurrence(amps) -> float:
    a = np.asarray(amps, dtype=complex)
    return float(2.0 * abs(a[0] * a[3] - a[1] * a[2]))


def _pairs(quad):
    """The four CHSH orientation pairs of a quadruple (a, b, a', b')."""
    a, b, ap, bp = quad
    return ((a, b), (a, bp), (ap, b), (ap, bp))


def _vectors(s: chsh.MeasurementSettings):
    return [(v.x, v.y, v.z) for v in (s.a, s.b, s.a_prime, s.b_prime)]


def _unit(rng) -> list[float]:
    v = rng.normal(size=3)
    return [float(x) for x in v / np.linalg.norm(v)]


def _settings(quad) -> chsh.MeasurementSettings:
    return chsh.MeasurementSettings(*(algebra.UnitVector3(*v) for v in quad))


def _signed_coefficients(rng) -> list[float]:
    """(c1, c2) = (+-cos t, +-sin t), bounded away from the separable limit."""
    t = rng.uniform(0.05, math.pi / 2 - 0.05)
    s1, s2 = rng.choice([-1.0, 1.0], size=2)
    return [float(s1 * math.cos(t)), float(s2 * math.sin(t))]


class Problems(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


class QuantumSweep:
    """Exact CHSH quantities for one (state, random 3-D quadruple) per op.

    Even ops use the canonical state c1|01> + c2|10> with signed random
    coefficients, odd ops a general complex random state, so a
    canonical-only shortcut cannot pass for a gain on every state.
    """

    name = "quantum_sweep"
    period = 2

    def op(self, seed: int, i: int) -> dict:
        rng = np.random.default_rng([seed, 1, i])
        quad = [_unit(rng) for _ in range(4)]
        if i % 2 == 0:
            return {"coefficients": _signed_coefficients(rng), "quadruple": quad}
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        return {"amplitudes": [[float(z.real), float(z.imag)] for z in amps], "quadruple": quad}

    def warm_up(self) -> None:
        for i in range(2):
            self.run(self.op(0, i))

    def run(self, op: dict):
        if "coefficients" in op:
            c1, c2 = op["coefficients"]
            state = algebra.canonical_state(c1, c2)
        else:
            state = algebra.TwoQubitState(np.array([complex(re, im) for re, im in op["amplitudes"]]))
        s = _settings(op["quadruple"])
        value = chsh.chsh_value(state, s)
        symmetric = chsh.chsh_value_symmetric(state, s)
        probs = [chsh.joint_probabilities(state, x, y) for x, y in _pairs((s.a, s.b, s.a_prime, s.b_prime))]
        form = algebra.schmidt_decompose(state)
        conc = algebra.concurrence(form)
        if "coefficients" in op:
            canonical = state
        else:
            c1, c2 = form.c1, form.sign * form.c2
            canonical = algebra.canonical_state(c1, c2)
        gisin = chsh.gisin_settings(c1, c2)
        bound = chsh.max_violation(c1, c2)
        closed = chsh.correlation_closed(c1, c2, s.a, s.b)
        matrix = chsh.correlation_matrix(canonical, s.a, s.b)
        return SimpleNamespace(
            value=value, symmetric=symmetric, probs=probs, concurrence=conc, c1=c1, c2=c2,
            gisin=_vectors(gisin), max_violation=bound, closed=closed, matrix=matrix,
        )

    def paths_of(self, i: int, op: dict, result, latency: float):
        return [("ab"[i % 2], 1, latency)]

    def check(self, i: int, op: dict, r) -> list[str]:
        p = Problems()
        if "coefficients" in op:
            amps = [0.0, *op["coefficients"], 0.0]
        else:
            amps = [complex(re, im) for re, im in op["amplitudes"]]
        e = [exact_correlation(amps, x, y) for x, y in _pairs(op["quadruple"])]
        conc = exact_concurrence(amps)
        ceiling = 2.0 * math.sqrt(1.0 + conc * conc)  # max CHSH of a pure state
        p.expect(abs(r.value - (abs(e[0] - e[1]) + e[2] + e[3])) <= 1e-12, f"chsh_value {r.value!r}")
        p.expect(abs(r.symmetric - (abs(e[0] - e[1]) + abs(e[3] + e[2]))) <= 1e-12,
                 f"chsh_value_symmetric {r.symmetric!r}")
        for v in (r.value, r.symmetric):
            p.expect(v <= TSIRELSON + 1e-6, f"CHSH value {v!r} above 2*sqrt(2)")
            p.expect(v <= ceiling + 1e-9, f"CHSH value {v!r} above the state's maximum {ceiling!r}")
        for jp, ej in zip(r.probs, e):
            probs = jp.as_tuple()
            p.expect(abs(sum(probs) - 1.0) <= 1e-12 and min(probs) >= 0.0, f"Born probabilities {probs}")
            p.expect(abs(jp.correlation() - ej) <= 1e-12, f"Born correlation {jp.correlation()!r} != {ej!r}")
        p.expect(abs(r.concurrence - conc) <= 1e-12, f"concurrence {r.concurrence!r} != {conc!r}")
        p.expect(abs(r.c1 ** 2 + r.c2 ** 2 - 1.0) <= 1e-12 and abs(2.0 * abs(r.c1 * r.c2) - conc) <= 1e-12,
                 f"Schmidt coefficients {(r.c1, r.c2)} do not match concurrence {conc!r}")
        canonical = [0.0, r.c1, r.c2, 0.0]
        g = [exact_correlation(canonical, x, y) for x, y in _pairs(r.gisin)]
        gisin_value = abs(g[0] - g[1]) + g[2] + g[3]
        p.expect(abs(gisin_value - r.max_violation) <= 1e-9,
                 f"Gisin value {gisin_value!r} != max_violation {r.max_violation!r}")
        p.expect(abs(r.max_violation - ceiling) <= 1e-9, f"max_violation {r.max_violation!r} != {ceiling!r}")
        p.expect(abs(r.closed - r.matrix) <= 1e-12, f"closed {r.closed!r} != matrix {r.matrix!r}")
        a, b = op["quadruple"][:2]
        exact = exact_correlation(canonical, a, b)
        p.expect(abs(r.matrix - exact) <= 1e-12, f"correlation_matrix {r.matrix!r} != {exact!r}")
        return p


class MonteCarlo:
    """One quadruple compared three ways per op: LHV, ideal and damped experiment.

    Even ops use gisin_settings for the op's random state and detector
    efficiency 1.0 in the damped run; odd ops a random 3-D quadruple and
    efficiency 0.8.
    """

    name = "monte_carlo"
    period = 2
    damping = 0.955

    def __init__(self, lhv_samples: int = 10 ** 6, ideal_pairs: int = 10 ** 7, damped_pairs: int = 5 * 10 ** 5):
        self.lhv_samples = lhv_samples
        self.ideal_pairs = ideal_pairs
        self.damped_pairs = damped_pairs

    def op(self, seed: int, i: int) -> dict:
        rng = np.random.default_rng([seed, 2, i])
        op = {"coefficients": _signed_coefficients(rng)}
        if i % 2:
            op["quadruple"] = [_unit(rng) for _ in range(4)]
        op["efficiency"] = 0.8 if i % 2 else 1.0
        op["seeds"] = [int(x) for x in rng.integers(0, 2 ** 31, size=4)]
        return op

    def warm_up(self) -> None:
        small = MonteCarlo(10 ** 3, 10 ** 3, 10 ** 3)
        for i in range(2):
            small.run(small.op(0, i))

    def run(self, op: dict):
        c1, c2 = op["coefficients"]
        state = algebra.canonical_state(c1, c2)
        s = _settings(op["quadruple"]) if "quadruple" in op else chsh.gisin_settings(c1, c2)
        seeds = op["seeds"]
        t0 = time.perf_counter()
        local = [
            lhv.chsh_lhv(model(), s, self.lhv_samples, seed)
            for model, seed in zip((lhv.BellSignModel, lhv.AveragedLinearModel), seeds)
        ]
        t1 = time.perf_counter()
        ideal = agr.run_experiment(agr.ExperimentConfig(
            state=state, settings=s, n_pairs=self.ideal_pairs, seed=seeds[2]))
        t2 = time.perf_counter()
        damped = agr.run_experiment(agr.ExperimentConfig(
            state=state, settings=s, n_pairs=self.damped_pairs, efficiency=op["efficiency"],
            misalignment_sigma=agr.misalignment_for_damping(self.damping), seed=seeds[3]))
        t3 = time.perf_counter()
        return SimpleNamespace(settings=_vectors(s), local=local, ideal=ideal, damped=damped,
                               lhv_s=t1 - t0, damped_s=t3 - t2)

    def paths_of(self, i: int, op: dict, r, latency: float):
        samples = sum(e.n_samples for est in r.local for e in est.correlations())
        pairs = sum(c.n_pairs for c in r.damped.counts)
        return [("a", samples, r.lhv_s), ("b", pairs, r.damped_s)]

    def check(self, i: int, op: dict, r) -> list[str]:
        p = Problems()
        c1, c2 = op["coefficients"]
        e = [exact_correlation([0.0, c1, c2, 0.0], x, y) for x, y in _pairs(r.settings)]
        s_exact = e[0] - e[1] + e[2] + e[3]
        for est in r.local:
            p.expect(est.value <= 2.0 + 5.0 * est.std_error, f"LHV S {est.value!r} +- {est.std_error!r} above 2")
            p.expect(all(c.n_samples == self.lhv_samples for c in est.correlations()), "LHV sample count")
        for name, report, target in (("ideal", r.ideal, s_exact), ("damped", r.damped, self.damping * s_exact)):
            s = report.s
            p.expect(abs(s.s_value - target) <= 5.0 * s.std_error,
                     f"{name} S {s.s_value!r} +- {s.std_error!r}, expected {target!r}")
        for name, report, n, eff in (("ideal", r.ideal, self.ideal_pairs, 1.0),
                                     ("damped", r.damped, self.damped_pairs, op["efficiency"])):
            for c in report.counts:
                p.expect(c.n_pairs == n and c.total() <= n, f"{name} counts {c}")
                p.expect(eff < 1.0 or c.total() == n, f"{name} run lost pairs at efficiency 1: {c}")
        return p


PLANES = ("xy", "xz", "yz")
CONCURRENCES = (1.0, 0.9, 0.8, 8.0 / 11.0, 0.6)


class RegionExport:
    """One in-process ``belllab scan`` export per op.

    The format alternates CSV/JSON and the plane cycles xy, xz, yz; the three
    ops of a plane cycle share one (concurrence, sign) drawn from the seed, so
    the xz and yz fractions of a cycle must agree.  Each format overwrites
    one file under ``scratch_dir``.
    """

    name = "region_export"
    period = 6

    def __init__(self, scratch_dir: str, grid: int = 512):
        self.scratch_dir = scratch_dir
        self.grid = grid
        self._xz_fraction: dict[int, float] = {}

    def op(self, seed: int, i: int) -> dict:
        cycle = i // 3
        rng = np.random.default_rng([seed, 3, cycle])
        return {
            "plane": PLANES[i % 3],
            "format": ("csv", "json")[i % 2],
            "concurrence": CONCURRENCES[int(rng.integers(len(CONCURRENCES)))],
            "sign": int(rng.choice([-1, 1])),
            "cycle": cycle,
        }

    def warm_up(self) -> None:
        small = RegionExport(self.scratch_dir, grid=16)
        for i in range(2):
            small.run(small.op(0, i))

    def path(self, fmt: str) -> str:
        return os.path.join(self.scratch_dir, f"scan.{fmt}")

    def run(self, op: dict):
        out = io.StringIO()
        argv = ["scan", "--plane", op["plane"], "--concurrence", repr(op["concurrence"]),
                "--sign", str(op["sign"]), "--grid", str(self.grid), "--format", op["format"],
                "--out", self.path(op["format"])]
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return SimpleNamespace(code=code, stdout=out.getvalue())

    def paths_of(self, i: int, op: dict, result, latency: float):
        return [("ab"[i % 2], self.grid * self.grid, latency)]

    def check(self, i: int, op: dict, r) -> list[str]:
        p = Problems()
        if r.code != 0:
            return [f"exit code {r.code}"]
        n = self.grid
        printed = re.search(r"violating_fraction=(\S+)", r.stdout)
        p.expect(printed is not None, f"no violating_fraction in {r.stdout!r}")
        # Parsing a large export in this process would raise the peak memory
        # being measured, so a separate process reads the file.
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "filecheck.py"), self.path(op["format"]), op["format"]],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            return [*p, f"filecheck failed: {done.stderr.strip()[-300:]}"]
        f = json.loads(done.stdout)
        meta = f["metadata"]
        p.expect(not f["problems"], "; ".join(f["problems"]))
        p.expect(meta.get("plane") == op["plane"] and int(meta.get("grid_n", -1)) == n,
                 f"metadata {meta} does not match plane {op['plane']} grid {n}")
        p.expect(f["rows"] == n and f["cells"] == n * n, f"{f['rows']} rows / {f['cells']} cells for grid {n}")
        fraction = float(meta.get("violating_fraction", "nan"))
        p.expect(abs(f["violated"] - fraction * n * n) <= 0.5,
                 f"{f['violated']} violating cells against fraction {fraction!r}")
        if printed is not None:
            p.expect(abs(float(printed.group(1)) - fraction) <= 1e-8, "printed and exported fractions differ")
        conc = op["concurrence"]
        if op["plane"] == "xy":
            x = 1.0 / (conc * math.sqrt(2.0))
            if x >= 1.0:
                p.expect(fraction == 0.0, f"xy fraction {fraction!r} at concurrence {conc} should be 0")
            else:
                band = 2.0 * math.acos(x) / (2.0 * math.pi)
                p.expect(abs(fraction - band) <= 2.0 / n, f"xy fraction {fraction!r} against band {band!r}")
        elif op["plane"] == "xz":
            self._xz_fraction[op["cycle"]] = fraction
        elif op["cycle"] in self._xz_fraction:
            xz = self._xz_fraction.pop(op["cycle"])
            p.expect(abs(fraction - xz) <= 0.5 / (n * n), f"yz fraction {fraction!r} != xz fraction {xz!r}")
        return p

    def close(self) -> None:
        for fmt in ("csv", "json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.path(fmt))


def make(name: str, scratch_dir: str):
    if name == QuantumSweep.name:
        return QuantumSweep()
    if name == MonteCarlo.name:
        return MonteCarlo()
    if name == RegionExport.name:
        return RegionExport(scratch_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (QuantumSweep.name, MonteCarlo.name, RegionExport.name)
