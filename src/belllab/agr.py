"""Stochastic two-channel-polarizer coincidence experiment.

Each emitted pair yields an outcome pair (+,+), (+,-), (-,+), (-,-) from the
Born probabilities at the analyzer orientations; each side then records its
outcome with probability ``efficiency`` and only pairs recorded on both sides
enter the coincidence tallies.  A pair therefore lands in one of five cells:
not recorded, with probability 1 - efficiency^2, or coincidence cell ij, with
probability efficiency^2 * p_ij.  The experimental correlation estimator is

    E = (R++ + R-- - R+- - R-+) / (R++ + R-- + R+- + R-+)

and S = E(a,b) - E(a,b') + E(a',b) + E(a',b') combines the four runs.  The
report keeps the counts and one ``chsh.Correlators`` record of the four E's as integer
fractions with the diagonal covariance (1 - E^2)/total, so S and its error are rounded once.

Misalignment is a pointing error per pair: each side's effective orientation
is the nominal one rotated by an angle drawn from N(0, sigma) about a
uniformly random transverse axis, independently per side and per pair.  The
Born probabilities are affine in each side's orientation and the mean
orientation is exp(-sigma^2/2) times the nominal one, so every pair's outcome
is an independent draw from the probabilities at the shortened orientations.
The run is therefore sampled exactly with one multinomial draw over the five
cells, at a cost that does not grow with the number of pairs.
Every correlation is damped by exactly exp(-sigma^2), which is how a lab-like
S below the ideal value is produced (uniform detection inefficiency alone
leaves E unbiased under fair sampling; it only widens the error bars).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import TwoQubitState, UnitVector3, check_integer, correlation_tensor
from .chsh import CorrelationEstimate, Correlators, JointProbabilities, MeasurementSettings, born_probabilities
from .lhv import _MAX_COUNT


class InsufficientDataError(ValueError):
    """No coincidences were recorded; the estimator is undefined."""


@dataclass(frozen=True)
class CoincidenceCounts:
    """Coincidence tallies for one orientation pair."""

    r_pp: int
    r_pm: int
    r_mp: int
    r_mm: int
    n_pairs: int

    def __post_init__(self):
        counts = (self.r_pp, self.r_pm, self.r_mp, self.r_mm)
        for name, value in vars(self).items():
            check_integer(name, value)
        if any(c < 0 for c in counts):
            raise ValueError(f"negative count in {counts}")
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be at least 1, got {self.n_pairs}")
        if sum(counts) > self.n_pairs:
            raise ValueError("more coincidences than emitted pairs")

    def total(self) -> int:
        return self.r_pp + self.r_pm + self.r_mp + self.r_mm


@dataclass(frozen=True)
class ExperimentConfig:
    """Source state, analyzer quadruple, and apparatus knobs for one experiment.

    ``n_pairs`` is the number of emitted pairs per orientation pair;
    ``efficiency`` is the per-side recording probability; ``misalignment_sigma``
    is the pointing-error width in radians (correlations damp by
    exp(-sigma^2) on average).
    """

    state: TwoQubitState
    settings: MeasurementSettings
    n_pairs: int
    efficiency: float = 1.0
    misalignment_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_pairs", "seed"):
            check_integer(name, getattr(self, name))
        for name, value in (("efficiency", self.efficiency), ("misalignment_sigma", self.misalignment_sigma)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, not {type(value).__name__}")
        if not (1 <= self.n_pairs <= _MAX_COUNT):
            raise ValueError("n_pairs must be in [1, 2**63 - 1]")
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError("efficiency must be in (0, 1]")
        if not (math.isfinite(self.misalignment_sigma) and self.misalignment_sigma >= 0.0):
            raise ValueError("misalignment_sigma must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class ExperimentReport:
    """Counts of the four orientation pairs and their correlations, combined as the signed S."""

    counts: tuple[CoincidenceCounts, ...]
    s: Correlators


def misalignment_for_damping(damping: float) -> float:
    """Pointing-error width sigma with mean correlation damping exp(-sigma^2) = damping."""
    if not (0.0 < damping <= 1.0):
        raise ValueError("damping must be in (0, 1]")
    return abs(math.sqrt(-math.log(damping)))


def mean_probabilities(cfg: ExperimentConfig, a: UnitVector3, b: UnitVector3) -> JointProbabilities:
    """Outcome probabilities of one pair at (a, b), averaged over the pointing error.

    These are the Born probabilities at the shortened orientations k*a, k*b
    with k = exp(-sigma^2/2).
    """
    # exp already underflows to 0.0 for sigma above about 38.6, so the cap moves no
    # value; it keeps sigma ** 2 from overflowing (k = 0 is the uniform limit).
    k = math.exp(-0.5 * min(cfg.misalignment_sigma, 40.0) ** 2)
    return born_probabilities(correlation_tensor(cfg.state), k * a.as_array(), k * b.as_array())


def simulate_run(cfg: ExperimentConfig, a: UnitVector3, b: UnitVector3, stream: int = 0) -> CoincidenceCounts:
    """Emit cfg.n_pairs pairs at orientations (a, b) and tally coincidences.

    One multinomial draw over the five cells [not recorded, ++, +-, -+, --]
    with probabilities [1 - eff^2, eff^2 * p_ij] at the mean probabilities
    p_ij.  The unrecorded cell comes first: at efficiency 1 its probability
    is exactly 0, numpy draws nothing for it, and the coincidence counts are
    those of the four-cell draw.  ``stream`` separates the random streams of
    runs sharing one config (the four orientation pairs of estimate_S use
    streams 0..3); counts are bit-identical for identical (config,
    orientations, stream).
    """
    rng = np.random.default_rng([cfg.seed, stream])
    both = cfg.efficiency * cfg.efficiency
    p = [1.0 - both, *(both * x for x in mean_probabilities(cfg, a, b).as_tuple())]
    _, *recorded = rng.multinomial(cfg.n_pairs, p)
    return CoincidenceCounts(*(int(c) for c in recorded), n_pairs=cfg.n_pairs)


def _correlators(counts) -> Correlators:
    """Each run's E = num / total, independent, with variance (1 - E^2) / total = (total^2 - num^2) / total^3."""
    totals = [c.total() for c in counts]
    if 0 in totals:
        raise InsufficientDataError("all coincidence counts are zero")
    nums = [c.r_pp + c.r_mm - c.r_pm - c.r_mp for c in counts]
    d = math.lcm(*totals)
    var = [(t * t - x * x) * (d // t) ** 3 for x, t in zip(nums, totals)]
    cov = tuple((0,) * i + (v,) + (0,) * (len(var) - i - 1) for i, v in enumerate(var))
    return Correlators(tuple(nums), tuple(totals), cov, d ** 3, "signed")


def estimate_E(c: CoincidenceCounts) -> CorrelationEstimate:
    """Correlation (R++ + R-- - R+- - R-+) / total with multinomial delta-method error."""
    return _correlators((c,)).correlations()[0]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Simulate the four orientation pairs and assemble their counts and correlations."""
    pairs = cfg.settings.pairs()
    counts = tuple(simulate_run(cfg, a, b, stream=i) for i, (a, b) in enumerate(pairs))
    return ExperimentReport(counts=counts, s=_correlators(counts))


def estimate_S(cfg: ExperimentConfig) -> Correlators:
    """The four correlations and the signed S for the configured analyzer quadruple."""
    return run_experiment(cfg).s
