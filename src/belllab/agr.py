"""Stochastic two-channel-polarizer coincidence experiment.

Each emitted pair yields an outcome pair (+,+), (+,-), (-,+), (-,-) from the
Born probabilities at the analyzer orientations; each side then records its
outcome with probability ``efficiency`` and only pairs recorded on both sides
enter the coincidence tallies.  The experimental correlation estimator is

    E = (R++ + R-- - R+- - R-+) / (R++ + R-- + R+- + R-+)

and S = E(a,b) - E(a,b') + E(a',b) + E(a',b') combines the four runs.

Misalignment is a pointing error per pair: each side's effective orientation
is the nominal one rotated by an angle drawn from N(0, sigma) about a
uniformly random transverse axis, independently per side and per pair.  The
Born probabilities are affine in each side's orientation and the mean
orientation is exp(-sigma^2/2) times the nominal one, so every pair's outcome
is an independent draw from the probabilities at the shortened orientations.
The run is therefore sampled exactly with one multinomial draw over those
mean probabilities, at a cost that does not grow with the number of pairs.
Every correlation is damped by exactly exp(-sigma^2), which is how a lab-like
S below the ideal value is produced (uniform detection inefficiency alone
leaves E unbiased under fair sampling; it only widens the error bars).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import TwoQubitState, UnitVector3, correlation_tensor
from .chsh import JointProbabilities, MeasurementSettings, born_probabilities, chsh_combination
from .lhv import _MAX_COUNT, CorrelationEstimate


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
        if any(c < 0 for c in counts):
            raise ValueError(f"negative count in {counts}")
        if sum(counts) > self.n_pairs:
            raise ValueError("more coincidences than emitted pairs")

    def total(self) -> int:
        return self.r_pp + self.r_pm + self.r_mp + self.r_mm

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.r_pp, self.r_pm, self.r_mp, self.r_mm)


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
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
        if not (1 <= self.n_pairs <= _MAX_COUNT):
            raise ValueError("n_pairs must be in [1, 2**63 - 1]")
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError("efficiency must be in (0, 1]")
        if not (math.isfinite(self.misalignment_sigma) and self.misalignment_sigma >= 0.0):
            raise ValueError("misalignment_sigma must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class SEstimate:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') with quadrature-combined error."""

    s_value: float
    std_error: float
    e_values: tuple[float, float, float, float]


@dataclass(frozen=True)
class ExperimentReport:
    """Counts, per-pair correlation estimates, and the combined S for one run."""

    config: ExperimentConfig
    counts: tuple[CoincidenceCounts, ...]
    correlations: tuple[CorrelationEstimate, ...]
    s: SEstimate


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
    k = math.exp(-0.5 * cfg.misalignment_sigma ** 2)
    return born_probabilities(correlation_tensor(cfg.state), k * a.as_array(), k * b.as_array())


def simulate_run(cfg: ExperimentConfig, a: UnitVector3, b: UnitVector3, stream: int = 0) -> CoincidenceCounts:
    """Emit cfg.n_pairs pairs at orientations (a, b) and tally coincidences.

    Outcomes are one multinomial draw over the mean probabilities, then
    binomial thinning with the both-sides recording probability.  ``stream``
    separates the random streams of runs sharing one config (the four
    orientation pairs of estimate_S use streams 0..3); counts are
    bit-identical for identical (config, orientations, stream).
    """
    rng = np.random.default_rng([cfg.seed, stream])
    p = np.array(mean_probabilities(cfg, a, b).as_tuple())
    recorded = rng.binomial(rng.multinomial(cfg.n_pairs, p), cfg.efficiency * cfg.efficiency)
    return CoincidenceCounts(*(int(c) for c in recorded), n_pairs=cfg.n_pairs)


def estimate_probabilities(c: CoincidenceCounts) -> JointProbabilities:
    """Outcome probabilities P_ij = R_ij / (R++ + R-- + R+- + R-+)."""
    total = c.total()
    if total == 0:
        raise InsufficientDataError("all coincidence counts are zero")
    return JointProbabilities(
        p_pp=c.r_pp / total, p_pm=c.r_pm / total, p_mp=c.r_mp / total, p_mm=c.r_mm / total
    )


def estimate_E(c: CoincidenceCounts) -> CorrelationEstimate:
    """Correlation (R++ + R-- - R+- - R-+) / total with multinomial delta-method error."""
    total = c.total()
    if total == 0:
        raise InsufficientDataError("all coincidence counts are zero")
    value = (c.r_pp + c.r_mm - c.r_pm - c.r_mp) / total
    se = math.sqrt(max(0.0, 1.0 - value * value) / total)
    return CorrelationEstimate(value=value, std_error=se, n_samples=total)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Simulate the four orientation pairs and assemble counts, E's, and S."""
    pairs = cfg.settings.pairs()
    counts = tuple(simulate_run(cfg, a, b, stream=i) for i, (a, b) in enumerate(pairs))
    estimates = tuple(estimate_E(c) for c in counts)
    e = [est.value for est in estimates]
    s_value = chsh_combination(e, "signed")
    se = math.sqrt(sum(est.std_error ** 2 for est in estimates))
    return ExperimentReport(
        config=cfg,
        counts=counts,
        correlations=estimates,
        s=SEstimate(s_value=s_value, std_error=se, e_values=tuple(e)),
    )


def estimate_S(cfg: ExperimentConfig) -> SEstimate:
    """S estimate for the configured analyzer quadruple."""
    return run_experiment(cfg).s
