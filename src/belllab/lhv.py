"""Local hidden-variable models and Monte Carlo correlation estimates.

A model supplies a hidden-variable sampler and two per-side response
functions; Bell locality is built into the interface, since ``response_a``
receives only the local setting and the hidden variable (never the remote
setting), and symmetrically for ``response_b``.  Responses are bounded by 1
in modulus and may be deterministic (+-1 outcomes) or device-averaged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import UnitVector3
from .chsh import MeasurementSettings, chsh_combination

# Samples are drawn in fixed-size blocks so results depend only on (seed, n).
_BLOCK = 1 << 20


def _sample_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points uniform on the unit sphere: z uniform, then azimuth uniform."""
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


class PreconditionError(ValueError):
    """A statistical precondition of the requested check does not hold."""


@dataclass(frozen=True)
class CorrelationEstimate:
    """Monte Carlo estimate of a correlation coefficient."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("std_error must be non-negative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if abs(self.value) > 1.0 + 3.0 * self.std_error:
            raise ValueError(
                f"estimate {self.value} inconsistent with a bounded correlation"
            )


@dataclass(frozen=True)
class ChshEstimate:
    """CHSH combination |E(a,b) - E(a,b')| + |E(a',b') + E(a',b)| with its error."""

    value: float
    std_error: float
    e_ab: CorrelationEstimate
    e_abp: CorrelationEstimate
    e_apb: CorrelationEstimate
    e_apbp: CorrelationEstimate

    def correlations(self) -> tuple[CorrelationEstimate, ...]:
        return (self.e_ab, self.e_abp, self.e_apb, self.e_apbp)


@dataclass(frozen=True)
class Bell1964Result:
    """Both sides of the original 1964 inequality |E(a,b) - E(a,b')| <= 1 + E(b',b)."""

    lhs: float
    rhs: float
    lhs_std_error: float
    rhs_std_error: float


class BellSignModel:
    """Deterministic +-1 responses from a hidden unit vector.

    The hidden variable is uniform on the sphere (z uniform in [-1, 1],
    azimuth uniform in [0, 2*pi), drawn in that order); side A answers
    sign(a . lam) and side B answers -sign(b . lam), with the measure-zero
    tie a . lam = 0 resolved to +1.  The exact correlation is
    E(a, b) = -1 + 2*theta/pi at relative angle theta.
    """

    name = "bell-sign"

    def sample_lambda(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return _sample_sphere(rng, n)

    def response_a(self, a: UnitVector3, lam: np.ndarray) -> np.ndarray:
        return np.where(lam @ a.as_array() >= 0.0, 1.0, -1.0)

    def response_b(self, b: UnitVector3, lam: np.ndarray) -> np.ndarray:
        return -np.where(lam @ b.as_array() >= 0.0, 1.0, -1.0)


class AveragedLinearModel:
    """Device-averaged responses a . lam and -(b . lam), bounded by 1 in modulus.

    Exercises the non-deterministic-outcome case; the exact correlation is
    E(a, b) = -(a . b)/3 for a hidden vector uniform on the sphere.
    """

    name = "averaged-linear"

    def sample_lambda(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return _sample_sphere(rng, n)

    def response_a(self, a: UnitVector3, lam: np.ndarray) -> np.ndarray:
        return lam @ a.as_array()

    def response_b(self, b: UnitVector3, lam: np.ndarray) -> np.ndarray:
        return -(lam @ b.as_array())


BUILTIN_MODELS = {
    BellSignModel.name: BellSignModel,
    AveragedLinearModel.name: AveragedLinearModel,
}


def estimate_correlation(model, a: UnitVector3, b: UnitVector3, n: int, seed) -> CorrelationEstimate:
    """Monte Carlo mean of response_a * response_b over n hidden-variable draws.

    ``seed`` may be an int or a numpy SeedSequence; two runs with the same
    (seed, n) are bit-identical.  The standard error is the sample standard
    deviation over sqrt(n) (zero when n = 1).
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        m = min(_BLOCK, n - done)
        lam = model.sample_lambda(rng, m)
        prod = np.asarray(model.response_a(a, lam)) * np.asarray(model.response_b(b, lam))
        total += float(np.sum(prod))
        total_sq += float(np.sum(prod * prod))
        done += m
    mean = total / n
    if n > 1:
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        se = math.sqrt(var / n)
    else:
        se = 0.0
    return CorrelationEstimate(value=mean, std_error=se, n_samples=n)


def _pair_streams(seed, k: int) -> list[np.random.SeedSequence]:
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return base.spawn(k)


def chsh_lhv(model, s: MeasurementSettings, n: int, seed) -> ChshEstimate:
    """CHSH value from four correlation estimates with per-pair derived streams.

    Each orientation pair draws its own hidden-variable stream spawned
    deterministically from ``seed``; errors combine in quadrature.
    """
    streams = _pair_streams(seed, 4)
    est = [estimate_correlation(model, a, b, n, st) for (a, b), st in zip(s.pairs(), streams)]
    value = chsh_combination([e.value for e in est], "symmetric")
    se = math.sqrt(sum(e.std_error ** 2 for e in est))
    return ChshEstimate(value, se, *est)


def bell1964_check(
    model,
    a: UnitVector3,
    b: UnitVector3,
    b_prime: UnitVector3,
    n: int,
    seed,
    anticorrelation_tol: float = 1e-6,
) -> Bell1964Result:
    """Evaluate |E(a,b) - E(a,b')| against 1 + E(b',b).

    The reduction assumes perfect anticorrelation at equal settings, so the
    model must give E(b', b') = -1; this is estimated first and a
    PreconditionError is raised when it fails beyond statistical tolerance.
    """
    streams = _pair_streams(seed, 4)
    anti = estimate_correlation(model, b_prime, b_prime, n, streams[0])
    if abs(anti.value + 1.0) > anticorrelation_tol + 5.0 * anti.std_error:
        raise PreconditionError(
            f"E(b', b') = {anti.value:.6f} != -1: the 1964 reduction does not apply"
        )
    e_ab = estimate_correlation(model, a, b, n, streams[1])
    e_abp = estimate_correlation(model, a, b_prime, n, streams[2])
    e_bpb = estimate_correlation(model, b_prime, b, n, streams[3])
    lhs = abs(e_ab.value - e_abp.value)
    rhs = 1.0 + e_bpb.value
    return Bell1964Result(
        lhs=lhs,
        rhs=rhs,
        lhs_std_error=math.hypot(e_ab.std_error, e_abp.std_error),
        rhs_std_error=e_bpb.std_error,
    )
