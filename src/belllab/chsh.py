"""Quantum spin correlations, the CHSH functional, and Gisin's construction.

The spin correlation coefficient is P(a, b) = <psi| (a.sigma) (x) (b.sigma) |psi> = a.T.b;
the canonical state c1|01> + c2|10> has T = diag(2*c1*c2, 2*c1*c2, -1), so P
reduces to the closed form 2*c1*c2*(ax*bx + ay*by) - az*bz.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    UnitVector3,
    TwoQubitState,
    check_normalized,
    correlation_tensor,
    tensor_observable,
)


@dataclass(frozen=True)
class MeasurementSettings:
    """Analyzer quadruple (a, b, a', b') entering the CHSH functional."""

    a: UnitVector3
    b: UnitVector3
    a_prime: UnitVector3
    b_prime: UnitVector3

    def pairs(self) -> tuple:
        """Orientation pairs (a,b), (a,b'), (a',b), (a',b') in CHSH order."""
        a, b, ap, bp = self.a, self.b, self.a_prime, self.b_prime
        return ((a, b), (a, bp), (ap, b), (ap, bp))


@dataclass(frozen=True)
class JointProbabilities:
    """Born probabilities of the outcome pairs (+,+), (+,-), (-,+), (-,-)."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self):
        ps = (self.p_pp, self.p_pm, self.p_mp, self.p_mm)
        if not all(0.0 <= p <= 1.0 for p in ps):  # NaN never is
            raise ValueError(f"probability outside [0, 1]: {ps}")
        if not abs(sum(ps) - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {sum(ps)}, not 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_pp, self.p_pm, self.p_mp, self.p_mm)

    def correlation(self) -> float:
        return self.p_pp + self.p_mm - self.p_pm - self.p_mp


def correlation_matrix(state: TwoQubitState, a: UnitVector3, b: UnitVector3) -> float:
    """Spin correlation coefficient <psi|(a.sigma)(x)(b.sigma)|psi>.

    The observable is Hermitian so the expectation is real; the imaginary
    part is numerical noise and is dropped.
    """
    psi = state.amplitudes
    return float(np.vdot(psi, tensor_observable(a, b) @ psi).real)


def correlation_closed(c1: float, c2: float, a: UnitVector3, b: UnitVector3) -> float:
    """Closed-form correlation 2*c1*c2*(ax*bx + ay*by) - az*bz for c1|01> + c2|10>.

    Elementwise on array components.  Region-scan cells whose exact value is 2
    are decided by this rounding: transverse products summed, then scaled.
    """
    check_normalized(c1, c2)
    return 2.0 * c1 * c2 * (a.x * b.x + a.y * b.y) - a.z * b.z


def born_probabilities(tensor, a, b) -> JointProbabilities:
    """p_ij = (1 + i a.m_a + j b.m_b + ij a.T.b)/4 for tensor = (m_a, m_b, T) and 3-vectors a, b.

    Affine in each vector, so a shortened vector gives the average over the
    orientations it is the mean of.  Every dot product is summed left to right
    in Python floats, and a.T.b forms the row a.T first, so the bits do not
    depend on the BLAS kernel or SIMD level numpy picks at run time.
    """
    (m0, m1, m2), (n0, n1, n2), (t0, t1, t2) = (x.tolist() for x in tensor)
    a0, a1, a2 = a
    b0, b1, b2 = b
    ma = a0 * m0 + a1 * m1 + a2 * m2
    mb = b0 * n0 + b1 * n1 + b2 * n2
    e = ((a0 * t0[0] + a1 * t1[0] + a2 * t2[0]) * b0 + (a0 * t0[1] + a1 * t1[1] + a2 * t2[1]) * b1
         + (a0 * t0[2] + a1 * t1[2] + a2 * t2[2]) * b2)
    # max clips float noise at the edges like np.clip (they differ only at -0.0, which none of these is).
    p0, p1, p2, p3 = (max(x, 0.0) for x in (1.0 + ma + mb + e, 1.0 + ma - mb - e,
                                            1.0 - ma + mb - e, 1.0 - ma - mb + e))
    total = p0 + p1 + p2 + p3  # 4 up to rounding, summed left to right
    return JointProbabilities(p0 / total, p1 / total, p2 / total, p3 / total)


def joint_probabilities(state: TwoQubitState, a: UnitVector3, b: UnitVector3) -> JointProbabilities:
    """Born-rule outcome probabilities with projectors (I +- n.sigma)/2 per side."""
    return born_probabilities(correlation_tensor(state), (a.x, a.y, a.z), (b.x, b.y, b.z))


def chsh_combination(p, form: str):
    """CHSH combination of four correlations (floats or arrays) in the pairs() order.

    "bell": |p0 - p1| + p2 + p3; "symmetric": |p0 - p1| + |p2 + p3|; "signed": p0 - p1 + p2 + p3.
    """
    p = iter(p)  # read in order, so a lazy iterable holds at most two arrays at once
    if form == "bell":
        return abs(next(p) - next(p)) + next(p) + next(p)
    if form == "symmetric":
        return abs(next(p) - next(p)) + abs(next(p) + next(p))
    if form == "signed":
        return next(p) - next(p) + next(p) + next(p)
    raise ValueError(f"unknown CHSH form {form!r}")


@dataclass(frozen=True)
class CorrelationEstimate:
    """Estimate of a correlation coefficient with its standard error."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if not (0.0 <= self.std_error < math.inf):
            raise ValueError(f"std_error must be finite and non-negative, got {self.std_error}")
        n = self.n_samples
        if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1):
            raise ValueError(f"n_samples must be a positive integer, got {n}")
        if not abs(self.value) <= 1.0 + 3.0 * self.std_error:
            raise ValueError(
                f"estimate {self.value} inconsistent with a bounded correlation"
            )


@dataclass(frozen=True)
class Correlators:
    """Correlations E_i = numerators[i] / denominators[i] in pairs() order, Cov(E_i, E_j) =
    covariance[i][j] / cov_denominator, and the report's CHSH form (see chsh_combination).

    Estimates keep Python-int counts, each within its denominator in modulus (sampled models give
    finite float sums instead), so S, each E and each standard error are rounded once, S on
    construction and the others on first read.  S and its error exist for a full quadruple only.
    """

    numerators: tuple
    denominators: tuple
    covariance: tuple
    cov_denominator: int
    form: str  # a chsh_combination form: "symmetric" for lhv, "signed" for agr
    # S, formed from the fields unless given.  perfbench reads S, and replaces it to test its S
    # check, under this name (ROADMAP item 1a renames it value).
    s_value: float | None = None

    def __post_init__(self):
        k, cov = len(self.numerators), self.covariance
        if not (k == len(self.denominators) == len(cov) >= 1 and all(len(row) == k for row in cov)
                and all(type(d) is int and d >= 1 for d in (*self.denominators, self.cov_denominator))
                and self.form in ("bell", "symmetric", "signed")):
            raise ValueError("Correlators needs k numerators, a k x k covariance, Python-int denominators >= 1, a known form")
        # A count sums d terms in [-1, 1], so |x| <= d; numpy ints would wrap in _terms' products.
        if not all(-d <= x <= d if type(x) is int else isinstance(x, float) and math.isfinite(x)
                   for x, d in zip(self.numerators, self.denominators)):
            raise ValueError("Correlators needs each numerator a Python int within its denominator, or a finite float")
        if self.s_value is None and k == 4:
            d, t = self._terms()
            object.__setattr__(self, "s_value", chsh_combination(t, self.form) / d)

    @cached_property
    def std_error(self) -> float | None:
        return self.combination(self.signs(self.form))[1] if len(self.numerators) == 4 else None

    @cached_property
    def _estimates(self) -> tuple[CorrelationEstimate, ...]:
        rows = enumerate(zip(self.numerators, self.denominators, self.covariance))
        return tuple(CorrelationEstimate(x / k, math.sqrt(max(0.0, row[i] / self.cov_denominator)), k)
                     for i, (x, k, row) in rows)

    def _terms(self) -> tuple[int, list]:
        d = math.lcm(*self.denominators)  # the common denominator, and each numerator over it
        return d, [x * (d // k) for x, k in zip(self.numerators, self.denominators)]

    def signs(self, form: str) -> tuple[int, int, int, int]:
        """Sign row of a CHSH form: each modulus takes the sign of its exact argument."""
        _, t = self._terms()
        s_x, s_y = (-1 if v < 0 else 1 for v in (t[0] - t[1], t[2] + t[3]))
        return {"bell": (s_x, -s_x, 1, 1), "symmetric": (s_x, -s_x, s_y, s_y), "signed": (1, -1, 1, 1)}[form]

    def combination(self, w) -> tuple[float, float]:
        """w . E and its standard error sqrt(w^T Cov w), each rounded once from integer counts."""
        d, t = self._terms()
        var = sum(wi * sum(map(operator.mul, w, row)) for wi, row in zip(w, self.covariance) if wi)
        return sum(map(operator.mul, w, t)) / d, math.sqrt(max(0.0, var / self.cov_denominator))

    @property
    def value(self) -> float | None:
        return self.s_value

    def correlations(self) -> tuple[CorrelationEstimate, ...]:
        """Each E_i with its standard error and n_samples = denominators[i]."""
        return self._estimates


def chsh_value(state: TwoQubitState, s: MeasurementSettings) -> float:
    """CHSH combination |P(a,b) - P(a,b')| + P(a',b) + P(a',b')."""
    return chsh_combination([correlation_matrix(state, a, b) for a, b in s.pairs()], "bell")


def chsh_value_symmetric(state: TwoQubitState, s: MeasurementSettings) -> float:
    """Symmetric CHSH combination |P(a,b) - P(a,b')| + |P(a',b') + P(a',b)|."""
    return chsh_combination([correlation_matrix(state, a, b) for a, b in s.pairs()], "symmetric")


def gisin_settings(c1: float, c2: float) -> MeasurementSettings:
    """Analyzer quadruple maximizing the CHSH value for c1|01> + c2|10>.

    All four vectors lie in the xz-plane: a = z, a' = (+-1, 0, 0) with the
    sign of c1*c2, and b, b' chosen so cos(beta) = -cos(beta') =
    (1 + 4(c1*c2)^2)^(-1/2) with both sines positive (beta' in (pi/2, pi)).
    At c1*c2 = 0 this gives a = b = z, a' = (copysign(1, c1*c2), 0, 0) and
    b' = -z, which attain S = 2 = max_violation(c1, c2), the local bound.
    """
    check_normalized(c1, c2)
    prod = c1 * c2
    denom = math.sqrt(1.0 + 4.0 * prod * prod)
    cos_b = 1.0 / denom
    sin_b = 2.0 * abs(prod) / denom
    a = UnitVector3(0.0, 0.0, 1.0)
    a_prime = UnitVector3(math.copysign(1.0, prod), 0.0, 0.0)
    b = UnitVector3(sin_b, 0.0, cos_b)
    b_prime = UnitVector3(sin_b, 0.0, -cos_b)
    return MeasurementSettings(a=a, b=b, a_prime=a_prime, b_prime=b_prime)


def max_violation(c1: float, c2: float) -> float:
    """Largest CHSH value 2*(1 + 4*(c1*c2)^2)^(1/2) attained at gisin_settings."""
    check_normalized(c1, c2)
    return 2.0 * math.sqrt(1.0 + 4.0 * (c1 * c2) ** 2)
