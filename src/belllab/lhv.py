"""Local hidden-variable models and Monte Carlo correlation estimates.

A model supplies a hidden-variable sampler and two per-side response
functions; Bell locality is built into the interface, since ``response_a``
receives only the local setting and the hidden variable (never the remote
setting), and symmetrically for ``response_b``.  Responses are bounded by 1
in modulus and may be deterministic (+-1 outcomes) or device-averaged.

Every estimate draws one hidden-variable stream and evaluates all of its
orientation pairs on the same draws, as Bell's derivation of the CHSH
inequality assumes one distribution rho(lambda) for all four settings.  For
responses bounded by 1, each draw's x = AB - AB' and y = A'B' + A'B have
|x| + |y| <= 2, so S = (|sum x| + |sum y|)/n <= 2 holds exactly, not only
within statistical error: in integers for +-1 responses, and up to the
rounding of each draw's products (about 1e-16) for device-averaged ones.
The estimators return one ``chsh.Correlators`` record: the sums over n, and
the covariance (n M - s s^T) / (n^2 (n - 1)) of the means from the sums s and
moments M (0 when n = 1), so S and each standard error are rounded once.

The two built-in models themselves draw no lambda: the statistics of n draws
depend only on the counts of their +-1 outcome patterns, exactly
Multinomial(n, p) with p in closed form, so one multinomial draw costs the
same at any n.  ``AveragedLinearModel`` is read as Bell's 1971 average of
local +-1 outcomes, each +1 with probability (1 + r)/2 given lambda, which
keeps E = -(a . b)/3 and gives the standard errors of +-1 draws.  Every
other model, subclasses of the built-in ones included, is sampled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import UnitVector3, check_count, check_integer
from .chsh import CorrelationEstimate, Correlators, MeasurementSettings

# Sampled models draw in fixed-size blocks so results depend only on (seed, n).
# At 2**14 a block's lambda, sampler, response and product arrays take about
# 2 MB together, so each numpy pass over them runs in a per-core L2 cache.
_BLOCK = 1 << 14


def _sample_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points uniform on the unit sphere by Marsaglia's disc method, from the generator's state and n.

    Pairs (u, v) uniform on [-1, 1]^2 are kept, in draw order, while s = u^2 + v^2 < 1; each maps
    to (2u sqrt(1 - s), 2v sqrt(1 - s), 1 - 2s), exactly uniform on the sphere (G. Marsaglia, Ann.
    Math. Stat. 43, 645 (1972)).  A round of about 1.31 k + 64 pairs, pi/4 of them in the disc,
    almost always fills the k points still missing.
    """
    out = np.empty((3, n))
    done = 0
    while done < n:
        k = n - done
        uv = rng.uniform(-1.0, 1.0, (2, k + k // 4 + k // 16 + 64))
        uv = np.compress(uv[0] * uv[0] + uv[1] * uv[1] < 1.0, uv, axis=1)[:, :k]
        u, v = uv
        s = u * u + v * v
        m = len(s)
        np.multiply(uv, 2.0 * np.sqrt(1.0 - s), out=out[:2, done:done + m])
        np.subtract(1.0, 2.0 * s, out=out[2, done:done + m])
        done += m
    return out.T


class PreconditionError(ValueError):
    """A precondition of the requested check does not hold."""


@dataclass(frozen=True)
class Bell1964Result:
    """Both sides of the original 1964 inequality |E(a,b) - E(a,b')| <= 1 + E(b',b)."""

    lhs: float
    rhs: float
    lhs_std_error: float
    rhs_std_error: float


class BellSignModel:
    """Deterministic +-1 responses from a hidden unit vector.

    The hidden variable is uniform on the sphere (``_sample_sphere``).  Side A
    answers sign(a . lam) and side B answers -sign(b . lam), with the
    measure-zero tie a . lam = 0 (+0.0 or -0.0) resolved to +1.  The exact
    correlation is E(a, b) = -1 + 2*theta/pi at relative angle theta.  The
    estimators draw its sign-pattern counts (``_sign_pattern_law``); these
    methods remain its definition, the route of subclasses and the oracle.
    """

    name = "bell-sign"

    def sample_lambda(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return _sample_sphere(rng, n)

    def response_a(self, a: UnitVector3, lam: np.ndarray) -> np.ndarray:
        # Arithmetic on the comparison instead of np.where: the same values, several times faster.
        return (lam @ a.as_array() >= 0.0) * 2.0 - 1.0

    def response_b(self, b: UnitVector3, lam: np.ndarray) -> np.ndarray:
        return 1.0 - (lam @ b.as_array() >= 0.0) * 2.0


class AveragedLinearModel:
    """Device-averaged responses a . lam and -(b . lam), bounded by 1 in modulus.

    Exercises the non-deterministic-outcome case.  The hidden vector is
    drawn uniform on the sphere as in ``BellSignModel``, and the exact
    correlation is E(a, b) = -(a . b)/3.  The estimators draw the counts of
    its +-1 outcome patterns (``_linear_outcome_law``) instead.
    """

    name = "averaged-linear"

    def sample_lambda(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return _sample_sphere(rng, n)

    def response_a(self, a: UnitVector3, lam: np.ndarray) -> np.ndarray:
        return lam @ a.as_array()

    def response_b(self, b: UnitVector3, lam: np.ndarray) -> np.ndarray:
        return -(lam @ b.as_array())


BUILTIN_MODELS = {model.name: model for model in (BellSignModel, AveragedLinearModel)}


def _angles(v: np.ndarray) -> np.ndarray:
    """Angles between the rows of v, as atan2(|u x w|, u . w): accurate near 0 and pi, unlike acos."""
    return np.arctan2(np.linalg.norm(np.cross(v[:, None], v[None]), axis=2), v @ v.T)


def _sign_pattern_law(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of BellSignModel's sign patterns over the distinct vectors of ``pairs``.

    With sigma_i = sign(v_i . lam) for the k distinct vectors v_i, a pattern s
    in {+-1}^k has indicator prod_i (1 + s_i sigma_i)/2, so its probability is
    the Walsh expansion p(s) = 2^-k (1 + sum_{i<j} s_i s_j rho_ij +
    s_1 s_2 s_3 s_4 M4): the odd moments vanish under lam -> -lam, and
    rho_ij = 1 - 2 theta_ij/pi.  The four-fold moment M4 (k = 4 only) comes
    from a cell known to be empty.  Take a null vector c of [v_1 .. v_4], so
    sum_i c_i v_i = 0, and s*_i = sign(c_i), with +1 where c_i = 0.  Where
    every s*_i v_i . lam > 0, each term c_i v_i . lam is >= 0 and one is > 0,
    yet the terms sum to 0; so that cell is empty, 1 + W(s*) + prod(s*) M4 = 0
    with W the pair terms, and M4 = -prod(s*) (1 + W(s*)).  This holds at any
    rank, coplanar vectors included, and leaves p(s*) = p(-s*) exactly 0.
    Measure-zero ties do not matter.  Returns p, one entry per pattern (bit i
    of the index set when s_i = -1), and the integer matrix of each pattern's
    pair products -s_x s_y, one column per pair.
    """
    vectors = list(dict.fromkeys(v for pair in pairs for v in pair))
    k = len(vectors)
    v = np.array([u.as_array() for u in vectors])
    signs = 1 - 2 * (np.arange(2 ** k)[:, None] >> np.arange(k) & 1)
    rho = 1.0 - 2.0 * _angles(v) / math.pi
    walsh = 1.0 + (np.einsum("si,ij,sj->s", signs, rho, signs) - k) / 2.0
    if k == 4:
        c = np.linalg.svd(v.T)[2][-1]
        empty = int((c < 0.0) @ (1 << np.arange(4)))
        walsh -= signs.prod(axis=1) * (signs[empty].prod() * walsh[empty])
    x, y = ([vectors.index(pair[side]) for pair in pairs] for side in (0, 1))
    return np.maximum(walsh / 2 ** k, 0.0), -signs[:, x] * signs[:, y]


def _sides(pairs) -> tuple[list, list, list[tuple[int, int]]]:
    """Each side's distinct settings in first-use order, and each pair's (A, B) index into them."""
    side_a = list(dict.fromkeys(x for x, _ in pairs))
    side_b = list(dict.fromkeys(y for _, y in pairs))
    return side_a, side_b, [(side_a.index(x), side_b.index(y)) for x, y in pairs]


def _linear_outcome_law(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of AveragedLinearModel's +-1 outcome patterns over the distinct items of ``pairs``.

    Each distinct (side, setting) item i answers o_i = +-1, drawn alone given
    lam with P(+1) = (1 + r_i)/2, r_i = eps_i v_i . lam (eps = +1 on side A,
    -1 on B), so p(o) = 2^-k E[prod_i (1 + o_i r_i)].  The odd moments of the
    isotropic lam vanish, E[r_i r_j] = g_ij = eps_i eps_j v_i . v_j / 3, and
    its fourth moment is [(v1.v2)(v3.v4) + (v1.v3)(v2.v4) + (v1.v4)(v2.v3)]/15,
    so p(o) = 2^-k (1 + sum_{i<j} o_i o_j g_ij + [k = 4] o_1 o_2 o_3 o_4
    (3/5)(g_12 g_34 + g_13 g_24 + g_14 g_23)).  Each cell is > 0, as each
    factor is.  Returns p (bit i of the index set when o_i = -1, the A items
    first) and the integer matrix of each pattern's pair products o_x o_y.
    """
    side_a, side_b, index = _sides(pairs)
    k = len(side_a) + len(side_b)
    r = np.array([u.as_array() for u in side_a] + [-u.as_array() for u in side_b])
    g = r @ r.T / 3.0
    np.fill_diagonal(g, 0.0)
    signs = 1 - 2 * (np.arange(2 ** k)[:, None] >> np.arange(k) & 1)
    walsh = 1.0 + np.einsum("si,ij,sj->s", signs, g, signs) / 2.0
    if k == 4:
        walsh += signs.prod(axis=1) * (0.6 * (g[0, 1] * g[2, 3] + g[0, 2] * g[1, 3] + g[0, 3] * g[1, 2]))
    x, y = np.array(index).T
    return walsh / 2 ** k, signs[:, x] * signs[:, len(side_a) + y]


_EXACT_LAWS = {BellSignModel: _sign_pattern_law, AveragedLinearModel: _linear_outcome_law}


def _shared_stream_sums(model, pairs, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the pair products over one hidden-variable stream of n draws.

    With P_i = response_a(x_i) * response_b(y_i) per draw, returns the k sums
    of P_i and the k x k matrix of the sums of P_i * P_j.  The built-in models
    draw their pattern counts (``_EXACT_LAWS``), so both hold Python ints.
    Other models draw lambda once per block, shared by every pair, and
    evaluate each distinct setting's response once per side.
    """
    if not isinstance(seed, np.random.SeedSequence):
        check_integer("seed", seed)
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
    rng = np.random.default_rng(seed)
    law = _EXACT_LAWS.get(type(model))
    if law is not None:
        p, prod = law(pairs)
        counts, prod = rng.multinomial(n, p).astype(object), prod.astype(object)
        return counts @ prod, (prod.T * counts) @ prod
    side_a, side_b, index = _sides(pairs)
    sums = np.zeros(len(pairs))
    moments = np.zeros((len(pairs), len(pairs)))
    buf = np.empty((len(pairs), min(_BLOCK, n)))
    done = 0
    while done < n:
        m = min(_BLOCK, n - done)
        lam = model.sample_lambda(rng, m)
        resp_a = [np.asarray(model.response_a(x, lam)) for x in side_a]
        resp_b = [np.asarray(model.response_b(y, lam)) for y in side_b]
        prod = buf[:, :m]
        for row, (i, j) in zip(prod, index):
            np.multiply(resp_a[i], resp_b[j], out=row)
        sums += prod.sum(axis=1)
        moments += prod @ prod.T
        done += m
    return sums, moments


def _correlators(model, pairs, n: int, seed) -> Correlators:
    """The pairs' correlations over one shared stream, with the sample covariance (ddof 1) of their means."""
    n = check_count("sample count", n)  # a Python int, so n * n cannot wrap
    sums, moments = _shared_stream_sums(model, pairs, n, seed)
    cov = (n * moments - np.outer(sums, sums)).tolist()
    return Correlators(tuple(sums.tolist()), (n,) * len(pairs), tuple(map(tuple, cov)),
                       n * n * max(n - 1, 1), "symmetric")


def estimate_correlation(model, a: UnitVector3, b: UnitVector3, n: int, seed) -> CorrelationEstimate:
    """Monte Carlo mean of response_a * response_b over n hidden-variable draws.

    ``seed`` may be an int or a numpy SeedSequence; two runs with the same
    (seed, n) are bit-identical.  The standard error is the sample standard
    deviation over sqrt(n) (zero when n = 1).
    """
    return _correlators(model, ((a, b),), n, seed).correlations()[0]


def chsh_lhv(model, s: MeasurementSettings, n: int, seed) -> Correlators:
    """CHSH value of a local model from one hidden-variable stream shared by all four pairs.

    Each of the n draws of lambda from ``seed`` feeds all four orientation pairs, as in
    Bell's derivation, so S = |E(a,b) - E(a,b')| + |E(a',b') + E(a',b)| <= 2 holds exactly
    for responses bounded by 1.  Its standard error is the sample deviation of the per-draw
    s_x*(AB - AB') + s_y*(A'B' + A'B) over sqrt(n), with s_x, s_y the signs inside the moduli.
    """
    return _correlators(model, s.pairs(), n, seed)


def bell1964_check(
    model,
    a: UnitVector3,
    b: UnitVector3,
    b_prime: UnitVector3,
    n: int,
    seed,
) -> Bell1964Result:
    """Evaluate |E(a,b) - E(a,b')| against 1 + E(b',b) on one shared hidden-variable stream.

    The reduction assumes perfect anticorrelation at equal settings: every draw
    must give A(b')B(b') = -1, else PreconditionError.  Each draw then has
    |A(a)B(b) - A(a)B(b')| <= 1 + A(b')B(b), so lhs <= rhs holds exactly for +-1 responses.
    """
    c = _correlators(model, ((b_prime, b_prime), (a, b), (a, b_prime), (b_prime, b)), n, seed)
    sums = c.numerators
    if sums[0] != -n:
        raise PreconditionError(
            f"E(b', b') = {sums[0] / n:.6f} != -1: the 1964 reduction does not apply"
        )
    sign = -1 if sums[1] < sums[2] else 1
    lhs, lhs_std_error = c.combination((0, sign, -sign, 0))
    return Bell1964Result(
        lhs=lhs,
        rhs=(n + sums[3]) / n,
        lhs_std_error=lhs_std_error,
        rhs_std_error=c.combination((0, 0, 0, 1))[1],
    )
