"""Shared random generators, oracles, reference samplers and reference writers for the test suite."""
import csv
import itertools
import json
import math
from typing import NamedTuple

import numpy as np

from belllab import (
    IDENTITY2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    AveragedLinearModel,
    BellSignModel,
    CoincidenceCounts,
    Correlators,
    JointProbabilities,
    MeasurementSettings,
    Plane,
    SchmidtForm,
    TwoQubitState,
    UnitVector3,
    chsh_combination,
    correlation_closed,
    correlation_tensor,
    pauli_dot,
)
from belllab.agr import mean_probabilities
from belllab.algebra import ENTANGLEMENT_TOL, _first_nonzero_phase
from belllab.regions import VIOLATION_THRESHOLD, _Vector


def random_unit_vector(rng: np.random.Generator) -> UnitVector3:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return UnitVector3(*v)


def random_settings(rng: np.random.Generator) -> MeasurementSettings:
    return MeasurementSettings(
        a=random_unit_vector(rng),
        b=random_unit_vector(rng),
        a_prime=random_unit_vector(rng),
        b_prime=random_unit_vector(rng),
    )


def random_state(rng: np.random.Generator) -> TwoQubitState:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    return TwoQubitState(amps)


def edge_unit_vectors() -> list[UnitVector3]:
    """The 72 unit vectors with components in {+-0.0, +-1, +-0.6, +-0.8}: axis-aligned,
    antipodal pairs, and every sign of zero."""
    vals = (0.0, -0.0, 1.0, -1.0, 0.6, -0.6, 0.8, -0.8)
    return [UnitVector3(*v) for v in itertools.product(vals, repeat=3)
            if abs(v[0] * v[0] + v[1] * v[1] + v[2] * v[2] - 1.0) <= 1e-12]


def random_coefficients(rng: np.random.Generator, signed: bool = True) -> tuple[float, float]:
    """Normalized (c1, c2) bounded away from the separable limit."""
    t = rng.uniform(0.05, np.pi / 2 - 0.05)
    c1, c2 = np.cos(t), np.sin(t)
    if signed and rng.random() < 0.5:
        c2 = -c2
    return float(c1), float(c2)


def random_unitary2(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def projector(n: UnitVector3) -> np.ndarray:
    """Rank-1 projector (I + n.sigma) / 2 onto the +1 eigenstate of n.sigma."""
    return 0.5 * (IDENTITY2 + pauli_dot(n))


class ReferenceSchmidt(NamedTuple):
    """A Schmidt form with its local bases: single-qubit unitaries whose k-th columns are the local
    Schmidt vectors, each phase-fixed to a real positive first nonzero component.  A genuinely
    complex relative phase is folded into ``basis_b``, where ``form.sign`` is +1."""

    form: SchmidtForm
    basis_a: np.ndarray
    basis_b: np.ndarray


def reconstruct(ref: ReferenceSchmidt) -> TwoQubitState:
    """State c1 a0 (x) b0 + sign c2 a1 (x) b1 rebuilt from the reference's bases (global phase fixed arbitrarily)."""
    form, a, b = ref
    m = form.c1 * np.outer(a[:, 0], b[:, 0]) + form.sign * form.c2 * np.outer(a[:, 1], b[:, 1])
    return TwoQubitState(m.reshape(4))


def kron_probabilities(state: TwoQubitState, a: UnitVector3, b: UnitVector3) -> JointProbabilities:
    """Born probabilities from the 4x4 projector products (I +- a.sigma)/2 (x) (I +- b.sigma)/2.

    Shares no code with the correlation-tensor formula of chsh.born_probabilities,
    so it serves as that formula's oracle.
    """
    psi = state.amplitudes
    vals = []
    for pa in (projector(a), projector(UnitVector3(-a.x, -a.y, -a.z))):
        for pb in (projector(b), projector(UnitVector3(-b.x, -b.y, -b.z))):
            p = float(np.vdot(psi, np.kron(pa, pb) @ psi).real)
            vals.append(min(1.0, max(0.0, p)))  # clip float noise at the edges
    return JointProbabilities(*vals)


# ------------------------------------------------ generic-numpy exact path
#
# pauli_dot, tensor_observable, born_probabilities and schmidt_decompose as
# they were written before they dropped numpy's generic wrappers (np.kron,
# np.clip, per-column phase loops) and, for schmidt_decompose, the local bases.
# The rewrites do the same floating-point operations, so these are their
# bit-identity oracles, signed zeros included; the reference Schmidt bases
# also show that the sign convention rebuilds each state.


def same_bits(got, want) -> bool:
    """True when two float or complex arrays (or scalars) have identical bit patterns."""
    g, w = np.atleast_1d(got), np.atleast_1d(want)
    if g.dtype != w.dtype or g.shape != w.shape:
        return False
    return np.array_equal(np.ascontiguousarray(g).view(np.uint64), np.ascontiguousarray(w).view(np.uint64))


def reference_pauli_dot(n: UnitVector3) -> np.ndarray:
    return n.x * SIGMA_X + n.y * SIGMA_Y + n.z * SIGMA_Z


def reference_tensor_observable(a: UnitVector3, b: UnitVector3) -> np.ndarray:
    return np.kron(reference_pauli_dot(a), reference_pauli_dot(b))


def reference_born_probabilities(tensor, a: np.ndarray, b: np.ndarray) -> JointProbabilities:
    m_a, m_b, t = tensor
    ma, mb, e = float(a @ m_a), float(b @ m_b), float(a @ t @ b)
    p = np.array([1.0 + ma + mb + e, 1.0 + ma - mb - e, 1.0 - ma + mb - e, 1.0 - ma - mb + e])
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    return JointProbabilities(*(float(x) for x in p))


def reference_schmidt_decompose(state: TwoQubitState) -> ReferenceSchmidt:
    m = state.amplitude_matrix()
    u, s, vh = np.linalg.svd(m)
    u = u.copy()
    vh = vh.copy()
    for k in range(2):
        ph = _first_nonzero_phase(u[:, k])
        u[:, k] *= np.conj(ph)
        vh[k, :] *= ph
    coeff_phase = np.ones(2, dtype=complex)
    for k in range(2):
        ph = _first_nonzero_phase(vh[k, :])
        vh[k, :] *= np.conj(ph)
        coeff_phase[k] = ph
    sign = 1
    if s[1] > ENTANGLEMENT_TOL:
        rel = coeff_phase[1] / coeff_phase[0]
        if abs(rel.imag) <= 1e-11:
            sign = 1 if rel.real > 0 else -1
        else:
            vh[1, :] *= rel
    return ReferenceSchmidt(SchmidtForm(c1=float(s[0]), c2=float(s[1]), sign=sign), u, vh.T)


# ------------------------------------------------ per-pair misalignment sampler
#
# The slow route that agr.simulate_run replaced: every pair draws its own
# effective orientations and then its outcome.  Kept as the oracle for the
# mean-probability sampler.

REFERENCE_CHUNK = 1 << 20


def perturb(rng: np.random.Generator, nominal: np.ndarray, sigma: float, n: int) -> np.ndarray:
    """Rotate ``nominal`` by N(0, sigma) angles about random transverse axes."""
    delta = rng.normal(0.0, sigma, n)
    psi = rng.uniform(0.0, 2.0 * math.pi, n)
    # Orthonormal frame transverse to the nominal direction.
    helper = np.array([0.0, 0.0, 1.0]) if abs(nominal[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(nominal, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nominal, e1)
    trans = np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2
    return np.cos(delta)[:, None] * nominal + np.sin(delta)[:, None] * trans


def per_pair_counts(cfg, a: UnitVector3, b: UnitVector3, stream: int = 0) -> CoincidenceCounts:
    """Misaligned run sampled pair by pair: orientations, outcome, then recording."""
    rng = np.random.default_rng([cfg.seed, stream])
    n = cfg.n_pairs
    eff = cfg.efficiency
    m_a, m_b, t = correlation_tensor(cfg.state)
    av, bv = a.as_array(), b.as_array()
    tallies = np.zeros(4, dtype=np.int64)
    done = 0
    while done < n:
        m = min(REFERENCE_CHUNK, n - done)
        a_eff = perturb(rng, av, cfg.misalignment_sigma, m)
        b_eff = perturb(rng, bv, cfg.misalignment_sigma, m)
        ma = a_eff @ m_a
        mb = b_eff @ m_b
        e = np.einsum("ij,jk,ik->i", a_eff, t, b_eff)
        # Born probabilities p_ij = (1 + i*ma + j*mb + ij*e)/4 per pair.
        p_pp = np.clip((1.0 + ma + mb + e) / 4.0, 0.0, 1.0)
        p_pm = np.clip((1.0 + ma - mb - e) / 4.0, 0.0, 1.0)
        p_mp = np.clip((1.0 - ma + mb - e) / 4.0, 0.0, 1.0)
        u = rng.uniform(size=m)
        outcome = (u >= p_pp).astype(np.int8)
        outcome += (u >= p_pp + p_pm).astype(np.int8)
        outcome += (u >= p_pp + p_pm + p_mp).astype(np.int8)
        if eff < 1.0:
            both = (rng.uniform(size=m) < eff) & (rng.uniform(size=m) < eff)
            outcome = outcome[both]
        tallies += np.bincount(outcome, minlength=4)
        done += m
    return CoincidenceCounts(*(int(c) for c in tallies), n_pairs=n)


def four_cell_counts(cfg) -> tuple[CoincidenceCounts, ...]:
    """Efficiency-1 runs as one multinomial over the four mean probabilities alone per orientation pair.

    The oracle of agr's five-cell draw at efficiency 1, where the unrecorded
    cell has probability 0 and must leave the stream untouched: one
    default_rng(cfg.seed) draws the pairs() in order, one call each.
    """
    rng = np.random.default_rng(cfg.seed)
    return tuple(CoincidenceCounts(*rng.multinomial(cfg.n_pairs, mean_probabilities(cfg, a, b).as_tuple()).tolist(),
                                   n_pairs=cfg.n_pairs) for a, b in cfg.settings.pairs())


def reference_run_counts(cfg, born=None) -> tuple[CoincidenceCounts, ...]:
    """agr.run_experiment's counts as sequential one-row multinomials from one default_rng(cfg.seed).

    Each orientation pair, in pairs() order, forms its own correlation tensor and
    its own row [1 - eff^2, eff^2 * p_ij] from ``born`` (by default the
    generic-numpy route reference_born_probabilities), and draws it with its own
    call, where agr draws all four rows in one.
    """
    born = born or reference_born_probabilities
    rng = np.random.default_rng(cfg.seed)
    k = math.exp(-0.5 * min(cfg.misalignment_sigma, 40.0) ** 2)
    both = cfg.efficiency * cfg.efficiency
    runs = []
    for a, b in cfg.settings.pairs():
        p = born(correlation_tensor(cfg.state), k * a.as_array(), k * b.as_array())
        _, *recorded = rng.multinomial(cfg.n_pairs, [1.0 - both, *(both * x for x in p.as_tuple())]).tolist()
        runs.append(CoincidenceCounts(*recorded, n_pairs=cfg.n_pairs))
    return tuple(runs)


# ------------------------------------------------ trigonometric sphere sampler
#
# The sampler lhv._sample_sphere replaced: z uniform on [-1, 1], then the
# azimuth uniform on [0, 2*pi), which is uniform on the sphere by Archimedes'
# hat-box theorem.  Kept as the oracle of the disc-rejection sampler.


def reference_sample_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points uniform on the unit sphere from z and the azimuth, as an (n, 3) array."""
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


# ------------------------------------------------ allocating disc sampler
#
# lhv._sample_sphere as its sampled streams were fixed: every round allocates
# its draws, its accepted columns and each arithmetic step anew.  No golden
# file covers the streams of subclasses and user models, so this frozen copy
# is their bit-identity oracle.


def allocating_sample_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points uniform on the unit sphere by Marsaglia's disc method, in fresh arrays."""
    out = np.empty((3, n))
    done = 0
    while done < n:
        k = n - done
        uv = rng.uniform(-1.0, 1.0, (2, k + k // 4 + k // 16 + 64))
        uv = np.compress(uv[0] * uv[0] + uv[1] * uv[1] < 1.0, uv, axis=1)[:, :k]
        u, v = uv
        s = u * u + v * v
        m = len(s)
        w = np.sqrt(1.0 - s)
        w *= 2.0
        np.multiply(uv, w, out=out[:2, done:done + m])
        np.subtract(1.0, 2.0 * s, out=out[2, done:done + m])
        done += m
    return out.T


class SampledAveragedLinear:
    """AveragedLinearModel's responses on a class that is not AveragedLinearModel.

    The estimators draw AveragedLinearModel's outcome patterns from their
    exact law; this duck-typed copy takes the sampling route, with the
    allocating sampler, and so serves as the bit-identity oracle of that
    route for the model's subclasses.
    """

    name = AveragedLinearModel.name
    response_a = AveragedLinearModel.response_a
    response_b = AveragedLinearModel.response_b

    def sample_lambda(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return allocating_sample_sphere(rng, n)


class SampledLinearOutcomes:
    """AveragedLinearModel read as +-1 outcomes, sampled draw by draw: the oracle of its outcome law.

    Made for the distinct settings of one set of pairs.  Each draw is lambda
    from the allocating sampler followed by one uniform u per (side,
    setting); side A answers +1 at a when u < (1 + a . lambda)/2 and side B
    at b when u < (1 - b . lambda)/2, else -1.  Each side reads only its own
    uniforms, so the model is local, and E(a, b) = -(a . b)/3.
    """

    name = AveragedLinearModel.name

    def __init__(self, pairs):
        self.side_a = list(dict.fromkeys(x for x, _ in pairs))
        self.side_b = list(dict.fromkeys(y for _, y in pairs))

    def sample_lambda(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        lam = allocating_sample_sphere(rng, n)
        return np.column_stack([lam, rng.random((n, len(self.side_a) + len(self.side_b)))])

    def response_a(self, a: UnitVector3, lam: np.ndarray) -> np.ndarray:
        u = lam[:, 3 + self.side_a.index(a)]
        return np.where(u < (1.0 + lam[:, :3] @ a.as_array()) / 2.0, 1.0, -1.0)

    def response_b(self, b: UnitVector3, lam: np.ndarray) -> np.ndarray:
        u = lam[:, 3 + len(self.side_a) + self.side_b.index(b)]
        return np.where(u < (1.0 - lam[:, :3] @ b.as_array()) / 2.0, 1.0, -1.0)

    def outcomes(self, lam: np.ndarray) -> np.ndarray:
        """Each draw's outcome per item, one column per item, the A items first."""
        return np.column_stack([self.response_a(a, lam) for a in self.side_a]
                               + [self.response_b(b, lam) for b in self.side_b])


def quadrature_linear_law(pairs) -> np.ndarray:
    """Probabilities of AveragedLinearModel's +-1 outcome patterns by quadrature on the sphere.

    p(o) = 2^-k E[prod_i (1 + o_i r_i)] is a polynomial of degree k <= 4 in
    lambda.  Averaged over 8 equally spaced azimuths, which is exact for
    trigonometric degree below 8, its odd powers of sqrt(1 - z^2) vanish and
    a polynomial of degree <= 4 in z is left, which 3 Gauss-Legendre nodes
    integrate exactly.  Patterns and items are indexed as in
    lhv._linear_outcome_law.
    """
    z, weight = np.polynomial.legendre.leggauss(3)
    z, w = np.repeat(z, 8), np.repeat(weight, 8) / 16.0
    phi = np.tile(2.0 * math.pi * np.arange(8) / 8.0, 3)
    rho = np.sqrt(1.0 - z * z)
    lam = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    side_a = list(dict.fromkeys(x for x, _ in pairs))
    side_b = list(dict.fromkeys(y for _, y in pairs))
    r = np.column_stack([lam @ a.as_array() for a in side_a] + [-(lam @ b.as_array()) for b in side_b])
    k = r.shape[1]
    signs = reference_signs(k)
    return np.array([w @ np.prod(1.0 + o * r, axis=1) for o in signs]) / 2 ** k


# ------------------------------------------------- per-pair LHV streams
#
# The estimator lhv.chsh_lhv replaced: each orientation pair draws its own
# hidden-variable stream, spawned from the seed, in blocks of 2**20.  Kept as
# the oracle of the shared-stream estimator.

REFERENCE_LHV_BLOCK = 1 << 20


def per_pair_correlation(model, a: UnitVector3, b: UnitVector3, n: int, seed) -> tuple[float, float]:
    """(mean, standard error) of response_a * response_b over n draws of its own stream."""
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    done = 0
    while done < n:
        m = min(REFERENCE_LHV_BLOCK, n - done)
        lam = model.sample_lambda(rng, m)
        prod = np.asarray(model.response_a(a, lam)) * np.asarray(model.response_b(b, lam))
        total += float(np.sum(prod))
        total_sq += float(np.sum(prod * prod))
        done += m
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    return mean, math.sqrt(var / n)


def per_pair_chsh_lhv(model, s: MeasurementSettings, n: int, seed) -> list[tuple[float, float]]:
    """(E, standard error) of the four pairs in CHSH order, each on a stream spawned from seed."""
    streams = np.random.SeedSequence(seed).spawn(4)
    return [per_pair_correlation(model, a, b, n, st) for (a, b), st in zip(s.pairs(), streams)]


# ------------------------------------------------ sampled bell-sign model
#
# The route the estimators took for BellSignModel before its sign-pattern
# counts were drawn from their exact law.


class SampledBellSign:
    """BellSignModel's own methods on a class that is not BellSignModel.

    The estimators draw the sign-pattern counts of BellSignModel from their
    exact law; this duck-typed copy takes the sampling route instead, one
    hidden variable per draw, and so serves as that law's oracle.
    """

    name = BellSignModel.name
    sample_lambda = BellSignModel.sample_lambda
    response_a = BellSignModel.response_a
    response_b = BellSignModel.response_b


# ------------------------------------------------ reference exact LHV laws
#
# The exact laws and pattern sums as lhv first computed them: np.cross and
# np.linalg.norm for the angles, sign tables and pair products rebuilt on every
# call, the empty cell's null vector always from the SVD, and the sums of the
# pattern counts in object arrays of Python ints.  lhv's rewrite does the same
# floating-point operations, so these are its bit-identity oracles.


def reference_angles(v: np.ndarray) -> np.ndarray:
    """Angles between the rows of v, as atan2(|u x w|, u . w)."""
    return np.arctan2(np.linalg.norm(np.cross(v[:, None], v[None]), axis=2), v @ v.T)


def reference_signs(k: int) -> np.ndarray:
    """Pattern i of k signs has s_j = -1 where bit j of i is set."""
    return 1 - 2 * (np.arange(2 ** k)[:, None] >> np.arange(k) & 1)


def reference_sign_pattern_law(pairs) -> tuple[np.ndarray, np.ndarray]:
    """BellSignModel's pattern probabilities and pair products -s_x s_y, as lhv._sign_pattern_law defines them."""
    vectors = list(dict.fromkeys(v for pair in pairs for v in pair))
    k = len(vectors)
    v = np.array([u.as_array() for u in vectors])
    signs = reference_signs(k)
    rho = 1.0 - 2.0 * reference_angles(v) / math.pi
    walsh = 1.0 + (np.einsum("si,ij,sj->s", signs, rho, signs) - k) / 2.0
    if k == 4:
        c = np.linalg.svd(v.T)[2][-1]
        empty = int((c < 0.0) @ (1 << np.arange(4)))
        walsh -= signs.prod(axis=1) * (signs[empty].prod() * walsh[empty])
    x, y = ([vectors.index(pair[side]) for pair in pairs] for side in (0, 1))
    return np.maximum(walsh / 2 ** k, 0.0), -signs[:, x] * signs[:, y]


def reference_linear_outcome_law(pairs) -> tuple[np.ndarray, np.ndarray]:
    """AveragedLinearModel's pattern probabilities and pair products o_x o_y, as lhv._linear_outcome_law defines them."""
    side_a = list(dict.fromkeys(x for x, _ in pairs))
    side_b = list(dict.fromkeys(y for _, y in pairs))
    k = len(side_a) + len(side_b)
    r = np.array([u.as_array() for u in side_a] + [-u.as_array() for u in side_b])
    g = r @ r.T / 3.0
    np.fill_diagonal(g, 0.0)
    signs = reference_signs(k)
    walsh = 1.0 + np.einsum("si,ij,sj->s", signs, g, signs) / 2.0
    if k == 4:
        walsh += signs.prod(axis=1) * (0.6 * (g[0, 1] * g[2, 3] + g[0, 2] * g[1, 3] + g[0, 3] * g[1, 2]))
    x, y = np.array([(side_a.index(a), side_b.index(b)) for a, b in pairs]).T
    return walsh / 2 ** k, signs[:, x] * signs[:, len(side_a) + y]


REFERENCE_LAWS = {BellSignModel: reference_sign_pattern_law, AveragedLinearModel: reference_linear_outcome_law}


def reference_exact_sums(model, pairs, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Object arrays of the Python-int pair sums and moment sums over one multinomial draw of the pattern counts."""
    p, prod = REFERENCE_LAWS[type(model)](pairs)
    counts, prod = np.random.default_rng(seed).multinomial(n, p).astype(object), prod.astype(object)
    return counts @ prod, (prod.T * counts) @ prod


def reference_correlators(model, pairs, n: int, seed) -> Correlators:
    """The built-in models' correlator record, its covariance n M - s s^T formed on object arrays."""
    sums, moments = reference_exact_sums(model, pairs, n, seed)
    cov = (n * moments - np.outer(sums, sums)).tolist()
    return Correlators(tuple(sums.tolist()), (n,) * len(pairs), tuple(map(tuple, cov)),
                       n * n * max(n - 1, 1), "symmetric")


# ---------------------------------------------- triangle-cell sign-pattern law
#
# The construction lhv._sign_pattern_law used for the four-fold moment before
# it read it off an empty cell: the area of a spherical-triangle cell.  Kept as
# the exact oracle of the law at four distinct vectors.


def triangle_cell_law(pairs) -> np.ndarray:
    """Probabilities of BellSignModel's sign patterns, with M4 from a triangle cell's area.

    Take a null vector c of [v_1 .. v_4] and j = argmax |c_j|, and set
    s_i = sign(c_i) for i != j and s_j = -sign(c_j).  Inside the other three
    hemispheres s_i v_i . lam > 0, c_j v_j . lam = -sum_{i != j} |c_i| s_i v_i . lam < 0,
    so the fourth constraint is implied and the cell is their triangle, of
    probability (2 pi - the sum of the angles between the s_i v_i)/(4 pi).
    Patterns are indexed as in lhv._sign_pattern_law.
    """
    vectors = list(dict.fromkeys(v for pair in pairs for v in pair))
    k = len(vectors)
    v = np.array([u.as_array() for u in vectors])
    signs = reference_signs(k)
    rho = 1.0 - 2.0 * reference_angles(v) / math.pi
    walsh = 1.0 + (np.einsum("si,ij,sj->s", signs, rho, signs) - k) / 2.0
    if k == 4:
        c = np.linalg.svd(v.T)[2][-1]
        j = int(np.argmax(np.abs(c)))
        cell = np.where(c >= 0.0, 1, -1)
        cell[j] = -cell[j]
        theta = reference_angles(cell[:, None] * v)
        p_cell = (2.0 * math.pi - (theta.sum() - 2.0 * theta[j].sum()) / 2.0) / (4.0 * math.pi)
        m4 = cell.prod() * (16.0 * p_cell - walsh[(1 - cell) // 2 @ (1 << np.arange(4))])
        walsh += signs.prod(axis=1) * m4
    return np.maximum(walsh / 2 ** k, 0.0)


# ------------------------------------------------------- reference grid writers
#
# The writers regions.write_grid_csv / write_grid_json replaced: a csv.writer
# call per cell, and json.dump of the whole grid as one Python list.  Kept as
# the byte-for-byte oracle of the row-streamed writers.


def reference_grid_csv(grid, path) -> None:
    """Row-major CSV: angle1, angle2, bell_lhs, violated; one metadata header line."""
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# plane={grid.plane.value} c1={grid.c1:.12g} c2={grid.c2:.12g} "
            f"grid_n={len(grid.axis1)} threshold={VIOLATION_THRESHOLD:.12g} "
            f"violating_fraction={grid.violating_fraction:.12g}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["angle1", "angle2", "bell_lhs", "violated"])
        axis2 = grid.axis2.tolist()
        for t1, row in zip(grid.axis1.tolist(), grid.values.tolist()):
            for t2, v in zip(axis2, row):
                writer.writerow(
                    [f"{t1:.12g}", f"{t2:.12g}", f"{v:.12g}", int(v > VIOLATION_THRESHOLD)]
                )


def reference_grid_json(grid, path) -> None:
    """JSON export: axes plus the row-major value matrix and scan metadata."""
    payload = {
        "plane": grid.plane.value,
        "c1": grid.c1,
        "c2": grid.c2,
        "threshold": VIOLATION_THRESHOLD,
        "violating_fraction": grid.violating_fraction,
        "axis1": grid.axis1.tolist(),
        "axis2": grid.axis2.tolist(),
        "values": grid.values.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------- whole-grid scan
#
# regions.scan_region before it was evaluated in row blocks: all four
# orientations of every cell from one call, then every grid-sized correlation
# array at once.  Kept as the bit-for-bit oracle of the blocked scan.


def reference_components(plane: Plane, t1, t2):
    """Orientations (a, b, a', b') of the given plane as _Vector triples, elementwise."""
    c1, s1 = np.cos(t1), np.sin(t1)
    c2, s2 = np.cos(t2), np.sin(t2)
    zero1, zero2 = np.zeros_like(c1), np.zeros_like(c2)
    if plane is Plane.XZ:
        a, b = (s1, zero1, c1), (s2, zero2, c2)
        ap, bp = (c1, zero1, -s1), (c2, zero2, -s2)
    elif plane is Plane.XY:
        a, b = (c1, s1, zero1), (c2, s2, zero2)
        ap, bp = (-s1, c1, zero1), (-s2, c2, zero2)
    else:
        a, b = (zero1, s1, c1), (zero2, s2, c2)
        ap, bp = (zero1, c1, -s1), (zero2, c2, -s2)
    return tuple(_Vector(*v) for v in (a, b, ap, bp))


def reference_scan_values(plane: Plane, c1: float, c2: float, n: int) -> tuple[np.ndarray, float]:
    """Bell values on the n x n cell-centre grid and their violating fraction, in one pass."""
    centers = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    s = MeasurementSettings(*reference_components(plane, centers[:, None], centers[None, :]))
    values = chsh_combination((correlation_closed(c1, c2, u, v) for u, v in s.pairs()), "bell")
    return values, float(np.count_nonzero(values > VIOLATION_THRESHOLD)) / values.size


# ------------------------------------------------------- coplanar scenarios
#
# The analyzer quadruples of regions.scan_region at one grid point, written
# out plane by plane, and the closed form of the Bell combination at
# 2*c1*c2 = +-1: independent oracles of the scan's angle convention and values.


def scenario_settings(plane: Plane, angle1: float, angle2: float) -> MeasurementSettings:
    """Analyzer quadruple (a, b, a', b') of the given coplanar scenario at (angle1, angle2).

    In the xz and yz planes the angles are polar angles from z; in the xy plane
    they are azimuths from x.  The primed vectors are rotated by +pi/2.
    """
    c1, s1 = math.cos(angle1), math.sin(angle1)
    c2, s2 = math.cos(angle2), math.sin(angle2)
    if plane is Plane.XZ:
        vectors = (s1, 0.0, c1), (s2, 0.0, c2), (c1, 0.0, -s1), (c2, 0.0, -s2)
    elif plane is Plane.XY:
        vectors = (c1, s1, 0.0), (c2, s2, 0.0), (-s1, c1, 0.0), (-s2, c2, 0.0)
    else:
        vectors = (0.0, s1, c1), (0.0, s2, c2), (0.0, c1, -s1), (0.0, c2, -s2)
    return MeasurementSettings(*(UnitVector3(*v) for v in vectors))


def scenario_closed_form(plane: Plane, sign_case: int, angle1, angle2):
    """Single-variable closed form of the Bell combination at 2*c1*c2 = +-1.

    For the xy plane with sign_case +1 this is |cos x - sin x| + cos x - sin x
    at x = angle1 - angle2; the xz and yz planes share their closed forms.
    Accepts scalars or numpy arrays.
    """
    if sign_case not in (-1, 1):
        raise ValueError(f"sign_case must be +-1, got {sign_case}")
    if plane is Plane.XY or sign_case == -1:
        x = np.asarray(angle1) - np.asarray(angle2)
        cs = np.cos(x) - np.sin(x)
        out = np.abs(cs) + sign_case * cs
    else:
        u = np.asarray(angle1) + np.asarray(angle2)
        cs = np.cos(u) + np.sin(u)
        out = np.abs(cs) + cs
    return out if out.ndim else float(out)
