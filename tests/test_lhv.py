import math
import sys
import tracemalloc

import numpy as np
import pytest

from belllab import (
    AveragedLinearModel,
    BellSignModel,
    BUILTIN_MODELS,
    CorrelationEstimate,
    PreconditionError,
    UnitVector3,
    bell1964_check,
    chsh_lhv,
    estimate_correlation,
    gisin_settings,
    make_unit_vector,
)
from belllab import lhv
from belllab.chsh import MeasurementSettings
from belllab.lhv import _BLOCK
from helpers import (
    SampledAveragedLinear,
    SampledBellSign,
    SampledLinearOutcomes,
    allocating_sample_sphere,
    per_pair_chsh_lhv,
    quadrature_linear_law,
    random_settings,
    random_unit_vector,
    reference_sample_sphere,
    same_bits,
    triangle_cell_law,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
Z = UnitVector3(0, 0, 1)

# A stream of several full blocks and a one-draw tail.
MULTI_BLOCK_N = 131_073
assert MULTI_BLOCK_N > 2 * _BLOCK and MULTI_BLOCK_N % _BLOCK == 1

# Upper 1e-6 quantile of the chi-square distribution with 49 degrees of
# freedom: the pass mark of a 50-bin goodness-of-fit test.
CHI2_49_CRIT = 111.14


# The built-in models as the sampling route runs them, through duck-typed
# copies, since the built-in classes themselves draw no hidden variable.
SAMPLING_MODELS = {"bell-sign": SampledBellSign, "averaged-linear": SampledAveragedLinear}
assert set(SAMPLING_MODELS) == set(BUILTIN_MODELS)


def bell_sign_exact(theta: float) -> float:
    """Closed-form correlation of the sign model at relative angle theta."""
    return -1.0 + 2.0 * theta / math.pi


class ConstantModel:
    """Responses identically +1; E = 1 for every pair of settings."""

    def sample_lambda(self, rng, n=1):
        return np.zeros((n, 3))

    def response_a(self, a, lam):
        return np.ones(len(lam))

    def response_b(self, b, lam):
        return np.ones(len(lam))


class SpyModel(ConstantModel):
    """Records the draw sizes and which settings each side's response function ever sees."""

    def __init__(self):
        self.draws = []
        self.seen_a = []
        self.seen_b = []

    def sample_lambda(self, rng, n=1):
        self.draws.append(n)
        return super().sample_lambda(rng, n)

    def response_a(self, a, lam):
        self.seen_a.append(a)
        return super().response_a(a, lam)

    def response_b(self, b, lam):
        self.seen_b.append(b)
        return super().response_b(b, lam)


class TrigonometricModel:
    """A model's responses on hidden variables drawn from z and the azimuth."""

    def __init__(self, model):
        self.model = model

    def sample_lambda(self, rng, n=1):
        return reference_sample_sphere(rng, n)

    def response_a(self, a, lam):
        return self.model.response_a(a, lam)

    def response_b(self, b, lam):
        return self.model.response_b(b, lam)


class SubclassedAveragedLinear(AveragedLinearModel):
    """AveragedLinearModel's own methods on the sampling route, which its subclasses take."""


class SubclassedBellSign(BellSignModel):
    """BellSignModel's own methods on the sampling route, which its subclasses take."""


# The built-in models, which draw pattern counts, and a subclass of each, which samples.
MEMORY_MODELS = {**BUILTIN_MODELS, "subclassed bell-sign": SubclassedBellSign,
                 "subclassed averaged-linear": SubclassedAveragedLinear}


class NoDrawModel(ConstantModel):
    """Fails on any hidden-variable draw."""

    def sample_lambda(self, rng, n=1):
        raise AssertionError("drew hidden variables")


class FlippedOnceModel:
    """The sign model's +-1 responses, with a fourth hidden component f = +-1 that side B
    multiplies in; f = -1 on the stream's first draw alone, so A(b')B(b') = +1 there."""

    def __init__(self):
        self.drawn = 0

    def sample_lambda(self, rng, n=1):
        lam = np.column_stack([lhv._sample_sphere(rng, n), np.ones(n)])
        if self.drawn == 0:
            lam[0, 3] = -1.0
        self.drawn += n
        return lam

    def response_a(self, a, lam):
        return BellSignModel.response_a(self, a, lam[:, :3])

    def response_b(self, b, lam):
        return BellSignModel.response_b(self, b, lam[:, :3]) * lam[:, 3]


def shared_draws(model, n, seed):
    """The hidden variables of one (seed, n) stream, drawn block by block as the estimators do."""
    rng = np.random.default_rng(seed)
    return np.concatenate([model.sample_lambda(rng, min(_BLOCK, n - k)) for k in range(0, n, _BLOCK)])


SAMPLE_COUNT_CALLS = {
    "estimate_correlation": lambda model, n, seed=0: estimate_correlation(model, Z, Z, n, seed=seed),
    "chsh_lhv": lambda model, n, seed=0: chsh_lhv(model, gisin_settings(INV_SQRT2, INV_SQRT2), n, seed=seed),
    "bell1964_check": lambda model, n, seed=0: bell1964_check(model, Z, Z, Z, n, seed=seed),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_COUNT_CALLS))
class TestSampleCountValidation:
    @pytest.mark.parametrize("n", [1.5, 2.0, True, "10", None])
    def test_non_integer_rejected_before_any_draw(self, name, n):
        with pytest.raises(TypeError, match="sample count"):
            SAMPLE_COUNT_CALLS[name](NoDrawModel(), n)

    @pytest.mark.parametrize("n", [0, -3, np.int64(0)])
    def test_non_positive_rejected_before_any_draw(self, name, n):
        with pytest.raises(ValueError, match="sample count"):
            SAMPLE_COUNT_CALLS[name](NoDrawModel(), n)

    @pytest.mark.parametrize("n", [2 ** 63, 2 ** 64])
    def test_above_int64_rejected_before_any_draw(self, name, n):
        with pytest.raises(ValueError, match="sample count"):
            SAMPLE_COUNT_CALLS[name](NoDrawModel(), n)

    def test_numpy_integer_accepted(self, name):
        SAMPLE_COUNT_CALLS[name](BellSignModel(), np.int64(10))


@pytest.mark.parametrize("name", sorted(SAMPLE_COUNT_CALLS))
class TestSeedValidation:
    @pytest.mark.parametrize("seed", [-1, np.int64(-5)])
    def test_negative_seed_rejected_before_any_draw(self, name, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            SAMPLE_COUNT_CALLS[name](NoDrawModel(), 10, seed)

    def test_seed_sequence_accepted(self, name):
        SAMPLE_COUNT_CALLS[name](BellSignModel(), 10, np.random.SeedSequence(3))

    # True used to run as seed 1, None from OS entropy (so two equal calls differed), [1, 2] as a seed list.
    @pytest.mark.parametrize("seed", [True, None, 2.0, [1, 2]])
    def test_non_integer_seed_rejected_before_any_draw(self, name, seed):
        with pytest.raises(TypeError, match="^seed must be an integer, not "):
            SAMPLE_COUNT_CALLS[name](NoDrawModel(), 10, seed)

    def test_numpy_integer_seed_accepted(self, name):
        call = SAMPLE_COUNT_CALLS[name]
        assert call(BellSignModel(), 10, np.int64(3)) == call(BellSignModel(), 10, 3)


class TestCorrelationEstimateValidation:
    # NaN used to pass every check: CorrelationEstimate(0.5, nan, 5) constructed.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["value", "std_error", "n_samples"])
    def test_non_finite_rejected(self, field, bad):
        fields = {"value": 0.5, "std_error": 0.01, "n_samples": 5, field: bad}
        with pytest.raises(ValueError):
            CorrelationEstimate(**fields)

    def test_valid_estimates_accepted(self):
        assert CorrelationEstimate(-1.0, 0.0, 1).value == -1.0
        assert CorrelationEstimate(1.02, 0.01, np.int64(100)).n_samples == 100

    # A bool is an Integral, so CorrelationEstimate(0.5, 0.0, True) used to construct.
    @pytest.mark.parametrize("flag", [True, False, np.bool_(True)])
    def test_bool_sample_count_rejected(self, flag):
        with pytest.raises(ValueError, match="n_samples"):
            CorrelationEstimate(0.5, 0.0, flag)


class TestEstimateCorrelation:
    def test_equal_settings_exact_minus_one(self):
        est = estimate_correlation(BellSignModel(), Z, Z, 2000, seed=0)
        assert est.value == -1.0
        assert est.std_error == 0.0

    def test_right_angle_vanishes(self):
        b = make_unit_vector(math.pi / 2, 0.0)
        est = estimate_correlation(BellSignModel(), Z, b, 1_000_000, seed=1)
        assert abs(est.value) <= 3.0 * est.std_error

    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 3, 2 * math.pi / 3])
    def test_linear_in_angle(self, theta):
        b = make_unit_vector(theta, 0.0)
        est = estimate_correlation(BellSignModel(), Z, b, 400_000, seed=2)
        assert abs(est.value - bell_sign_exact(theta)) <= 3.0 * est.std_error

    def test_averaged_linear_closed_form(self):
        # E(a, b) = -(a . b)/3 for the linear-response model.
        rng = np.random.default_rng(31)
        for seed in range(3):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            est = estimate_correlation(AveragedLinearModel(), a, b, 400_000, seed=seed)
            assert abs(est.value - (-(a.as_array() @ b.as_array()) / 3.0)) <= 5.0 * est.std_error

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            estimate_correlation(BellSignModel(), Z, Z, 0, seed=0)

    def test_deterministic_for_seed(self):
        b = make_unit_vector(1.0, 2.0)
        e1 = estimate_correlation(BellSignModel(), Z, b, 50_000, seed=99)
        e2 = estimate_correlation(BellSignModel(), Z, b, 50_000, seed=99)
        assert e1.value == e2.value
        assert e1.std_error == e2.std_error

    def test_sign_responses_match_the_branching_form_bitwise(self):
        rng = np.random.default_rng(43)
        model = BellSignModel()
        lam = rng.normal(size=(10_000, 3))
        # Rows whose products with (1, 0, 0) are all +0.0 or all -0.0, so the
        # dot product is a signed zero whichever order it is summed in.
        lam[:4] = [[0.0, 0.5, 0.5], [-0.0, -0.5, -0.5], [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]]
        x_axis = UnitVector3(1.0, 0.0, 0.0)
        for v in (x_axis, Z, random_unit_vector(rng)):
            branch_a = np.where(lam @ v.as_array() >= 0.0, 1.0, -1.0)
            np.testing.assert_array_equal(model.response_a(v, lam).view(np.uint64), branch_a.view(np.uint64))
            np.testing.assert_array_equal(model.response_b(v, lam).view(np.uint64), (-branch_a).view(np.uint64))
        # A signed-zero tie answers +1 on side A and -1 on side B.
        assert np.all(lam[:4] @ x_axis.as_array() == 0.0)
        np.testing.assert_array_equal(model.response_a(x_axis, lam[:4]), 1.0)
        np.testing.assert_array_equal(model.response_b(x_axis, lam[:4]), -1.0)

    def test_tie_resolves_to_plus_one(self):
        model = BellSignModel()
        lam = np.array([[1.0, 0.0, 0.0]])  # orthogonal to z: a . lam = 0
        assert model.response_a(Z, lam)[0] == 1.0
        assert model.response_b(Z, lam)[0] == -1.0

    def test_locality_by_interface(self):
        # Each side's response only ever receives its own setting.
        spy = SpyModel()
        a, b = Z, make_unit_vector(1.0, 0.0)
        estimate_correlation(spy, a, b, 100, seed=0)
        assert all(v is a for v in spy.seen_a)
        assert all(v is b for v in spy.seen_b)


class TestChshLhv:
    def test_constant_model_exactly_two(self):
        est = chsh_lhv(ConstantModel(), random_settings(np.random.default_rng(32)), 1000, seed=0)
        assert est.value == 2.0
        assert est.std_error == 0.0

    def test_bell_sign_at_gisin_settings(self):
        settings = gisin_settings(INV_SQRT2, INV_SQRT2)
        est = chsh_lhv(BellSignModel(), settings, 1_000_000, seed=3)
        assert est.value <= 2.0

    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_random_settings_respect_bound(self, name):
        rng = np.random.default_rng(33)
        model = BUILTIN_MODELS[name]()
        for seed in range(25):
            est = chsh_lhv(model, random_settings(rng), 50_000, seed=seed)
            assert est.value <= 2.0

    def test_deterministic_for_seed(self):
        settings = gisin_settings(INV_SQRT2, INV_SQRT2)
        e1 = chsh_lhv(BellSignModel(), settings, 20_000, seed=4)
        e2 = chsh_lhv(BellSignModel(), settings, 20_000, seed=4)
        assert e1 == e2

    @pytest.mark.parametrize("name", sorted(SAMPLING_MODELS))
    @pytest.mark.parametrize("n", [1000, MULTI_BLOCK_N])
    def test_error_is_deviation_of_the_combination(self, name, n):
        # The four estimates share lambda, so the error of S is the spread of
        # the per-draw combination, not the quadrature of the four errors.
        rng = np.random.default_rng(37)
        model = SAMPLING_MODELS[name]()
        for seed in range(3):
            s = random_settings(rng)
            est = chsh_lhv(model, s, n, seed=seed)
            lam = shared_draws(model, n, seed)
            a, ap = (model.response_a(v, lam) for v in (s.a, s.a_prime))
            b, bp = (model.response_b(v, lam) for v in (s.b, s.b_prime))
            s_x = 1.0 if est.e_ab.value >= est.e_abp.value else -1.0
            s_y = 1.0 if est.e_apbp.value + est.e_apb.value >= 0.0 else -1.0
            combination = s_x * (a * b - a * bp) + s_y * (ap * bp + ap * b)
            assert est.value == pytest.approx(combination.mean(), abs=1e-12)
            assert abs(est.std_error - np.std(combination, ddof=1) / math.sqrt(n)) <= 1e-12
            for e, (x, y) in zip(est.correlations(), ((a, b), (a, bp), (ap, b), (ap, bp))):
                assert e.n_samples == n
                assert e.value == pytest.approx((x * y).mean(), abs=1e-12)
                assert abs(e.std_error - np.std(x * y, ddof=1) / math.sqrt(n)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_agrees_with_per_pair_streams(self, name):
        # Oracle: the estimator with one independent stream per pair.
        rng = np.random.default_rng(38)
        model = BUILTIN_MODELS[name]()
        for seed in range(50):
            s = random_settings(rng)
            est = chsh_lhv(model, s, 20_000, seed=seed)
            ref = per_pair_chsh_lhv(model, s, 20_000, seed=1000 + seed)
            for e, (value, se) in zip(est.correlations(), ref):
                assert abs(e.value - value) <= 5.0 * math.hypot(e.std_error, se)

    @pytest.mark.parametrize("name", sorted(SAMPLING_MODELS))
    def test_agrees_with_trigonometric_sampler(self, name):
        # Oracle: the same estimator with hidden variables drawn from z and the azimuth.
        rng = np.random.default_rng(42)
        quadruples = [gisin_settings(INV_SQRT2, INV_SQRT2)] + [random_settings(rng) for _ in range(4)]
        model = SAMPLING_MODELS[name]()
        new = [chsh_lhv(model, s, 200_000, seed=seed) for seed, s in enumerate(quadruples)]
        trigonometric = TrigonometricModel(model)
        ref = [chsh_lhv(trigonometric, s, 200_000, seed=100 + seed) for seed, s in enumerate(quadruples)]
        for est, old in zip(new, ref):
            assert abs(est.value - old.value) <= 5.0 * math.hypot(est.std_error, old.std_error)
            for e, o in zip(est.correlations(), old.correlations()):
                assert abs(e.value - o.value) <= 5.0 * math.hypot(e.std_error, o.std_error)

    @pytest.mark.parametrize("n", [1, 2, 3, MULTI_BLOCK_N])
    def test_local_bound_holds_exactly(self, n):
        # The built-in models' pattern counts give integer sums, so S <= 2
        # with no tolerance; sampled bounded real responses reach it up to
        # float rounding.
        rng = np.random.default_rng(39)
        for seed in range(200):
            s = random_settings(rng)
            assert chsh_lhv(BellSignModel(), s, n, seed=seed).value <= 2.0
            assert chsh_lhv(AveragedLinearModel(), s, n, seed=seed).value <= 2.0
            assert chsh_lhv(SampledAveragedLinear(), s, n, seed=seed).value <= 2.0 + 1e-12

    @pytest.mark.parametrize("case", ["a=a'=b=b'", "a=a', b=b'", "a=a'=b, b'=-b"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_averaged_linear_degenerate_settings_keep_two(self, case, n):
        # Where the settings coincide one draw of the real responses comes
        # closest to saturating |x| + |y| <= 2; the estimate still keeps
        # S <= 2 with no slack, on the sampled route and on the law.
        rng = np.random.default_rng(55)
        for seed in range(300):
            u, v = random_unit_vector(rng), random_unit_vector(rng)
            minus_v = UnitVector3(-v.x, -v.y, -v.z)
            s = {"a=a'=b=b'": MeasurementSettings(v, v, v, v),
                 "a=a', b=b'": MeasurementSettings(u, v, u, v),
                 "a=a'=b, b'=-b": MeasurementSettings(v, v, v, minus_v)}[case]
            assert chsh_lhv(AveragedLinearModel(), s, n, seed=seed).value <= 2.0
            assert chsh_lhv(SampledAveragedLinear(), s, n, seed=seed).value <= 2.0

    @pytest.mark.parametrize("c2", [-INV_SQRT2, INV_SQRT2])
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, MULTI_BLOCK_N])
    def test_gisin_settings_give_exactly_two(self, c2, n):
        # Every draw of the sign model saturates the bound at these settings.
        est = chsh_lhv(BellSignModel(), gisin_settings(INV_SQRT2, c2), n, seed=n)
        assert est.value == 2.0
        assert est.std_error == 0.0

    def test_one_draw_and_four_responses_per_block(self):
        spy = SpyModel()
        s = random_settings(np.random.default_rng(40))
        chsh_lhv(spy, s, 2 * _BLOCK + 1, seed=0)
        assert spy.draws == [_BLOCK, _BLOCK, 1]
        assert spy.seen_a == [s.a, s.a_prime] * 3
        assert spy.seen_b == [s.b, s.b_prime] * 3

    @pytest.mark.parametrize("name", sorted(MEMORY_MODELS))
    def test_memory_stays_within_blocks(self, name):
        # Whole-run or 2**20-sample blocks would peak near 60 MiB here; the
        # subclasses take the sampled route, which draws in blocks.
        settings = gisin_settings(INV_SQRT2, INV_SQRT2)
        tracemalloc.start()
        try:
            chsh_lhv(MEMORY_MODELS[name](), settings, 1_000_000, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def xz_vectors(*degrees):
    return [make_unit_vector(math.radians(d), 0.0) for d in degrees]


def tilted(v: UnitVector3, eps: float) -> UnitVector3:
    """v moved out of the xz plane by about eps."""
    w = np.array([v.x, v.y + eps, v.z])
    return UnitVector3(*(w / np.linalg.norm(w)))


def quadruple_pairs(a, a_prime, b, b_prime):
    return MeasurementSettings(a=a, b=b, a_prime=a_prime, b_prime=b_prime).pairs()


def bell1964_pairs(a, b, b_prime):
    """The pairs bell1964_check reads, with the repeated (b', b') pair first."""
    return ((b_prime, b_prime), (a, b), (a, b_prime), (b_prime, b))


def distinct_vectors(pairs):
    """The setting vectors of ``pairs`` in the order the sign-pattern law indexes them."""
    return list(dict.fromkeys(v for pair in pairs for v in pair))


def pattern_index(lam, vectors):
    """Pattern index of each draw: bit i set when the sign of v_i . lambda is -1 (ties give +1)."""
    minus = lam @ np.array([v.as_array() for v in vectors]).T < 0.0
    return minus @ (1 << np.arange(len(vectors)))


def coplanar_pattern_law(degrees):
    """Exact pattern probabilities of xz-plane vectors at these polar angles, from arc lengths.

    The projection of a uniform lambda onto the plane has a uniform direction
    phi, and sign(v_i . lambda) = sign(cos(phi - t_i)); so each pattern's
    probability is the length of the arcs of phi that give it, over 2 pi.
    """
    t = np.radians(degrees)
    cuts = np.sort(np.concatenate([(t + math.pi / 2) % (2 * math.pi), (t - math.pi / 2) % (2 * math.pi)]))
    arcs = np.diff(np.append(cuts, cuts[0] + 2 * math.pi))
    minus = np.cos((cuts + arcs / 2)[:, None] - t) < 0.0
    return np.bincount(minus @ (1 << np.arange(len(t))), weights=arcs, minlength=2 ** len(t)) / (2 * math.pi)


# Upper 1e-6 quantiles of the chi-square distribution by degrees of freedom.
CHI2_CRIT = {1: 23.93, 2: 27.63, 3: 30.66, 4: 33.38, 5: 35.89, 6: 38.26, 7: 40.52, 8: 42.70,
             9: 44.81, 10: 46.86, 11: 48.87, 12: 50.83, 13: 52.75, 14: 54.64, 15: 56.49}
NEAR_COPLANAR_EPS = (1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4)
_rng = np.random.default_rng(46)
_general = [random_unit_vector(_rng) for _ in range(4)]
_u, _v, _w = (random_unit_vector(_rng) for _ in range(3))
_x, _y = UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 1.0, 0.0)
_coplanar = xz_vectors(10.0, 75.0, 140.0, 250.0)
PAIR_SETS = {
    "general": quadruple_pairs(*_general),
    "gisin": gisin_settings(INV_SQRT2, INV_SQRT2).pairs(),
    "gisin-0.6": gisin_settings(0.6, 0.8).pairs(),
    "agr": quadruple_pairs(*xz_vectors(0.0, 90.0, 45.0, 135.0)),
    "coplanar": quadruple_pairs(*_coplanar),
    "repeated": quadruple_pairs(_u, _v, _u, _w),
    "bell1964-repeated": bell1964_pairs(_u, _v, _w),
    "antipodal": quadruple_pairs(_u, _v, _w, UnitVector3(-_w.x, -_w.y, -_w.z)),
    "orthogonal": quadruple_pairs(_x, _y, Z, UnitVector3(*(np.ones(3) / math.sqrt(3.0)))),
    "coplanar-triple": quadruple_pairs(*xz_vectors(20.0, 100.0, 230.0), _y),
    **{f"near-coplanar-{eps:g}": quadruple_pairs(*(tilted(v, eps * (-2) ** i) for i, v in enumerate(_coplanar)))
       for eps in NEAR_COPLANAR_EPS},
}
COPLANAR = ("gisin", "gisin-0.6", "agr", "coplanar")


def random_quadruple_pairs(seed, count, coplanar):
    """Pairs of ``count`` seeded quadruples, drawn on the sphere or on its xz great circle."""
    rng = np.random.default_rng(seed)
    if coplanar:
        return [quadruple_pairs(*xz_vectors(*rng.uniform(0.0, 360.0, 4))) for _ in range(count)]
    return [random_settings(rng).pairs() for _ in range(count)]


def cofactor_null_vector(vectors):
    """c with sum_i c_i v_i = 0 for four vectors: c_i = (-1)^i det of the other three."""
    v = np.array([u.as_array() for u in vectors])
    return np.array([1, -1, 1, -1]) * np.linalg.det(np.array([np.delete(v, i, axis=0) for i in range(4)]))


class TestSignPatternLaw:
    """The exact law of BellSignModel's sign patterns against the sampling route, arc lengths
    and the triangle-cell construction."""

    @pytest.mark.parametrize("name", sorted(PAIR_SETS))
    def test_probabilities_form_a_distribution(self, name):
        p, prod = lhv._sign_pattern_law(PAIR_SETS[name])
        k = len(distinct_vectors(PAIR_SETS[name]))
        assert p.shape == (2 ** k,) and prod.shape == (2 ** k, 4)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert set(np.unique(prod)) <= {-1, 1}

    @pytest.mark.parametrize("name", sorted(PAIR_SETS))
    def test_chi_square_against_sampled_patterns(self, name):
        # Pearson's test of 10**6 sampled patterns; cells expecting fewer than
        # 5 draws are pooled into the smallest cell that expects more.
        pairs = PAIR_SETS[name]
        p, _ = lhv._sign_pattern_law(pairs)
        n = 10 ** 6
        lam = SampledBellSign().sample_lambda(np.random.default_rng(47), n)
        observed = np.bincount(pattern_index(lam, distinct_vectors(pairs)), minlength=len(p)).astype(float)
        expected = n * p
        assert np.all(observed[p == 0.0] == 0.0)
        big = expected >= 5.0
        pool = np.flatnonzero(big)[np.argmin(expected[big])]
        expected[pool] += expected[~big].sum()
        observed[pool] += observed[~big].sum()
        stat = float(((observed[big] - expected[big]) ** 2 / expected[big]).sum())
        assert stat < CHI2_CRIT[int(big.sum()) - 1]

    @pytest.mark.parametrize("name", COPLANAR)
    def test_coplanar_law_equals_arc_lengths(self, name):
        vectors = distinct_vectors(PAIR_SETS[name])
        assert all(v.y == 0.0 for v in vectors)
        degrees = [math.degrees(math.atan2(v.x, v.z)) for v in vectors]
        np.testing.assert_allclose(lhv._sign_pattern_law(PAIR_SETS[name])[0], coplanar_pattern_law(degrees),
                                   rtol=0, atol=1e-14)

    def test_continuous_across_the_near_coplanar_ladder(self):
        flat, _ = lhv._sign_pattern_law(PAIR_SETS["coplanar"])
        for eps in NEAR_COPLANAR_EPS:
            p, _ = lhv._sign_pattern_law(PAIR_SETS[f"near-coplanar-{eps:g}"])
            assert np.abs(p - flat).max() <= eps

    @pytest.mark.parametrize("name", sorted(PAIR_SETS))
    def test_equals_the_triangle_cell_oracle(self, name):
        np.testing.assert_allclose(lhv._sign_pattern_law(PAIR_SETS[name])[0], triangle_cell_law(PAIR_SETS[name]),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed, count, coplanar", [(55, 3000, False), (56, 1000, True)])
    def test_equals_the_triangle_cell_oracle_on_random_quadruples(self, seed, count, coplanar):
        worst = max(np.abs(lhv._sign_pattern_law(pairs)[0] - triangle_cell_law(pairs)).max()
                    for pairs in random_quadruple_pairs(seed, count, coplanar))
        assert worst <= 1e-15

    def test_empty_patterns_are_exactly_zero_at_rank_three(self):
        # With sum_i c_i v_i = 0, no lambda has sign(v_i . lambda) = sign(c_i)
        # at every i, nor the opposite signs; both patterns must read exactly 0.
        # No cofactor near 0: rank 3, and sign(c) is the same from any solver.
        quadruples = [PAIR_SETS["general"], PAIR_SETS["orthogonal"]] + random_quadruple_pairs(57, 3000, False)
        for pairs in quadruples:
            c = cofactor_null_vector(distinct_vectors(pairs))
            assert np.abs(c).min() > 1e-9
            empty = int((c < 0.0) @ (1 << np.arange(4)))
            p, _ = lhv._sign_pattern_law(pairs)
            assert p[empty] == 0.0 and p[15 ^ empty] == 0.0

    def test_pair_products_are_those_of_the_responses(self):
        pairs = PAIR_SETS["general"]
        vectors = distinct_vectors(pairs)
        _, prod = lhv._sign_pattern_law(pairs)
        model = BellSignModel()
        lam = model.sample_lambda(np.random.default_rng(48), 2000)
        per_draw = np.column_stack([model.response_a(x, lam) * model.response_b(y, lam) for x, y in pairs])
        np.testing.assert_array_equal(prod[pattern_index(lam, vectors)], per_draw)


class TestExactSignRoute:
    """BellSignModel's estimates, drawn from the sign-pattern law, against the sampling route."""

    def test_draws_no_hidden_variable(self, monkeypatch):
        def refuse(self, rng, n=1):
            raise AssertionError("drew hidden variables")

        monkeypatch.setattr(BellSignModel, "sample_lambda", refuse)
        model, n = BellSignModel(), 10 ** 12
        s = random_settings(np.random.default_rng(49))
        assert chsh_lhv(model, s, n, seed=0).value <= 2.0
        assert estimate_correlation(model, s.a, s.b, n, seed=0).n_samples == n
        res = bell1964_check(model, s.a, s.b, s.b_prime, n, seed=0)
        assert res.lhs <= res.rhs

    @pytest.mark.parametrize("n", [2 ** 53 + 1, 2 ** 63 - 1])
    def test_exact_at_any_sample_count(self, n):
        # Float sums stop being exact integers above 2**53; the pattern
        # counts and the pair sums stay integers until the final division.
        rng = np.random.default_rng(50)
        for seed in range(20):
            s = random_settings(rng)
            est = chsh_lhv(BellSignModel(), s, n, seed=seed)
            assert est.value <= 2.0
            assert all(e.n_samples == n for e in est.correlations())
            res = bell1964_check(BellSignModel(), s.a, s.b, s.b_prime, n, seed=seed)
            assert res.lhs <= res.rhs
        # At Gisin's settings the patterns that give less than 2 have zero
        # area, but their computed probabilities round to about 1e-17, which
        # a draw of 2**63 can reach; so S is 2 only to that rounding here.
        est = chsh_lhv(BellSignModel(), gisin_settings(INV_SQRT2, INV_SQRT2), n, seed=1)
        assert 2.0 - 1e-15 <= est.value <= 2.0

    @pytest.mark.parametrize("n", [1000, MULTI_BLOCK_N])
    def test_error_is_deviation_of_the_combination(self, n):
        # The per-draw products rebuilt from the drawn pattern counts: each
        # pattern's row of pair products, repeated as often as it was drawn.
        rng = np.random.default_rng(37)
        for seed in range(3):
            s = random_settings(rng)
            est = chsh_lhv(BellSignModel(), s, n, seed=seed)
            p, prod = lhv._sign_pattern_law(s.pairs())
            draws = np.repeat(prod, np.random.default_rng(seed).multinomial(n, p), axis=0).astype(float)
            ab, abp, apb, apbp = draws.T
            s_x = 1.0 if est.e_ab.value >= est.e_abp.value else -1.0
            s_y = 1.0 if est.e_apbp.value + est.e_apb.value >= 0.0 else -1.0
            combination = s_x * (ab - abp) + s_y * (apbp + apb)
            assert est.value == pytest.approx(combination.mean(), abs=1e-12)
            assert abs(est.std_error - np.std(combination, ddof=1) / math.sqrt(n)) <= 1e-12
            for e, xy in zip(est.correlations(), draws.T):
                assert e.n_samples == n
                assert e.value == pytest.approx(xy.mean(), abs=1e-12)
                assert abs(e.std_error - np.std(xy, ddof=1) / math.sqrt(n)) <= 1e-12

    def test_chsh_lhv_agrees_with_sampling(self):
        rng = np.random.default_rng(51)
        quadruples = [gisin_settings(INV_SQRT2, INV_SQRT2)] + [random_settings(rng) for _ in range(24)]
        for seed, s in enumerate(quadruples):
            est = chsh_lhv(BellSignModel(), s, 50_000, seed=seed)
            ref = chsh_lhv(SampledBellSign(), s, 50_000, seed=1000 + seed)
            assert abs(est.value - ref.value) <= 5.0 * math.hypot(est.std_error, ref.std_error)
            for e, r in zip(est.correlations(), ref.correlations()):
                assert abs(e.value - r.value) <= 5.0 * math.hypot(e.std_error, r.std_error)

    def test_estimate_correlation_agrees_with_sampling(self):
        rng = np.random.default_rng(52)
        pairs = [(Z, make_unit_vector(t, 0.0)) for t in (math.pi / 6, math.pi / 3, 2 * math.pi / 3)]
        pairs += [(random_unit_vector(rng), random_unit_vector(rng)) for _ in range(3)]
        for seed, (a, b) in enumerate(pairs):
            est = estimate_correlation(BellSignModel(), a, b, 400_000, seed=seed)
            ref = estimate_correlation(SampledBellSign(), a, b, 400_000, seed=100 + seed)
            assert abs(est.value - ref.value) <= 5.0 * math.hypot(est.std_error, ref.std_error)
            theta = math.acos(max(-1.0, min(1.0, a.as_array() @ b.as_array())))
            assert abs(est.value - bell_sign_exact(theta)) <= 5.0 * est.std_error

    def test_bell1964_check_agrees_with_sampling(self):
        rng = np.random.default_rng(53)
        triples = [[make_unit_vector(t, 0.0) for t in rng.uniform(0.0, math.pi, 3)] for _ in range(5)]
        triples += [[random_unit_vector(rng) for _ in range(3)] for _ in range(5)]
        for seed, (a, b, b_prime) in enumerate(triples):
            est = bell1964_check(BellSignModel(), a, b, b_prime, 100_000, seed=seed)
            ref = bell1964_check(SampledBellSign(), a, b, b_prime, 100_000, seed=100 + seed)
            assert abs(est.lhs - ref.lhs) <= 5.0 * math.hypot(est.lhs_std_error, ref.lhs_std_error)
            assert abs(est.rhs - ref.rhs) <= 5.0 * math.hypot(est.rhs_std_error, ref.rhs_std_error)

    def test_subclasses_take_the_sampling_route(self):
        draws = []

        class Subclass(BellSignModel):
            def sample_lambda(self, rng, n=1):
                draws.append(n)
                return super().sample_lambda(rng, n)

        chsh_lhv(Subclass(), random_settings(np.random.default_rng(54)), _BLOCK + 1, seed=0)
        assert draws == [_BLOCK, 1]


def linear_pattern_index(model, lam):
    """Pattern index of each draw of a SampledLinearOutcomes: bit i set when item i answers -1."""
    minus = model.outcomes(lam) < 0.0
    return minus @ (1 << np.arange(minus.shape[1]))


def exact_linear_correlations(pairs):
    return np.array([-(x.as_array() @ y.as_array()) / 3.0 for x, y in pairs])


LINEAR_PAIR_SETS = {
    "correlation": ((_u, _v),),
    "equal-settings": ((_u, _u),),
    "b=b'": quadruple_pairs(_u, _v, _w, _w),
    "general": quadruple_pairs(*_general),
    "gisin": gisin_settings(INV_SQRT2, INV_SQRT2).pairs(),
    # Four nearby settings, where the four-fold term is largest.
    "clustered": quadruple_pairs(_u, tilted(_u, 0.2), tilted(_u, -0.2), tilted(_u, 0.4)),
    "bell1964": bell1964_pairs(_u, _v, _w),
    "bell1964-b=b'": bell1964_pairs(_u, _v, _v),
}


class TestLinearOutcomeLaw:
    """The exact law of AveragedLinearModel's +-1 outcome patterns against a sampling oracle."""

    @pytest.mark.parametrize("name", sorted(LINEAR_PAIR_SETS))
    def test_probabilities_form_a_distribution(self, name):
        pairs = LINEAR_PAIR_SETS[name]
        model = SampledLinearOutcomes(pairs)
        k = len(model.side_a) + len(model.side_b)
        p, prod = lhv._linear_outcome_law(pairs)
        assert p.shape == (2 ** k,) and prod.shape == (2 ** k, len(pairs))
        assert np.all(p > 0.0)
        assert abs(p.sum() - 1.0) <= 1e-15
        assert set(np.unique(prod)) <= {-1, 1}

    def test_correlators_are_exact(self):
        # 2,000 random quadruples, each also read as a pair and as a 1964 triple.
        rng = np.random.default_rng(63)
        for _ in range(2000):
            s = random_settings(rng)
            for pairs in (((s.a, s.b),), s.pairs(), bell1964_pairs(s.a, s.b, s.b_prime)):
                p, prod = lhv._linear_outcome_law(pairs)
                assert np.all(p > 0.0) and abs(p.sum() - 1.0) <= 1e-15
                np.testing.assert_allclose(p @ prod, exact_linear_correlations(pairs), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(LINEAR_PAIR_SETS))
    def test_equals_the_quadrature_oracle(self, name):
        pairs = LINEAR_PAIR_SETS[name]
        np.testing.assert_allclose(lhv._linear_outcome_law(pairs)[0], quadrature_linear_law(pairs), rtol=0, atol=1e-15)

    def test_equals_the_quadrature_oracle_on_random_quadruples(self):
        rng = np.random.default_rng(69)
        for _ in range(500):
            s = random_settings(rng)
            for pairs in (s.pairs(), bell1964_pairs(s.a, s.b, s.b_prime)):
                np.testing.assert_allclose(lhv._linear_outcome_law(pairs)[0], quadrature_linear_law(pairs),
                                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(LINEAR_PAIR_SETS))
    def test_chi_square_against_sampled_outcomes(self, name):
        # Pearson's test of 10**6 sampled patterns; every cell expects > 2e4.
        pairs = LINEAR_PAIR_SETS[name]
        p, _ = lhv._linear_outcome_law(pairs)
        model, n = SampledLinearOutcomes(pairs), 10 ** 6
        lam = model.sample_lambda(np.random.default_rng(65), n)
        observed = np.bincount(linear_pattern_index(model, lam), minlength=len(p))
        expected = n * p
        assert expected.min() > 2e4
        assert float(((observed - expected) ** 2 / expected).sum()) < CHI2_CRIT[len(p) - 1]

    def test_pair_products_are_those_of_the_outcomes(self):
        pairs = LINEAR_PAIR_SETS["bell1964"]
        model = SampledLinearOutcomes(pairs)
        _, prod = lhv._linear_outcome_law(pairs)
        lam = model.sample_lambda(np.random.default_rng(66), 2000)
        per_draw = np.column_stack([model.response_a(x, lam) * model.response_b(y, lam) for x, y in pairs])
        np.testing.assert_array_equal(prod[linear_pattern_index(model, lam)], per_draw)

    @pytest.mark.parametrize("n", [1000, MULTI_BLOCK_N])
    def test_error_is_deviation_of_the_combination(self, n):
        # The per-draw products rebuilt from the drawn pattern counts.
        rng = np.random.default_rng(37)
        for seed in range(3):
            s = random_settings(rng)
            est = chsh_lhv(AveragedLinearModel(), s, n, seed=seed)
            p, prod = lhv._linear_outcome_law(s.pairs())
            draws = np.repeat(prod, np.random.default_rng(seed).multinomial(n, p), axis=0).astype(float)
            ab, abp, apb, apbp = draws.T
            s_x = 1.0 if est.e_ab.value >= est.e_abp.value else -1.0
            s_y = 1.0 if est.e_apbp.value + est.e_apb.value >= 0.0 else -1.0
            combination = s_x * (ab - abp) + s_y * (apbp + apb)
            assert est.value == pytest.approx(combination.mean(), abs=1e-12)
            assert abs(est.std_error - np.std(combination, ddof=1) / math.sqrt(n)) <= 1e-12
            for e, xy in zip(est.correlations(), draws.T):
                assert e.n_samples == n
                assert e.value == pytest.approx(xy.mean(), abs=1e-12)
                assert abs(e.std_error - np.std(xy, ddof=1) / math.sqrt(n)) <= 1e-12

    def test_estimates_agree_with_sampled_outcomes(self):
        # The same +-1 statistics, so the estimates and their errors agree.
        rng = np.random.default_rng(67)
        quadruples = [gisin_settings(INV_SQRT2, INV_SQRT2)] + [random_settings(rng) for _ in range(9)]
        for seed, s in enumerate(quadruples):
            est = chsh_lhv(AveragedLinearModel(), s, 50_000, seed=seed)
            ref = chsh_lhv(SampledLinearOutcomes(s.pairs()), s, 50_000, seed=100 + seed)
            assert abs(est.value - ref.value) <= 5.0 * math.hypot(est.std_error, ref.std_error)
            assert abs(est.std_error - ref.std_error) <= 0.05 * ref.std_error
            for e, r in zip(est.correlations(), ref.correlations()):
                assert abs(e.value - r.value) <= 5.0 * math.hypot(e.std_error, r.std_error)
            a, b = s.a, s.b
            est = estimate_correlation(AveragedLinearModel(), a, b, 400_000, seed=seed)
            ref = estimate_correlation(SampledLinearOutcomes(((a, b),)), a, b, 400_000, seed=100 + seed)
            assert abs(est.value - ref.value) <= 5.0 * math.hypot(est.std_error, ref.std_error)
            assert abs(est.value - exact_linear_correlations(((a, b),))[0]) <= 5.0 * est.std_error

    def test_draws_no_hidden_variable_at_any_sample_count(self, monkeypatch):
        def refuse(self, rng, n=1):
            raise AssertionError("drew hidden variables")

        monkeypatch.setattr(AveragedLinearModel, "sample_lambda", refuse)
        rng = np.random.default_rng(68)
        for seed, n in enumerate([2 ** 53 + 1, 2 ** 63 - 1]):
            s = random_settings(rng)
            est = chsh_lhv(AveragedLinearModel(), s, n, seed=seed)
            assert est.value <= 2.0
            assert all(e.n_samples == n for e in est.correlations())
            for e, exact in zip(est.correlations(), exact_linear_correlations(s.pairs())):
                assert abs(e.value - exact) <= 5.0 * e.std_error
            with pytest.raises(PreconditionError):
                bell1964_check(AveragedLinearModel(), s.a, s.b, s.b_prime, n, seed=seed)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor-fault counts")
    def test_few_minor_faults_per_estimate(self):
        # Guards the exact route only: it makes no block-sized array, while a
        # subclass on the sampled route takes about 7,000-9,000 faults here.
        import resource

        settings = gisin_settings(INV_SQRT2, INV_SQRT2)
        chsh_lhv(AveragedLinearModel(), settings, 1_000_000, seed=0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        chsh_lhv(AveragedLinearModel(), settings, 1_000_000, seed=1)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


class TestBell1964:
    def test_coplanar_triple_holds(self):
        rng = np.random.default_rng(34)
        for seed in range(10):
            t_a, t_b, t_bp = rng.uniform(0.0, math.pi, 3)
            res = bell1964_check(
                BellSignModel(),
                make_unit_vector(t_a, 0.0),
                make_unit_vector(t_b, 0.0),
                make_unit_vector(t_bp, 0.0),
                200_000,
                seed=seed,
            )
            assert res.lhs <= res.rhs

    def test_equal_b_settings(self):
        b = make_unit_vector(0.7, 0.0)
        res = bell1964_check(BellSignModel(), Z, b, b, 100_000, seed=6)
        assert res.lhs <= res.rhs

    def test_orthogonal_and_antipodal_analytic(self):
        # a perpendicular to b and b' = -b: lhs -> 0, rhs -> 2 exactly.
        a = Z
        b = make_unit_vector(math.pi / 2, 0.0)
        b_prime = UnitVector3(-b.x, -b.y, -b.z)
        res = bell1964_check(BellSignModel(), a, b, b_prime, 400_000, seed=7)
        assert abs(res.lhs - 0.0) <= 5.0 * res.lhs_std_error
        assert abs(res.rhs - 2.0) <= 5.0 * res.rhs_std_error

    def test_sign_model_holds_exactly(self):
        # Perfect anticorrelation on one shared stream bounds the integer sums:
        # |sum AB - sum AB'| <= n + sum A(b')B(b), for any triple; the sampling
        # route's float sums of +-1 products are exact integers too.
        rng = np.random.default_rng(41)
        for seed in range(50):
            a, b, b_prime = (random_unit_vector(rng) for _ in range(3))
            for n in (1, 2, 3, 10_000):
                for model in (BellSignModel(), SampledBellSign()):
                    res = bell1964_check(model, a, b, b_prime, n, seed=seed)
                    assert res.lhs <= res.rhs

    def test_precondition_rejects_one_agreeing_draw(self):
        # Anticorrelated on all but one of 1e5 draws used to pass within 5 sigma.
        rng = np.random.default_rng(57)
        a, b, b_prime = (random_unit_vector(rng) for _ in range(3))
        with pytest.raises(PreconditionError):
            bell1964_check(FlippedOnceModel(), a, b, b_prime, 100_000, seed=9)
        model = FlippedOnceModel()
        model.drawn = 1  # the same stream with no flipped draw
        res = bell1964_check(model, a, b, b_prime, 100_000, seed=9)
        assert res.lhs <= res.rhs

    def test_precondition_rejects_averaged_model(self):
        # E(b', b') = -1/3 for the linear model: the reduction does not apply.
        with pytest.raises(PreconditionError):
            bell1964_check(AveragedLinearModel(), Z, Z, make_unit_vector(1.0, 0.0), 50_000, seed=8)


def normalised_cube(rng, n):
    """Points uniform in the cube, scaled onto the sphere: not uniform on it."""
    p = rng.uniform(-1.0, 1.0, (n, 3))
    return p / np.linalg.norm(p, axis=1)[:, None]


def chi_square_uniform(x, lo, hi, bins=50):
    """Pearson's statistic of x against the uniform law on [lo, hi]."""
    counts, _ = np.histogram(x, bins=bins, range=(lo, hi))
    expected = len(x) / bins
    return float(((counts - expected) ** 2 / expected).sum())


class TestHiddenVariableSampling:
    def test_sphere_sampling_is_uniform(self):
        # Moments of the disc-rejection sphere sampler: mean ~ 0, cov ~ I/3.
        rng = np.random.default_rng(35)
        lam = BellSignModel().sample_lambda(rng, 200_000)
        np.testing.assert_allclose(np.linalg.norm(lam, axis=1), 1.0, atol=1e-12)
        assert np.abs(lam.mean(axis=0)).max() < 0.01
        np.testing.assert_allclose(lam.T @ lam / len(lam), np.eye(3) / 3.0, atol=0.01)

    @pytest.mark.parametrize(
        "sampler, uniform",
        [(lhv._sample_sphere, True), (reference_sample_sphere, True), (normalised_cube, False)],
        ids=["disc", "trigonometric", "normalised-cube"],
    )
    def test_z_and_azimuth_are_uniform(self, sampler, uniform):
        # Uniform on the sphere makes z uniform on [-1, 1] (Archimedes) and
        # the azimuth uniform on [-pi, pi]; a normalised cube passes the
        # moment checks above but fails these.
        lam = sampler(np.random.default_rng(44), 200_000)
        stats = (
            chi_square_uniform(lam[:, 2], -1.0, 1.0),
            chi_square_uniform(np.arctan2(lam[:, 1], lam[:, 0]), -math.pi, math.pi),
        )
        if uniform:
            assert max(stats) < CHI2_49_CRIT
        else:
            assert min(stats) > CHI2_49_CRIT

    @pytest.mark.parametrize("n", [1, 2, 3, _BLOCK + 1])
    def test_sphere_sampler_rows_depend_on_seed_and_n_only(self, n):
        lam = lhv._sample_sphere(np.random.default_rng(45), n)
        assert lam.shape == (n, 3)
        np.testing.assert_allclose(np.linalg.norm(lam, axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(lam, lhv._sample_sphere(np.random.default_rng(45), n))

    def test_responses_bounded(self):
        rng = np.random.default_rng(36)
        for model in (BellSignModel(), AveragedLinearModel()):
            lam = model.sample_lambda(rng, 1000)
            for v in (model.response_a(Z, lam), model.response_b(Z, lam)):
                assert np.all(np.abs(v) <= 1.0 + 1e-12)


class ShortFirstRound:
    """A generator whose first request keeps only its first ``keep`` pairs inside the unit disc.

    Every double of the first request past column ``keep`` is 0.99, which
    maps to u = v = 0.98, outside the disc; later requests pass the seeded
    stream through.  It serves ``uniform`` as low + (high - low) * d, as
    numpy does, so both samplers see the same doubles.
    """

    def __init__(self, seed, keep):
        self.rng = np.random.default_rng(seed)
        self.keep = keep
        self.requests = 0

    def _doubles(self, shape):
        d = self.rng.random(shape)
        if self.requests == 0:
            d[..., self.keep:] = 0.99
        self.requests += 1
        return d

    def uniform(self, low, high, size):
        return low + (high - low) * self._doubles(size)


WORKSPACE_SIZES = [1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, MULTI_BLOCK_N]


class TestSamplingWorkspace:
    """A subclass of AveragedLinearModel, on the sampling route, against the allocating sampler."""

    @pytest.mark.parametrize("n", WORKSPACE_SIZES)
    def test_sums_and_moments_bit_identical(self, n):
        rng = np.random.default_rng(58)
        for seed in range(3):
            s = random_settings(rng)
            for pairs in (((s.a, s.b),), s.pairs(), bell1964_pairs(s.a, s.b, s.b_prime)):
                got = lhv._shared_stream_sums(SubclassedAveragedLinear(), pairs, n, seed)
                want = lhv._shared_stream_sums(SampledAveragedLinear(), pairs, n, seed)
                assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @pytest.mark.parametrize("n", WORKSPACE_SIZES)
    def test_estimates_bit_identical(self, n):
        rng = np.random.default_rng(59)
        new, old = SubclassedAveragedLinear(), SampledAveragedLinear()
        for seed in range(3):
            s = random_settings(rng)
            got, want = (chsh_lhv(model, s, n, seed=seed) for model in (new, old))
            fields = [(got.value, want.value), (got.std_error, want.std_error)]
            for g, w in zip(got.correlations(), want.correlations()):
                fields += [(g.value, w.value), (g.std_error, w.std_error)]
                assert g.n_samples == w.n_samples == n
            got, want = (estimate_correlation(model, s.a, s.b, n, seed=seed) for model in (new, old))
            fields += [(got.value, want.value), (got.std_error, want.std_error)]
            assert same_bits(*(np.array(side) for side in zip(*fields)))
            # E(b', b') = -1/3 here, so both routes refuse the 1964 reduction with the same E.
            messages = []
            for model in (new, old):
                with pytest.raises(PreconditionError) as err:
                    bell1964_check(model, s.a, s.b, s.b_prime, n, seed=seed)
                messages.append(str(err.value))
            assert messages[0] == messages[1]

    @pytest.mark.parametrize("n, keep", [(3, 1), (1000, 10), (_BLOCK, 5000)])
    def test_second_round_continues_at_the_offset(self, n, keep):
        for seed in range(5):
            want = allocating_sample_sphere(ShortFirstRound(seed, keep), n)
            rng = ShortFirstRound(seed, keep)
            got = lhv._sample_sphere(rng, n)
            assert rng.requests >= 2
            assert same_bits(got, want)

    def test_only_the_exact_class_skips_sample_lambda(self, monkeypatch):
        draws = []

        def spy(self, rng, n=1):
            draws.append(n)
            return lhv._sample_sphere(rng, n)

        class Subclass(AveragedLinearModel):
            pass

        monkeypatch.setattr(AveragedLinearModel, "sample_lambda", spy)
        s = random_settings(np.random.default_rng(61))
        chsh_lhv(AveragedLinearModel(), s, _BLOCK + 1, seed=0)
        assert draws == []
        chsh_lhv(Subclass(), s, _BLOCK + 1, seed=0)
        assert draws == [_BLOCK, 1]
