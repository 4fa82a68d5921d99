import math
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
from helpers import per_pair_chsh_lhv, random_settings, random_unit_vector, reference_sample_sphere

INV_SQRT2 = 1.0 / math.sqrt(2.0)
Z = UnitVector3(0, 0, 1)

# A stream of several full blocks and a one-draw tail.
MULTI_BLOCK_N = 131_073
assert MULTI_BLOCK_N > 2 * _BLOCK and MULTI_BLOCK_N % _BLOCK == 1

# Upper 1e-6 quantile of the chi-square distribution with 49 degrees of
# freedom: the pass mark of a 50-bin goodness-of-fit test.
CHI2_49_CRIT = 111.14


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


class NoDrawModel(ConstantModel):
    """Fails on any hidden-variable draw."""

    def sample_lambda(self, rng, n=1):
        raise AssertionError("drew hidden variables")


def shared_draws(model, n, seed):
    """The hidden variables of one (seed, n) stream, drawn block by block as the estimators do."""
    rng = np.random.default_rng(seed)
    return np.concatenate([model.sample_lambda(rng, min(_BLOCK, n - k)) for k in range(0, n, _BLOCK)])


SAMPLE_COUNT_CALLS = {
    "estimate_correlation": lambda model, n: estimate_correlation(model, Z, Z, n, seed=0),
    "chsh_lhv": lambda model, n: chsh_lhv(model, gisin_settings(INV_SQRT2, INV_SQRT2), n, seed=0),
    "bell1964_check": lambda model, n: bell1964_check(model, Z, Z, Z, n, seed=0),
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

    def test_numpy_integer_accepted(self, name):
        SAMPLE_COUNT_CALLS[name](BellSignModel(), np.int64(10))


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
            assert abs(est.value - (-a.dot(b) / 3.0)) <= 5.0 * est.std_error

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
        assert est.value <= 2.0 + 5.0 * est.std_error

    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_random_settings_respect_bound(self, name):
        rng = np.random.default_rng(33)
        model = BUILTIN_MODELS[name]()
        for seed in range(25):
            est = chsh_lhv(model, random_settings(rng), 50_000, seed=seed)
            assert est.value <= 2.0 + 5.0 * est.std_error

    def test_deterministic_for_seed(self):
        settings = gisin_settings(INV_SQRT2, INV_SQRT2)
        e1 = chsh_lhv(BellSignModel(), settings, 20_000, seed=4)
        e2 = chsh_lhv(BellSignModel(), settings, 20_000, seed=4)
        assert e1 == e2

    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    @pytest.mark.parametrize("n", [1000, MULTI_BLOCK_N])
    def test_error_is_deviation_of_the_combination(self, name, n):
        # The four estimates share lambda, so the error of S is the spread of
        # the per-draw combination, not the quadrature of the four errors.
        rng = np.random.default_rng(37)
        model = BUILTIN_MODELS[name]()
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

    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_agrees_with_trigonometric_sampler(self, name, monkeypatch):
        # Oracle: the same estimator with hidden variables drawn from z and the azimuth.
        rng = np.random.default_rng(42)
        quadruples = [gisin_settings(INV_SQRT2, INV_SQRT2)] + [random_settings(rng) for _ in range(4)]
        model = BUILTIN_MODELS[name]()
        new = [chsh_lhv(model, s, 200_000, seed=seed) for seed, s in enumerate(quadruples)]
        monkeypatch.setattr(lhv, "_sample_sphere", reference_sample_sphere)
        ref = [chsh_lhv(model, s, 200_000, seed=100 + seed) for seed, s in enumerate(quadruples)]
        for est, old in zip(new, ref):
            assert abs(est.value - old.value) <= 5.0 * math.hypot(est.std_error, old.std_error)
            for e, o in zip(est.correlations(), old.correlations()):
                assert abs(e.value - o.value) <= 5.0 * math.hypot(e.std_error, o.std_error)

    @pytest.mark.parametrize("n", [1, 2, 3, MULTI_BLOCK_N])
    def test_local_bound_holds_exactly(self, n):
        # +-1 responses give integer sums, so S <= 2 with no tolerance;
        # bounded real responses reach it up to float rounding.
        rng = np.random.default_rng(39)
        for seed in range(200):
            s = random_settings(rng)
            assert chsh_lhv(BellSignModel(), s, n, seed=seed).value <= 2.0
            assert chsh_lhv(AveragedLinearModel(), s, n, seed=seed).value <= 2.0 + 1e-12

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

    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_memory_stays_within_blocks(self, name):
        # Whole-run or 2**20-sample blocks would peak near 60 MiB here.
        settings = gisin_settings(INV_SQRT2, INV_SQRT2)
        tracemalloc.start()
        try:
            chsh_lhv(BUILTIN_MODELS[name](), settings, 1_000_000, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


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
            tol = 5.0 * math.hypot(res.lhs_std_error, res.rhs_std_error)
            assert res.lhs <= res.rhs + tol

    def test_equal_b_settings(self):
        b = make_unit_vector(0.7, 0.0)
        res = bell1964_check(BellSignModel(), Z, b, b, 100_000, seed=6)
        tol = 5.0 * math.hypot(res.lhs_std_error, res.rhs_std_error)
        assert res.lhs <= res.rhs + tol

    def test_orthogonal_and_antipodal_analytic(self):
        # a perpendicular to b and b' = -b: lhs -> 0, rhs -> 2 exactly.
        a = Z
        b = make_unit_vector(math.pi / 2, 0.0)
        b_prime = -b
        res = bell1964_check(BellSignModel(), a, b, b_prime, 400_000, seed=7)
        assert abs(res.lhs - 0.0) <= 5.0 * res.lhs_std_error
        assert abs(res.rhs - 2.0) <= 5.0 * res.rhs_std_error

    def test_sign_model_holds_exactly(self):
        # Perfect anticorrelation on one shared stream bounds the integer sums:
        # |sum AB - sum AB'| <= n + sum A(b')B(b), for any triple.
        rng = np.random.default_rng(41)
        for seed in range(50):
            a, b, b_prime = (random_unit_vector(rng) for _ in range(3))
            for n in (1, 2, 3, 10_000):
                res = bell1964_check(BellSignModel(), a, b, b_prime, n, seed=seed)
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
