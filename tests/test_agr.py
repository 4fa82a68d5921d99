import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from belllab import (
    CoincidenceCounts,
    ExperimentConfig,
    InsufficientDataError,
    JointProbabilities,
    MeasurementSettings,
    canonical_state,
    correlation_matrix,
    estimate_E,
    estimate_S,
    joint_probabilities,
    make_unit_vector,
    misalignment_for_damping,
    run_experiment,
    simulate_run,
)
from belllab.agr import mean_probabilities
from helpers import (four_cell_counts, kron_probabilities, per_pair_counts, random_state,
                     random_unit_vector)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
TSIRELSON = 2.0 * math.sqrt(2.0)

SINGLET = canonical_state(INV_SQRT2, -INV_SQRT2)

# Coplanar quadruple maximizing |S| for the singlet: E(theta) = -cos(theta)
# and the four relative angles are all pi/4.
OPTIMAL = MeasurementSettings(
    a=make_unit_vector(0.0, 0.0),
    b=make_unit_vector(math.pi / 4, 0.0),
    a_prime=make_unit_vector(math.pi / 2, 0.0),
    b_prime=make_unit_vector(3 * math.pi / 4, 0.0),
)


def ideal_config(n_pairs=100_000, seed=0, **kw):
    return ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=n_pairs, seed=seed, **kw)


class TestSimulateRun:
    def test_singlet_equal_settings_no_like_outcomes(self):
        cfg = ideal_config()
        n = make_unit_vector(0.9, 0.4)
        counts = simulate_run(cfg, n, n)
        assert counts.r_pp == 0
        assert counts.r_mm == 0
        assert counts.total() == cfg.n_pairs

    def test_tallies_complete_at_unit_efficiency(self):
        rng = np.random.default_rng(37)
        for seed in range(5):
            cfg = ExperimentConfig(
                state=random_state(rng), settings=OPTIMAL, n_pairs=10_000, seed=seed
            )
            counts = simulate_run(cfg, random_unit_vector(rng), random_unit_vector(rng))
            assert counts.total() == cfg.n_pairs

    def test_correlation_matches_quantum_oracle(self):
        cfg = ideal_config(n_pairs=1_000_000)
        b = make_unit_vector(math.pi / 3, 0.0)
        counts = simulate_run(cfg, make_unit_vector(0.0, 0.0), b)
        est = estimate_E(counts)
        assert abs(est.value - (-0.5)) <= 3.0 * est.std_error

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    @pytest.mark.parametrize("n_pairs", [1, 7, 10 ** 3, 10 ** 6, 10 ** 12, 2 ** 63 - 1])
    def test_unit_efficiency_is_the_four_cell_draw(self, n_pairs, sigma):
        # The unrecorded cell has probability exactly 0 here and comes first, so
        # numpy draws nothing for it.  Placed last, its float remainder leaks
        # pairs at n_pairs = 2**63 - 1 for about a quarter of random cases.
        rng = np.random.default_rng(43)
        for seed in range(20):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            cfg = ExperimentConfig(state=random_state(rng), settings=OPTIMAL, n_pairs=n_pairs,
                                   misalignment_sigma=sigma, seed=seed)
            counts = simulate_run(cfg, a, b, stream=seed % 4)
            assert counts == four_cell_counts(cfg, a, b, stream=seed % 4)
            assert counts.total() == n_pairs

    def test_efficiency_thins_counts(self):
        cfg = ideal_config(n_pairs=100_000, efficiency=0.5)
        counts = simulate_run(cfg, OPTIMAL.a, OPTIMAL.b)
        total = counts.total()
        # Coincidence probability eff^2 = 0.25; allow 5 sigma of binomial noise.
        expected = cfg.n_pairs * 0.25
        noise = 5.0 * math.sqrt(cfg.n_pairs * 0.25 * 0.75)
        assert abs(total - expected) <= noise

    def test_deterministic_counts(self):
        cfg = ideal_config(n_pairs=50_000, seed=12)
        c1 = simulate_run(cfg, OPTIMAL.a, OPTIMAL.b)
        c2 = simulate_run(cfg, OPTIMAL.a, OPTIMAL.b)
        assert c1 == c2

    def test_deterministic_with_misalignment(self):
        cfg = ideal_config(n_pairs=50_000, seed=12, misalignment_sigma=0.2, efficiency=0.8)
        assert simulate_run(cfg, OPTIMAL.a, OPTIMAL.b) == simulate_run(cfg, OPTIMAL.a, OPTIMAL.b)

    def test_streams_are_independent(self):
        cfg = ideal_config(n_pairs=50_000, seed=12)
        assert simulate_run(cfg, OPTIMAL.a, OPTIMAL.b, stream=0) != simulate_run(
            cfg, OPTIMAL.a, OPTIMAL.b, stream=1
        )

    def test_misaligned_probabilities_match_born_rule(self):
        # The mean-probability sampler and joint_probabilities agree: the
        # per-pair reference is checked against the mean probabilities in
        # TestMeanProbabilitySampler; here a tiny sigma must reproduce the
        # nominal Born frequencies.
        cfg = ideal_config(n_pairs=500_000, misalignment_sigma=1e-9)
        counts = simulate_run(cfg, OPTIMAL.a, OPTIMAL.b)
        jp = joint_probabilities(SINGLET, OPTIMAL.a, OPTIMAL.b)
        for got, expect in zip((counts.r_pp, counts.r_pm, counts.r_mp, counts.r_mm), jp.as_tuple()):
            se = math.sqrt(max(expect * (1 - expect), 1e-12) * cfg.n_pairs)
            assert abs(got - expect * cfg.n_pairs) <= 5.0 * se + 1.0

    def test_zero_pairs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=0)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=1, efficiency=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=1, efficiency=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=1, misalignment_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan])
    def test_non_finite_sigma_rejected(self, sigma):
        # An infinite width used to sample NaN orientations and report E = +1.
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=1, misalignment_sigma=sigma)

    def test_n_pairs_range(self):
        ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=2 ** 63 - 1)
        ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=np.int64(10))
        # 2**64 used to overflow inside the sampler instead of failing here.
        with pytest.raises(ValueError):
            ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=2 ** 63)
        for bad in (1e6, 10.0, True, "10"):
            with pytest.raises(TypeError):
                ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=bad)

    @pytest.mark.parametrize("field", ["efficiency", "misalignment_sigma"])
    @pytest.mark.parametrize("bad", [True, False, "0.5", None, 0.5 + 0j], ids=repr)
    def test_knob_must_be_real(self, field, bad):
        # efficiency=True and misalignment_sigma=True used to run as 1.0.
        with pytest.raises(TypeError, match=f"{field} must be a real number"):
            ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=100, **{field: bad})

    def test_seed_must_be_an_integer(self):
        # seed=0.5 used to construct and fail later inside numpy; seed=True ran silently as seed 1.
        cfg = ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=100, seed=np.int64(7))
        assert run_experiment(cfg).counts == run_experiment(replace(cfg, seed=7)).counts
        for bad in (0.5, 7.0, True, False):
            with pytest.raises(TypeError, match="seed must be an integer"):
                ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=100, seed=bad)


# Chi-square critical values at p = 1e-4 for 3 and 4 degrees of freedom
# (4 outcome bins, plus the "not recorded" bin when efficiency < 1).
CHI2_CRITICAL = {3: 21.10751, 4: 23.51274}


def chi_square(observed, probabilities, n):
    expected = [p * n for p in probabilities]
    assert min(expected) >= 5.0, "bins too sparse for the chi-square approximation"
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))


def binned(counts, cfg):
    """Outcome tallies plus the unrecorded pairs, when any can be lost."""
    bins = [counts.r_pp, counts.r_pm, counts.r_mp, counts.r_mm]
    return bins + [cfg.n_pairs - counts.total()] if cfg.efficiency < 1.0 else bins


def binned_probabilities(cfg, a, b):
    both = cfg.efficiency * cfg.efficiency
    p = [both * x for x in mean_probabilities(cfg, a, b).as_tuple()]
    return p + [1.0 - both] if cfg.efficiency < 1.0 else p


class TestMeanProbabilitySampler:
    """simulate_run against the per-pair pointing-error sampler it replaced."""

    CASES = [(0.1, 1.0), (0.4, 0.8), (0.9, 1.0), (1.5, 0.7)]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_per_pair_reference_fits_mean_probabilities(self, case):
        sigma, eff = self.CASES[case]
        rng = np.random.default_rng([40, case])
        state = random_state(rng)
        a, b = random_unit_vector(rng), random_unit_vector(rng)
        cfg = ExperimentConfig(state=state, settings=OPTIMAL, n_pairs=1_000_000,
                               efficiency=eff, misalignment_sigma=sigma, seed=case)
        p = binned_probabilities(cfg, a, b)
        critical = CHI2_CRITICAL[len(p) - 1]
        reference = per_pair_counts(cfg, a, b)
        assert chi_square(binned(reference, cfg), p, cfg.n_pairs) <= critical
        assert chi_square(binned(simulate_run(cfg, a, b), cfg), p, cfg.n_pairs) <= critical

    def test_zero_sigma_is_born_rule(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            state = random_state(rng)
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            cfg = ExperimentConfig(state=state, settings=OPTIMAL, n_pairs=1)
            got = mean_probabilities(cfg, a, b).as_tuple()
            assert got == pytest.approx(kron_probabilities(state, a, b).as_tuple(), abs=1e-14)

    def test_damped_mean_correlation(self):
        rng = np.random.default_rng(42)
        for i, sigma in enumerate((0.05, 0.3, 0.8, 1.2)):
            state = random_state(rng)
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            cfg = ExperimentConfig(state=state, settings=OPTIMAL, n_pairs=1_000_000,
                                   misalignment_sigma=sigma, seed=i)
            expected = math.exp(-sigma * sigma) * correlation_matrix(state, a, b)
            assert mean_probabilities(cfg, a, b).correlation() == pytest.approx(expected, abs=1e-14)
            est = estimate_E(per_pair_counts(cfg, a, b))
            assert abs(est.value - expected) <= 5.0 * est.std_error

    def test_trillion_pairs(self):
        for eff in (1.0, 0.8):
            cfg = ideal_config(n_pairs=10 ** 12, efficiency=eff, misalignment_sigma=0.3)
            counts = simulate_run(cfg, OPTIMAL.a, OPTIMAL.b)
            assert counts.n_pairs == 10 ** 12
            assert counts.total() <= counts.n_pairs
            assert eff < 1.0 or counts.total() == counts.n_pairs


class TestEstimateProbabilities:
    """Coincidence ratios R_ij / total estimate the Born probabilities."""

    def test_simulated_run_tracks_born_rule(self):
        cfg = ideal_config(n_pairs=1_000_000)
        b = make_unit_vector(math.pi / 4, 0.0)
        counts = simulate_run(cfg, OPTIMAL.a, b)
        got = [r / counts.total() for r in (counts.r_pp, counts.r_pm, counts.r_mp, counts.r_mm)]
        expect = joint_probabilities(SINGLET, OPTIMAL.a, b)
        for g, e in zip(got, expect.as_tuple()):
            se = math.sqrt(max(e * (1 - e) / cfg.n_pairs, 1e-15))
            assert abs(g - e) <= 3.0 * se + 1e-9


class TestEstimateE:
    def test_perfectly_correlated(self):
        assert estimate_E(CoincidenceCounts(500, 0, 0, 500, n_pairs=1000)).value == 1.0

    def test_perfectly_anticorrelated(self):
        assert estimate_E(CoincidenceCounts(0, 500, 500, 0, n_pairs=1000)).value == -1.0

    def test_singlet_run_at_pi_over_four(self):
        cfg = ideal_config(n_pairs=1_000_000)
        counts = simulate_run(cfg, OPTIMAL.a, make_unit_vector(math.pi / 4, 0.0))
        est = estimate_E(counts)
        assert abs(est.value - (-math.cos(math.pi / 4))) <= 3.0 * est.std_error

    def test_probability_identity(self):
        # P++ + P-- - P+- - P-+ from the probabilities equals E exactly.
        rng = np.random.default_rng(38)
        for _ in range(50):
            counts = CoincidenceCounts(*(int(k) for k in rng.integers(0, 1000, 4)), n_pairs=4000)
            if counts.total() == 0:
                continue
            jp = JointProbabilities(*(r / counts.total() for r in (counts.r_pp, counts.r_pm, counts.r_mp, counts.r_mm)))
            assert jp.correlation() == pytest.approx(estimate_E(counts).value, abs=1e-15)

    def test_zero_denominator_rejected(self):
        with pytest.raises(InsufficientDataError):
            estimate_E(CoincidenceCounts(0, 0, 0, 0, n_pairs=10))

    def test_converges_to_quantum_correlation(self):
        rng = np.random.default_rng(39)
        for seed in range(20):
            state = random_state(rng)
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            cfg = ExperimentConfig(state=state, settings=OPTIMAL, n_pairs=10_000_000, seed=seed)
            est = estimate_E(simulate_run(cfg, a, b))
            expected = correlation_matrix(state, a, b)
            assert abs(est.value - expected) <= 5.0 * max(est.std_error, 1e-6)


class TestEstimateS:
    def test_ideal_singlet_reaches_tsirelson(self):
        s = estimate_S(ideal_config(n_pairs=1_000_000, seed=2))
        assert abs(abs(s.value) - TSIRELSON) <= 3.0 * s.std_error

    def test_damped_run_brackets_lab_value(self):
        sigma = misalignment_for_damping(0.955)
        s = estimate_S(ideal_config(n_pairs=1_000_000, seed=2, misalignment_sigma=sigma))
        assert 2.65 <= abs(s.value) <= 2.75

    def test_product_state_obeys_local_bound(self):
        cfg = ExperimentConfig(
            state=canonical_state(1.0, 0.0),
            settings=OPTIMAL,
            n_pairs=200_000,
            seed=3,
        )
        s = estimate_S(cfg)
        assert abs(s.value) <= 2.0 + 3.0 * s.std_error

    def test_monotone_damping_ladder(self):
        sigmas = [0.0, 0.1, 0.2, 0.35, 0.5]
        values = []
        for sigma in sigmas:
            s = estimate_S(ideal_config(n_pairs=300_000, seed=4, misalignment_sigma=sigma))
            values.append((abs(s.value), s.std_error))
        for (hi, se_hi), (lo, se_lo) in zip(values, values[1:]):
            assert lo <= hi + 5.0 * math.hypot(se_hi, se_lo)

    def test_damping_factor_is_exponential_in_sigma_squared(self):
        sigma = 0.3
        s = estimate_S(ideal_config(n_pairs=1_000_000, seed=5, misalignment_sigma=sigma))
        expected = TSIRELSON * math.exp(-sigma * sigma)
        assert abs(abs(s.value) - expected) <= 5.0 * s.std_error

    def test_report_structure(self):
        report = run_experiment(ideal_config(n_pairs=10_000, seed=6))
        assert len(report.counts) == 4
        assert len(report.s.correlations()) == 4
        e = [c.value for c in report.s.correlations()]
        assert report.s.value == pytest.approx(e[0] - e[1] + e[2] + e[3], abs=1e-15)
        expected_se = math.sqrt(sum(c.std_error ** 2 for c in report.s.correlations()))
        assert report.s.std_error == pytest.approx(expected_se, rel=1e-12)

    def test_determinism_bitwise(self):
        cfg = ideal_config(n_pairs=20_000, seed=7, efficiency=0.9, misalignment_sigma=0.05)
        assert run_experiment(cfg).counts == run_experiment(cfg).counts


class TestExactRounding:
    def test_s_and_errors_round_once(self):
        # Oracle: Fraction arithmetic on the same counts, rounded once at the end.
        rng = np.random.default_rng(71)
        for seed in range(300):
            settings = MeasurementSettings(*(random_unit_vector(rng) for _ in range(4)))
            cfg = ExperimentConfig(state=random_state(rng), settings=settings,
                                   n_pairs=int(10 ** rng.uniform(1.0, 6.0)), efficiency=rng.uniform(0.5, 1.0),
                                   misalignment_sigma=rng.uniform(0.0, 0.5), seed=seed)
            counts = tuple(simulate_run(cfg, a, b, stream=i) for i, (a, b) in enumerate(settings.pairs()))
            if any(c.total() == 0 for c in counts):
                with pytest.raises(InsufficientDataError):
                    run_experiment(cfg)
                continue
            report = run_experiment(cfg)
            assert report.counts == counts
            e = [Fraction(c.r_pp + c.r_mm - c.r_pm - c.r_mp, c.total()) for c in counts]
            var = [(1 - x * x) / c.total() for x, c in zip(e, counts)]
            assert report.s.value == float(e[0] - e[1] + e[2] + e[3])
            assert report.s.std_error == math.sqrt(float(sum(var)))
            for got, x, v, c in zip(report.s.correlations(), e, var, counts):
                assert (got.value, got.std_error, got.n_samples) == (float(x), math.sqrt(float(v)), c.total())


class TestCoincidenceCounts:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CoincidenceCounts(-1, 0, 0, 0, n_pairs=10)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            CoincidenceCounts(6, 6, 0, 0, n_pairs=10)

    @pytest.mark.parametrize("counts", [
        (math.nan, 0, 0, 0, 1), (1.0, 0, 0, 0, 1), (True, 0, 0, 0, 1), (0, 0, 0, 1, 2.0), (0, 0, 0, 0, True),
    ], ids=["nan", "float", "bool", "float-pairs", "bool-pairs"])
    def test_rejects_non_integer(self, counts):
        # A bool count used to give E = 1.0 +- 0.0 silently.
        with pytest.raises(TypeError):
            CoincidenceCounts(*counts)

    @pytest.mark.parametrize("n_pairs", [0, -1])
    def test_rejects_no_pairs(self, n_pairs):
        with pytest.raises(ValueError):
            CoincidenceCounts(0, 0, 0, 0, n_pairs=n_pairs)

    def test_accepts_numpy_integers(self):
        assert CoincidenceCounts(*np.arange(4), n_pairs=np.int64(6)).total() == 6


class TestMisalignmentForDamping:
    def test_roundtrip(self):
        for d in (0.5, 0.9, 0.955, 1.0):
            sigma = misalignment_for_damping(d)
            assert math.exp(-sigma * sigma) == pytest.approx(d, rel=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            misalignment_for_damping(0.0)
        with pytest.raises(ValueError):
            misalignment_for_damping(1.2)
