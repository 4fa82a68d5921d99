import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from belllab import (
    BellSignModel,
    CorrelationEstimate,
    Correlators,
    JointProbabilities,
    TwoQubitState,
    UnitVector3,
    canonical_coefficients,
    canonical_state,
    chsh_combination,
    chsh_lhv,
    chsh_value,
    chsh_value_symmetric,
    correlation_closed,
    correlation_matrix,
    correlation_tensor,
    gisin_settings,
    joint_probabilities,
    make_unit_vector,
    max_violation,
)
from belllab.chsh import MeasurementSettings, born_probabilities
from belllab.regions import scan_region
from helpers import (
    edge_unit_vectors,
    kron_probabilities,
    projector,
    random_coefficients,
    random_settings,
    random_state,
    random_unit_vector,
    reference_born_probabilities,
    reference_tensor_observable,
    same_bits,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
TSIRELSON = 2.0 * math.sqrt(2.0)

X = UnitVector3(1, 0, 0)
Z = UnitVector3(0, 0, 1)


class TestProjector:
    def test_plus_z(self):
        np.testing.assert_array_equal(projector(Z), np.diag([1.0 + 0j, 0.0]))

    def test_minus_z(self):
        np.testing.assert_array_equal(projector(UnitVector3(-Z.x, -Z.y, -Z.z)), np.diag([0.0 + 0j, 1.0]))

    def test_plus_x(self):
        np.testing.assert_allclose(projector(X), 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_idempotent_hermitian_rank_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = projector(random_unit_vector(rng))
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
            evals = np.sort(np.linalg.eigvalsh(p))
            np.testing.assert_allclose(evals, [0.0, 1.0], atol=1e-12)


class TestCorrelationMatrix:
    def test_singlet_equal_settings(self):
        singlet = canonical_state(INV_SQRT2, -INV_SQRT2)
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = random_unit_vector(rng)
            assert correlation_matrix(singlet, n, n) == pytest.approx(-1.0, abs=1e-12)

    def test_bell_state_zz(self):
        state = canonical_state(INV_SQRT2, INV_SQRT2)
        assert correlation_matrix(state, Z, Z) == pytest.approx(-1.0, abs=1e-12)

    def test_bell_state_xx(self):
        state = canonical_state(INV_SQRT2, INV_SQRT2)
        assert correlation_matrix(state, X, X) == pytest.approx(1.0, abs=1e-12)

    def test_projector_route_agrees(self):
        # <(2a - 1) (x) (2b - 1)> expanded through the projectors.
        rng = np.random.default_rng(15)
        eye = np.eye(2)
        for _ in range(100):
            state, a, b = random_state(rng), random_unit_vector(rng), random_unit_vector(rng)
            op = np.kron(2.0 * projector(a) - eye, 2.0 * projector(b) - eye)
            expected = float(np.vdot(state.amplitudes, op @ state.amplitudes).real)
            assert correlation_matrix(state, a, b) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(16)
        for _ in range(500):
            val = correlation_matrix(random_state(rng), random_unit_vector(rng), random_unit_vector(rng))
            assert abs(val) <= 1.0 + 1e-12


class TestCorrelationClosed:
    def test_z_settings_any_coefficients(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            c1, c2 = random_coefficients(rng)
            assert correlation_closed(c1, c2, Z, Z) == pytest.approx(-1.0, abs=1e-12)

    def test_singlet_reduces_to_minus_dot(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            got = correlation_closed(INV_SQRT2, -INV_SQRT2, a, b)
            assert got == pytest.approx(-(a.as_array() @ b.as_array()), abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            correlation_closed(1.0, 1.0, Z, Z)

    def test_agrees_with_matrix_route(self):
        rng = np.random.default_rng(19)
        for _ in range(2000):
            c1, c2 = random_coefficients(rng)
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            closed = correlation_closed(c1, c2, a, b)
            matrix = correlation_matrix(canonical_state(c1, c2), a, b)
            assert abs(closed - matrix) < 1e-12


class TestJointProbabilities:
    def test_singlet_perfect_anticorrelation(self):
        jp = joint_probabilities(canonical_state(INV_SQRT2, -INV_SQRT2), Z, Z)
        assert jp.as_tuple() == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=1e-12)

    def test_completeness(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            jp = joint_probabilities(random_state(rng), random_unit_vector(rng), random_unit_vector(rng))
            assert sum(jp.as_tuple()) == pytest.approx(1.0, abs=1e-12)

    def test_bell_state_xx_born_oracle(self):
        # Explicit 4x4 projector expectation, independently assembled.
        state = canonical_state(INV_SQRT2, INV_SQRT2)
        psi = state.amplitudes
        pi_plus = 0.5 * (np.eye(2) + np.array([[0, 1], [1, 0]], dtype=complex))
        pi_minus = np.eye(2) - pi_plus
        expected = tuple(
            float(np.vdot(psi, np.kron(pa, pb) @ psi).real)
            for pa in (pi_plus, pi_minus)
            for pb in (pi_plus, pi_minus)
        )
        assert expected == pytest.approx((0.5, 0.0, 0.0, 0.5), abs=1e-12)
        assert joint_probabilities(state, X, X).as_tuple() == pytest.approx(expected, abs=1e-12)

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            state = random_state(rng)
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            assert joint_probabilities(state, a, b).as_tuple() == pytest.approx(
                kron_probabilities(state, a, b).as_tuple(), abs=1e-14
            )

    def test_correlation_consistency(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            state = random_state(rng)
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            jp = joint_probabilities(state, a, b)
            assert jp.correlation() == pytest.approx(
                correlation_matrix(state, a, b), abs=1e-12
            )


class TestJointProbabilitiesValidation:
    # NaN used to pass both checks: JointProbabilities(nan, nan, nan, nan) constructed.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(4))
    def test_non_finite_rejected(self, field, bad):
        ps = [0.25] * 4
        ps[field] = bad
        with pytest.raises(ValueError):
            JointProbabilities(*ps)

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError):
            JointProbabilities(math.nan, math.nan, math.nan, math.nan)

    def test_edges_accepted(self):
        assert JointProbabilities(1.0, 0.0, 0.0, 0.0).correlation() == 1.0
        assert JointProbabilities(0.0, 0.5, 0.5, -0.0).correlation() == -1.0


def _exact_path_states(rng) -> list[TwoQubitState]:
    """Random complex states, signed canonical states, and states whose Born
    probabilities at axis-aligned settings are exactly 0."""
    states = [random_state(rng) for _ in range(40)]
    states += [canonical_state(*random_coefficients(rng)) for _ in range(20)]
    states += [canonical_state(INV_SQRT2, -INV_SQRT2), canonical_state(INV_SQRT2, INV_SQRT2)]
    states += [TwoQubitState(np.array(a)) for a in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j])]
    return states


class TestBitIdentity:
    """The exact path against its generic-numpy forms in helpers: the same bits, signed zeros included."""

    def test_correlation_matrix_and_chsh_value(self):
        rng = np.random.default_rng(43)
        edge = edge_unit_vectors()
        for i, state in enumerate(_exact_path_states(rng)):
            quads = [random_settings(rng) for _ in range(4)]
            quads += [MeasurementSettings(*(edge[(7 * i + 5 * j + k) % len(edge)] for k in range(4)))
                      for j in range(12)]
            psi = state.amplitudes
            for s in quads:
                want = [float(np.vdot(psi, reference_tensor_observable(a, b) @ psi).real)
                        for a, b in s.pairs()]
                got = [correlation_matrix(state, a, b) for a, b in s.pairs()]
                assert same_bits(got, want), s
                assert same_bits(chsh_value(state, s), chsh_combination(want, "bell"))
                assert same_bits(chsh_value_symmetric(state, s), chsh_combination(want, "symmetric"))

    def test_born_probabilities(self):
        rng = np.random.default_rng(44)
        edge = edge_unit_vectors()
        exact_zeros = 0
        for state in _exact_path_states(rng):
            tensor = correlation_tensor(state)
            vectors = edge + [random_unit_vector(rng) for _ in range(10)]
            for a in vectors:
                b = random_unit_vector(rng)
                k = rng.uniform(0.0, 1.0)
                for x, y in ((a, b), (a, a), (a, UnitVector3(-a.x, -a.y, -a.z)), (a, UnitVector3(-b.x, -b.y, -b.z))):
                    for scale in (1.0, k):
                        xv, yv = scale * x.as_array(), scale * y.as_array()
                        got = born_probabilities(tensor, xv, yv).as_tuple()
                        assert same_bits(got, reference_born_probabilities(tensor, xv, yv).as_tuple())
                        exact_zeros += got.count(0.0)
                got = joint_probabilities(state, a, b).as_tuple()
                assert same_bits(got, reference_born_probabilities(tensor, a.as_array(), b.as_array()).as_tuple())
        assert exact_zeros > 100


def _product_state(rng) -> TwoQubitState:
    qa = rng.normal(size=2) + 1j * rng.normal(size=2)
    qb = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps = np.kron(qa / np.linalg.norm(qa), qb / np.linalg.norm(qb))
    return TwoQubitState(amps)


class TestChshValue:
    def test_product_states_respect_local_bound(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            val = chsh_value(_product_state(rng), random_settings(rng))
            assert val <= 2.0 + 1e-9

    def test_maximally_entangled_reaches_tsirelson(self):
        state = canonical_state(INV_SQRT2, INV_SQRT2)
        val = chsh_value(state, gisin_settings(INV_SQRT2, INV_SQRT2))
        assert val == pytest.approx(TSIRELSON, abs=1e-12)

    def test_matches_max_violation_at_gisin_settings(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            c1, c2 = random_coefficients(rng)
            val = chsh_value(canonical_state(c1, c2), gisin_settings(c1, c2))
            assert abs(val - max_violation(c1, c2)) < 1e-9

    def test_strict_violation_whenever_entangled(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            c1, c2 = random_coefficients(rng)
            assert chsh_value(canonical_state(c1, c2), gisin_settings(c1, c2)) > 2.0

    def test_symmetric_variant_coincides_at_gisin_settings(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            c1, c2 = random_coefficients(rng)
            state, s = canonical_state(c1, c2), gisin_settings(c1, c2)
            assert chsh_value_symmetric(state, s) == pytest.approx(
                chsh_value(state, s), abs=1e-12
            )

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            state = random_state(rng)
            phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
            shifted = TwoQubitState(phase * state.amplitudes)
            s = random_settings(rng)
            assert abs(chsh_value(state, s) - chsh_value(shifted, s)) < 1e-12

    def test_first_term_identity_at_alpha_zero(self):
        # With a along z and b, b' in the xz-plane, |P(a,b) - P(a,b')| is
        # |cos(beta) - cos(beta')| regardless of the coefficients.
        rng = np.random.default_rng(27)
        for _ in range(100):
            c1, c2 = random_coefficients(rng)
            state = canonical_state(c1, c2)
            beta, beta_p = rng.uniform(0, math.pi, 2)
            b = make_unit_vector(beta, 0.0)
            bp = make_unit_vector(beta_p, 0.0)
            got = abs(correlation_matrix(state, Z, b) - correlation_matrix(state, Z, bp))
            assert got == pytest.approx(abs(math.cos(beta) - math.cos(beta_p)), abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_tsirelson_bound_property(self, seed):
        rng = np.random.default_rng(seed)
        val = chsh_value(random_state(rng), random_settings(rng))
        assert val <= TSIRELSON + 1e-6


class TestChshCombination:
    P = (0.3, 0.9, -0.2, -0.5)

    def test_forms(self):
        assert chsh_combination(self.P, "bell") == abs(0.3 - 0.9) + -0.2 + -0.5
        assert chsh_combination(self.P, "symmetric") == abs(0.3 - 0.9) + abs(-0.5 + -0.2)
        assert chsh_combination(self.P, "signed") == 0.3 - 0.9 + -0.2 + -0.5

    def test_arrays_elementwise(self):
        rng = np.random.default_rng(23)
        p = rng.uniform(-1.0, 1.0, size=(4, 5))
        for form in ("bell", "symmetric", "signed"):
            got = chsh_combination(p, form)
            assert got.shape == (5,)
            assert list(got) == [chsh_combination(p[:, i].tolist(), form) for i in range(5)]

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="form"):
            chsh_combination(self.P, "lab")

    def test_pair_order(self):
        s = gisin_settings(0.8, 0.6)
        assert s.pairs() == ((s.a, s.b), (s.a, s.b_prime), (s.a_prime, s.b), (s.a_prime, s.b_prime))


FORMS = ("bell", "symmetric", "signed")
CORRELATION = st.floats(-1.0, 1.0)
COUNT = st.integers(1, 10 ** 12)


def exact(values, form):
    """A record of exact correlations: floats over 1, zero covariance."""
    return Correlators(tuple(values), (1,) * 4, ((0,) * 4,) * 4, 1, form)


class TestCorrelators:
    @given(st.tuples(*[CORRELATION] * 4), st.sampled_from(FORMS))
    @example((-0.0, 0.0, -0.0, -0.0), "bell")
    @example((0.5, 0.5, -0.0, -0.0), "symmetric")
    @example((0.1, 0.2, 0.3, 0.4), "symmetric")
    def test_float_record_reproduces_chsh_combination(self, p, form):
        c = exact(p, form)
        assert same_bits(c.value, chsh_combination(p, form))
        assert c.std_error == 0.0
        assert [e.value for e in c.correlations()] == list(p)

    @given(st.lists(COUNT, min_size=4, max_size=4), st.sampled_from(FORMS), st.data())
    def test_sign_row_of_an_integer_record_is_its_value(self, totals, form, data):
        # R++ + R-- - R+- - R-+ = total - 2 (R+- + R-+) over each run's total.
        nums = [t - 2 * data.draw(st.integers(0, t)) for t in totals]
        c = Correlators(tuple(nums), tuple(totals), ((0,) * 4,) * 4, 1, form)
        e = [Fraction(x, t) for x, t in zip(nums, totals)]
        assert c.combination(c.signs(form)) == (c.value, 0.0)
        assert c.value == float(chsh_combination(e, form))

    def test_rows(self):
        c = exact((0.3, 0.9, -0.2, -0.5), "bell")
        assert c.signs("bell") == (-1, 1, 1, 1)
        assert c.signs("symmetric") == (-1, 1, -1, -1)
        assert c.signs("signed") == (1, -1, 1, 1)

    def test_a_zero_modulus_argument_takes_the_plus_sign(self):
        assert exact((-0.0, 0.0, -0.0, 0.0), "symmetric").signs("symmetric") == (1, -1, 1, 1)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="form"):
            exact((0.3, 0.9, -0.2, -0.5), "lab")

    def test_integer_record_rounds_once(self):
        # 1/3 - 1/7 + 1/11 + 1/13 over unequal denominators, and a covariance of exact ints.
        zero = (0, 0, 0, 0)
        cov = ((2, 0, 0, 0), zero, (0, 0, 1, 0), (0, 0, 0, 3))
        c = Correlators((1, 1, 1, 1), (3, 7, 11, 13), cov, 10 ** 20 + 1, "signed")
        exact = Fraction(1, 3) - Fraction(1, 7) + Fraction(1, 11) + Fraction(1, 13)
        assert (c.value, c.std_error) == (float(exact), math.sqrt(float(Fraction(6, 10 ** 20 + 1))))
        assert c.combination((1, -1, 1, 1)) == (c.value, c.std_error)
        assert [e.n_samples for e in c.correlations()] == [3, 7, 11, 13]
        assert [e.value for e in c.correlations()] == [1 / 3, 1 / 7, 1 / 11, 1 / 13]
        assert [e.std_error for e in c.correlations()] == [
            math.sqrt(float(Fraction(v, 10 ** 20 + 1))) for v in (2, 0, 1, 3)]

    def test_a_given_s_is_kept(self):
        # dataclasses.replace(record, s_value=...) shifts S alone, as the benchmark's check test does.
        c = exact((0.3, 0.9, -0.2, -0.5), "bell")
        shifted = dataclasses.replace(c, s_value=c.value + 0.5)
        assert (shifted.value, shifted.s_value) == (c.value + 0.5, c.value + 0.5)
        assert (shifted.std_error, shifted.correlations()) == (c.std_error, c.correlations())

    ZERO4 = ((0,) * 4,) * 4

    @pytest.mark.parametrize("fields", [
        ((1, 0, 0, 1), (2,) * 4, ((0,) * 3,) * 3, 1, "signed"),
        ((1, 0, 0, 1), (2,) * 3, ZERO4, 1, "signed"),
        ((1, 0, 0, 1), (2, 2, -2, 2), ZERO4, 1, "signed"),
        ((1, 0, 0, 1), (2, 2, 0, 2), ZERO4, 1, "signed"),
        ((1, 0, 0, 1), (2,) * 4, ZERO4, 0, "signed"),
        ((1, 0, 0, 1), (2,) * 4, ZERO4, -8, "signed"),
        ((1, 0, 0, 1), (2, 2, 2.0, 2), ZERO4, 1, "signed"),
        ((1, 0, 0, 1), (2, True, 2, 2), ZERO4, 1, "signed"),
        ((1, 0, 0, 1), (2, np.int64(2), 2, 2), ZERO4, 1, "signed"),
        ((1, 0, 0, 1), (2,) * 4, ZERO4, 1.0, "signed"),
        ((1, 0, 0, 1), (2,) * 4, ((0,) * 4,) * 3 + ((0,) * 3,), 1, "signed"),
        ((), (), (), 1, "signed"),
        ((3,), (5,), ((16,),), 125, "lab"),
        ((3,), (5,), ((16,),), 125, None),
    ], ids=["3x3-covariance", "3-denominators", "negative-denominator", "zero-denominator",
            "zero-cov-denominator", "negative-cov-denominator", "float-denominator", "bool-denominator",
            "numpy-denominator", "float-cov-denominator", "ragged-covariance", "empty", "one-pair-unknown-form",
            "one-pair-no-form"])
    def test_malformed_record_rejected(self, fields):
        # These reported a std_error from a 3x3 block, raised StopIteration or ZeroDivisionError, or were accepted.
        with pytest.raises(ValueError, match="Correlators needs"):
            Correlators(*fields)

    @pytest.mark.parametrize("k", [1, 4])
    def test_sampled_float_record_accepted(self, k):
        cov = tuple(tuple(0.25 * (i == j) for j in range(k)) for i in range(k))
        c = Correlators((0.5,) * k, (7,) * k, cov, 49, "symmetric")
        assert [e.value for e in c.correlations()] == [0.5 / 7] * k

    def test_a_single_correlation_has_no_s(self):
        c = Correlators((3,), (5,), ((16,),), 125, "signed")
        assert (c.value, c.std_error) == (None, None)
        assert c.correlations() == (CorrelationEstimate(0.6, math.sqrt(16 / 125), 5),)


class TestGisinSettings:
    def test_half_product_angles(self):
        s = gisin_settings(INV_SQRT2, INV_SQRT2)  # |c1 c2| = 1/2
        assert s.b.z == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
        assert s.b.x == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
        assert s.b_prime.z == pytest.approx(math.cos(3 * math.pi / 4), abs=1e-12)
        assert s.b_prime.x == pytest.approx(math.sin(3 * math.pi / 4), abs=1e-12)

    def test_trig_identity(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            c1, c2 = random_coefficients(rng)
            s = gisin_settings(c1, c2)
            assert s.b.x ** 2 + s.b.z ** 2 == pytest.approx(1.0, abs=1e-12)
            assert s.b.x == pytest.approx(s.b_prime.x, abs=1e-12)  # sin beta = sin beta'
            assert s.b.z == pytest.approx(-s.b_prime.z, abs=1e-12)

    def test_negative_product_flips_a_prime(self):
        s = gisin_settings(INV_SQRT2, -INV_SQRT2)
        assert (s.a_prime.x, s.a_prime.y, s.a_prime.z) == (-1.0, 0.0, 0.0)
        s = gisin_settings(INV_SQRT2, INV_SQRT2)
        assert (s.a_prime.x, s.a_prime.y, s.a_prime.z) == (1.0, 0.0, 0.0)

    def test_positive_sines(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            c1, c2 = random_coefficients(rng)
            s = gisin_settings(c1, c2)
            assert s.b.x > 0.0 and s.b_prime.x > 0.0
            assert s.b.z > 0.0 > s.b_prime.z  # beta' in (pi/2, pi)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            gisin_settings(0.9, 0.9)

    # The whole entanglement axis, concurrence 0 (product states, signed zeros included) to 1.
    @given(st.floats(0.0, 1.0), st.sampled_from([1, -1]), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @example(0.0, 1, False, 0)
    @example(0.0, -1, True, 1)
    @example(1.0, -1, False, 2)
    @settings(max_examples=100, deadline=None)
    def test_attains_max_violation_on_whole_axis(self, conc, sign, swap, seed):
        c1, c2 = canonical_coefficients(conc, sign)
        if swap:  # c1 = +-0.0 as well
            c1, c2 = c2, c1
        s = gisin_settings(c1, c2)
        bound = max_violation(c1, c2)
        assert chsh_value(canonical_state(c1, c2), s) == pytest.approx(bound, abs=1e-12)
        assert bound >= 2.0
        if c1 * c2 == 0.0:
            assert bound == 2.0
        else:  # above 2 wherever 4*(c1*c2)^2 survives the rounding of 1 + 4*(c1*c2)^2
            assert bound > 2.0 or abs(c1 * c2) < 1e-7
        assert chsh_lhv(BellSignModel(), s, 1_000_000, seed).value <= 2.0


class TestMaxViolation:
    def test_maximal_entanglement(self):
        assert max_violation(INV_SQRT2, INV_SQRT2) == pytest.approx(TSIRELSON, abs=1e-12)
        assert max_violation(INV_SQRT2, -INV_SQRT2) == pytest.approx(TSIRELSON, abs=1e-12)

    def test_separable_limit(self):
        assert max_violation(1.0, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_product_point_four_value(self):
        # c1*c2 = 0.4 -> 2*sqrt(1.64)
        c1 = math.sqrt((1.0 + 0.6) / 2.0)
        c2 = math.sqrt((1.0 - 0.6) / 2.0)
        assert c1 * c2 == pytest.approx(0.4, abs=1e-12)
        assert max_violation(c1, c2) == pytest.approx(2.0 * math.sqrt(1.64), abs=1e-12)

    def test_grid_sweep_oracle_at_product_point_four(self):
        # Dense sweep over (beta, beta') with alpha = 0, alpha' = pi/2 must
        # approach but never exceed the closed-form maximum.
        c1 = math.sqrt((1.0 + 0.6) / 2.0)
        c2 = math.sqrt((1.0 - 0.6) / 2.0)
        beta = np.linspace(0.0, math.pi, 1000)[:, None]
        beta_p = np.linspace(0.0, math.pi, 1000)[None, :]
        p_ab = -np.cos(beta) + 0.0 * beta_p
        p_abp = -np.cos(beta_p) + 0.0 * beta
        p_apb = 2 * c1 * c2 * np.sin(beta) + 0.0 * beta_p
        p_apbp = 2 * c1 * c2 * np.sin(beta_p) + 0.0 * beta
        sweep = np.abs(p_ab - p_abp) + p_apb + p_apbp
        expected = 2.0 * math.sqrt(1.64)
        assert sweep.max() <= expected + 1e-9
        assert expected - sweep.max() < 1e-4
        assert max_violation(c1, c2) == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            c1, c2 = random_coefficients(rng)
            assert 2.0 <= max_violation(c1, c2) <= TSIRELSON + 1e-12


class TestNonFiniteCoefficients:
    # NaN used to pass every normalization check: max_violation(nan, 0.5) returned nan.
    @pytest.mark.parametrize("c1, c2", [(math.nan, 0.5), (0.5, math.nan)])
    @pytest.mark.parametrize("call", [
        max_violation,
        gisin_settings,
        canonical_state,
        lambda c1, c2: correlation_closed(c1, c2, Z, Z),
    ], ids=["max_violation", "gisin_settings", "canonical_state", "correlation_closed"])
    def test_nan_rejected(self, call, c1, c2):
        with pytest.raises(ValueError, match="not normalized"):
            call(c1, c2)


class TestNonRealCoefficients:
    # 1j and sqrt(2) pass the sum c1^2 + c2^2 = 1: scan_region used to return a complex grid.
    @pytest.mark.parametrize("c1, c2", [(1j, math.sqrt(2.0)), (math.sqrt(2.0), 1j),
                                        (np.complex128(INV_SQRT2), INV_SQRT2)])
    @pytest.mark.parametrize("call", [
        max_violation,
        gisin_settings,
        canonical_state,
        lambda c1, c2: correlation_closed(c1, c2, Z, Z),
        lambda c1, c2: scan_region("xy", c1, c2, 16),
    ], ids=["max_violation", "gisin_settings", "canonical_state", "correlation_closed", "scan_region"])
    def test_complex_rejected(self, call, c1, c2):
        with pytest.raises(TypeError, match="must be real"):
            call(c1, c2)

    @pytest.mark.parametrize("c1, c2", [(np.float64(0.6), 0.8), (np.float32(1.0), 0.0), (0, 1), (np.int64(1), 0)])
    def test_real_numpy_and_integer_scalars_accepted(self, c1, c2):
        assert correlation_closed(c1, c2, Z, Z) == -1.0
