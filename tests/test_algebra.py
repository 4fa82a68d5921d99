import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belllab import (
    SchmidtForm,
    TwoQubitState,
    UnitVector3,
    canonical_coefficients,
    canonical_state,
    concurrence,
    correlation_tensor,
    make_unit_vector,
    pauli_dot,
    schmidt_decompose,
    tensor_observable,
)
from belllab.algebra import ENTANGLEMENT_TOL, check_count
from helpers import (
    edge_unit_vectors,
    random_state,
    random_unit_vector,
    random_unitary2,
    reconstruct,
    reference_pauli_dot,
    reference_schmidt_decompose,
    reference_tensor_observable,
    same_bits,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

angles = st.floats(-10.0, 10.0, allow_nan=False)


class TestUnitVector:
    def test_north_pole(self):
        v = make_unit_vector(0.0, 0.0)
        assert (v.x, v.y, v.z) == (0.0, 0.0, 1.0)

    def test_equator_x(self):
        v = make_unit_vector(math.pi / 2, 0.0)
        assert v.x == pytest.approx(1.0, abs=1e-15)
        assert v.y == 0.0
        assert v.z == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("beta", [0.3, 1.1, 2.5])
    def test_polar_angle_in_xz_plane(self, beta):
        v = make_unit_vector(beta, 0.0)
        assert v.x == pytest.approx(math.sin(beta), abs=1e-15)
        assert v.y == 0.0
        assert v.z == pytest.approx(math.cos(beta), abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            make_unit_vector(bad, 0.0)
        with pytest.raises(ValueError):
            make_unit_vector(0.0, bad)

    def test_non_unit_components_rejected(self):
        with pytest.raises(ValueError):
            UnitVector3(1.0, 1.0, 0.0)

    @given(angles, angles)
    def test_norm_is_one(self, theta, phi):
        v = make_unit_vector(theta, phi)
        assert abs(np.linalg.norm(v.as_array()) - 1.0) < 1e-12


class TestPauliDot:
    def test_z_axis(self):
        np.testing.assert_array_equal(
            pauli_dot(UnitVector3(0, 0, 1)), np.diag([1.0 + 0j, -1.0])
        )

    def test_x_axis(self):
        np.testing.assert_array_equal(
            pauli_dot(UnitVector3(1, 0, 0)), np.array([[0, 1], [1, 0]], dtype=complex)
        )

    def test_squares_to_identity_diagonal_direction(self):
        m = pauli_dot(UnitVector3(INV_SQRT2, 0.0, INV_SQRT2))
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-14)

    def test_hermitian_traceless_involutory(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = pauli_dot(random_unit_vector(rng))
            np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
            assert abs(np.trace(m)) < 1e-12
            np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-12)

    def test_product_identity(self):
        # (a.sigma)(b.sigma) = (a.b) I + i (a x b).sigma
        rng = np.random.default_rng(2)
        from belllab import IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z

        for _ in range(200):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            lhs = pauli_dot(a) @ pauli_dot(b)
            cx = np.cross(a.as_array(), b.as_array())
            rhs = (a.as_array() @ b.as_array()) * IDENTITY2 + 1j * (cx[0] * SIGMA_X + cx[1] * SIGMA_Y + cx[2] * SIGMA_Z)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestTensorObservable:
    def test_zz_diagonal(self):
        got = tensor_observable(UnitVector3(0, 0, 1), UnitVector3(0, 0, 1))
        np.testing.assert_array_equal(got, np.diag([1.0 + 0j, -1.0, -1.0, 1.0]))

    def test_xx_antidiagonal(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
        got = tensor_observable(UnitVector3(1, 0, 0), UnitVector3(1, 0, 0))
        np.testing.assert_array_equal(got, expected)

    def test_entrywise_closed_form(self):
        # Independent entry-by-entry construction of (a.sigma) (x) (b.sigma).
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            ax, ay, az = a.x, a.y, a.z
            bx, by, bz = b.x, b.y, b.z
            am, ap = ax - 1j * ay, ax + 1j * ay
            bm, bp = bx - 1j * by, bx + 1j * by
            expected = np.array(
                [
                    [az * bz, az * bm, bz * am, am * bm],
                    [az * bp, -az * bz, am * bp, -bz * am],
                    [bz * ap, ap * bm, -az * bz, -az * bm],
                    [ap * bp, -bz * ap, -az * bp, az * bz],
                ]
            )
            np.testing.assert_allclose(tensor_observable(a, b), expected, atol=1e-14)

    def test_hermitian_traceless(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = tensor_observable(random_unit_vector(rng), random_unit_vector(rng))
            np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
            assert abs(np.trace(m)) < 1e-12


class TestTwoQubitState:
    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_requires_four_amplitudes(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.array([1.0, 0.0]))

    def test_amplitudes_read_only(self):
        s = canonical_state(INV_SQRT2, INV_SQRT2)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0


class TestCheckCount:
    def test_numpy_integer_becomes_int(self):
        for n in (np.int64(7), np.uint8(7), 7):
            got = check_count("n", n)
            assert type(got) is int and got == 7

    @pytest.mark.parametrize("n", [1, 2 ** 63 - 1])
    def test_range_ends_accepted(self, n):
        assert check_count("n", n) == n

    @pytest.mark.parametrize("n", [0, -1, np.int64(0), 2 ** 63, 2 ** 64])
    def test_out_of_range_rejected(self, n):
        with pytest.raises(ValueError, match=r"^n must be in \[1, 2\*\*63 - 1\]$"):
            check_count("n", n)

    @pytest.mark.parametrize("n", [True, 1.0, "1", None])
    def test_non_integer_rejected(self, n):
        with pytest.raises(TypeError, match="n must be an integer"):
            check_count("n", n)


class TestCanonicalState:
    def test_bell_state(self):
        s = canonical_state(INV_SQRT2, INV_SQRT2)
        np.testing.assert_allclose(
            s.amplitudes, [0.0, INV_SQRT2, INV_SQRT2, 0.0], atol=1e-15
        )

    def test_singlet_like_sign(self):
        s = canonical_state(INV_SQRT2, -INV_SQRT2)
        form = schmidt_decompose(s)
        assert form.sign == -1

    def test_separable_allowed(self):
        s = canonical_state(1.0, 0.0)
        np.testing.assert_array_equal(s.amplitudes, [0.0, 1.0, 0.0, 0.0])

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError):
            canonical_state(0.9, 0.9)


class TestCanonicalCoefficients:
    @pytest.mark.parametrize("conc", [1.0, 0.9, 0.8, 8.0 / 11.0, INV_SQRT2, 0.6, 0.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_concurrence_roundtrip(self, conc, sign):
        c1, c2 = canonical_coefficients(conc, sign)
        assert c1 >= abs(c2) and math.copysign(1.0, c2) == sign
        form = schmidt_decompose(canonical_state(c1, c2))
        assert concurrence(form) == pytest.approx(conc, abs=1e-12)

    @pytest.mark.parametrize("conc, sign", [(1.1, 1), (-0.1, 1), (math.nan, 1), (0.5, 0), (0.5, 2)])
    def test_rejects_out_of_range(self, conc, sign):
        with pytest.raises(ValueError):
            canonical_coefficients(conc, sign)


class TestCorrelationTensor:
    AXES = [UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 1.0, 0.0), UnitVector3(0.0, 0.0, 1.0)]

    def test_matches_matrix_expectations(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            state = random_state(rng)
            psi = state.amplitudes
            m_a, m_b, t = correlation_tensor(state)
            for k, ek in enumerate(self.AXES):
                sk = pauli_dot(ek)
                expect_a = np.vdot(psi, np.kron(sk, np.eye(2)) @ psi).real
                expect_b = np.vdot(psi, np.kron(np.eye(2), sk) @ psi).real
                assert m_a[k] == pytest.approx(expect_a, abs=1e-14)
                assert m_b[k] == pytest.approx(expect_b, abs=1e-14)
                for l, el in enumerate(self.AXES):
                    expect = np.vdot(psi, tensor_observable(ek, el) @ psi).real
                    assert t[k, l] == pytest.approx(expect, abs=1e-14)

    def test_canonical_state(self):
        # T = diag(2 c1 c2, 2 c1 c2, -1) and m_a = -m_b = (c1^2 - c2^2) z.
        for c1, c2 in ((0.8, 0.6), (0.6, -0.8), (INV_SQRT2, INV_SQRT2)):
            m_a, m_b, t = correlation_tensor(canonical_state(c1, c2))
            np.testing.assert_allclose(t, np.diag([2 * c1 * c2, 2 * c1 * c2, -1.0]), atol=1e-15)
            np.testing.assert_allclose(m_a, [0.0, 0.0, c1 * c1 - c2 * c2], atol=1e-15)
            np.testing.assert_allclose(m_b, -m_a, atol=1e-15)


def _singular_values_closed_form(m: np.ndarray) -> tuple[float, float]:
    """2x2 singular values from trace/determinant, independent of any SVD."""
    t = float(np.sum(np.abs(m) ** 2))
    d = abs(np.linalg.det(m)) ** 2
    disc = math.sqrt(max(0.0, t * t - 4.0 * d))
    hi = math.sqrt((t + disc) / 2.0)
    lo = math.sqrt(max(0.0, (t - disc) / 2.0))
    return hi, lo


def same_form(got: SchmidtForm, want: SchmidtForm) -> bool:
    """True when two Schmidt forms have the same sign and bit-identical coefficients."""
    return got.sign == want.sign and same_bits([got.c1, got.c2], [want.c1, want.c2])


class TestSchmidtDecompose:
    def test_symmetric_maximally_entangled(self):
        form = schmidt_decompose(canonical_state(INV_SQRT2, INV_SQRT2))
        assert form.c1 == pytest.approx(INV_SQRT2, abs=1e-12)
        assert form.c2 == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_product_state(self):
        form = schmidt_decompose(TwoQubitState(np.array([1.0, 0, 0, 0])))
        assert form.c1 == pytest.approx(1.0, abs=1e-12)
        assert form.c2 == pytest.approx(0.0, abs=1e-12)
        assert form.c2 <= ENTANGLEMENT_TOL

    # LAPACK gives canonical_state(-1.0, 0.0) the singular values [1., -0.], which printed concurrence=-0.
    @pytest.mark.parametrize("c1, c2", [(x, y) for one in (1.0, -1.0) for zero in (0.0, -0.0)
                                        for x, y in ((one, zero), (zero, one))])
    def test_separable_zero_is_positive(self, c1, c2):
        form = schmidt_decompose(canonical_state(c1, c2))
        assert math.copysign(1.0, form.c2) == 1.0
        assert math.copysign(1.0, concurrence(form)) == 1.0

    def test_coefficients_match_closed_form_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            state = random_state(rng)
            form = schmidt_decompose(state)
            hi, lo = _singular_values_closed_form(state.amplitude_matrix())
            assert form.c1 == pytest.approx(hi, abs=1e-10)
            assert form.c2 == pytest.approx(lo, abs=1e-10)
            assert abs(form.c1 ** 2 + form.c2 ** 2 - 1.0) < 1e-12

    def test_reconstruction_roundtrip_bulk(self):
        # The reference's bases with this (c1, c2, sign) reproduce the state up to a global phase.
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(10_000):
            state = random_state(rng)
            ref = reference_schmidt_decompose(state)
            assert same_form(schmidt_decompose(state), ref.form)
            rebuilt = reconstruct(ref)
            overlap = np.vdot(rebuilt.amplitudes, state.amplitudes)
            phase = overlap / abs(overlap)
            err = np.linalg.norm(rebuilt.amplitudes * phase - state.amplitudes)
            worst = max(worst, err)
        assert worst < 1e-10

    def test_sign_tracks_coefficient_product(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = rng.uniform(0.1, math.pi / 2 - 0.1)
            c1, c2 = math.cos(t), math.sin(t) * (1 if rng.random() < 0.5 else -1)
            form = schmidt_decompose(canonical_state(c1, c2))
            assert form.sign == (1 if c1 * c2 > 0 else -1)

    def test_complex_relative_phase_absorbed(self):
        state = TwoQubitState(np.array([0.0, INV_SQRT2, 1j * INV_SQRT2, 0.0]))
        form, ref = schmidt_decompose(state), reference_schmidt_decompose(state)
        assert form.sign == 1 and same_form(form, ref.form)
        rebuilt = reconstruct(ref)
        overlap = abs(np.vdot(rebuilt.amplitudes, state.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_basis_matrices_unitary(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            state = random_state(rng)
            ref = reference_schmidt_decompose(state)
            assert same_form(schmidt_decompose(state), ref.form)
            for u in (ref.basis_a, ref.basis_b):
                np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, seed):
        state = random_state(np.random.default_rng(seed))
        ref = reference_schmidt_decompose(state)
        assert same_form(schmidt_decompose(state), ref.form)
        rebuilt = reconstruct(ref)
        assert abs(np.vdot(rebuilt.amplitudes, state.amplitudes)) == pytest.approx(
            1.0, abs=1e-10
        )


class TestConcurrence:
    def test_maximally_entangled(self):
        assert concurrence(schmidt_decompose(canonical_state(INV_SQRT2, INV_SQRT2))) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_product_state(self):
        form = schmidt_decompose(TwoQubitState(np.array([1.0, 0, 0, 0])))
        assert concurrence(form) == pytest.approx(0.0, abs=1e-12)

    def test_four_fifths_state(self):
        c1 = math.sqrt(0.5 + math.sqrt(9.0 / 100.0))
        c2 = math.sqrt(0.5 - math.sqrt(9.0 / 100.0))
        form = schmidt_decompose(canonical_state(c1, c2))
        assert concurrence(form) == pytest.approx(0.8, abs=1e-12)

    def test_eight_elevenths_state(self):
        c1 = math.sqrt(0.5 + math.sqrt(57.0) / 22.0)
        c2 = math.sqrt(0.5 - math.sqrt(57.0) / 22.0)
        form = schmidt_decompose(canonical_state(c1, c2))
        assert concurrence(form) == pytest.approx(8.0 / 11.0, abs=1e-12)

    def test_determinant_oracle(self):
        # For pure two-qubit states the concurrence equals 2|det M|.
        rng = np.random.default_rng(9)
        for _ in range(300):
            state = random_state(rng)
            expected = 2.0 * abs(np.linalg.det(state.amplitude_matrix()))
            assert concurrence(schmidt_decompose(state)) == pytest.approx(
                expected, abs=1e-10
            )

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            state = random_state(rng)
            u = np.kron(random_unitary2(rng), random_unitary2(rng))
            rotated = TwoQubitState(u @ state.amplitudes)
            before = concurrence(schmidt_decompose(state))
            after = concurrence(schmidt_decompose(rotated))
            assert abs(before - after) < 1e-10


class TestSchmidtFormValidation:
    def test_negative_zero_c2_stored_positive(self):
        # SchmidtForm(c2=-0.0) used to keep -0.0, and its concurrence read -0.0.
        form = SchmidtForm(c1=1.0, c2=-0.0, sign=1)
        assert math.copysign(1.0, form.c2) == 1.0
        assert math.copysign(1.0, concurrence(form)) == 1.0

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            SchmidtForm(c1=0.3, c2=math.sqrt(1 - 0.09), sign=1)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            SchmidtForm(c1=0.8, c2=0.6 + 1e-9, sign=1)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            SchmidtForm(c1=1.0, c2=0.0, sign=0)


class TestBitIdentity:
    """pauli_dot, tensor_observable and schmidt_decompose against their generic-numpy
    forms in helpers: the same bits, signed zeros included."""

    def test_pauli_dot(self):
        rng = np.random.default_rng(40)
        vectors = edge_unit_vectors() + [random_unit_vector(rng) for _ in range(500)]
        vectors += [UnitVector3(0, 0, 1), UnitVector3(-1, 0, 0), UnitVector3(0, -1, 0)]
        vectors += [UnitVector3(-v.x, -v.y, -v.z) for v in vectors]
        for n in vectors:
            assert same_bits(pauli_dot(n), reference_pauli_dot(n)), n

    def test_tensor_observable(self):
        rng = np.random.default_rng(41)
        edge = edge_unit_vectors()
        pairs = list(itertools.product(edge, repeat=2))
        pairs += [(random_unit_vector(rng), random_unit_vector(rng)) for _ in range(500)]
        for a, b in pairs:
            assert same_bits(tensor_observable(a, b), reference_tensor_observable(a, b)), (a, b)

    def test_schmidt_decompose(self):
        rng = np.random.default_rng(42)
        states = [random_state(rng) for _ in range(300)]
        for _ in range(100):
            amps = rng.normal(size=4)
            states.append(TwoQubitState(amps / np.linalg.norm(amps)))
        for _ in range(100):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps[rng.choice(4, 2, replace=False)] = 0.0
            states.append(TwoQubitState(amps / np.linalg.norm(amps)))
        states += [canonical_state(*canonical_coefficients(c, sign))
                   for c in (1.0, 0.8, 8.0 / 11.0, 0.3) for sign in (1, -1)]
        states += [TwoQubitState(np.array(a)) for a in ([1, 0, 0, 0], [0, 0, 0, 1j], [0, INV_SQRT2, 1j * INV_SQRT2, 0])]
        for state in states:
            assert same_form(schmidt_decompose(state), reference_schmidt_decompose(state).form), state
