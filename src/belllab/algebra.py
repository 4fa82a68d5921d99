"""Two-qubit state algebra: unit vectors, Pauli observables, Schmidt form.

Amplitude ordering is fixed as |00>, |01>, |10>, |11> throughout the package.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12
# Singular values below this count as zero when classifying entanglement.
ENTANGLEMENT_TOL = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY2):
    _m.setflags(write=False)
_PAULIS = (IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z)
# s_k (x) s_l over _PAULIS, at index 4k + l.
_PAULI_PRODUCTS = np.array([np.kron(sk, sl) for sk in _PAULIS for sl in _PAULIS])


@dataclass(frozen=True)
class UnitVector3:
    """Analyzer/polarizer orientation on the unit sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for c in (self.x, self.y, self.z):
            if not math.isfinite(c):
                raise ValueError(f"non-finite component in {(self.x, self.y, self.z)}")
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(n2 - 1.0) > NORM_TOL:
            raise ValueError(f"vector {(self.x, self.y, self.z)} is not unit (|v|^2 = {n2})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def make_unit_vector(theta: float, phi: float) -> UnitVector3:
    """Unit vector from spherical angles: (sin t cos p, sin t sin p, cos t)."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError("spherical angles must be finite")
    st = math.sin(theta)
    return UnitVector3(st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def pauli_dot(n: UnitVector3) -> np.ndarray:
    """Spin observable n . sigma: Hermitian, traceless, squares to identity."""
    x, y, z = n.x, n.y, n.z  # each entry as n.x*SIGMA_X + n.y*SIGMA_Y + n.z*SIGMA_Z sums it, signed zeros too
    zero = x * 0.0 + y * 0.0
    return np.array([[complex(zero + z, 0.0), complex(x + 0.0, 0.0 - y)],
                     [complex(x + y * 0.0 + z * 0.0, y + 0.0), complex(zero - z, 0.0)]])


def tensor_observable(a: UnitVector3, b: UnitVector3) -> np.ndarray:
    """Joint spin observable (a . sigma) (x) (b . sigma) as a 4x4 matrix."""
    # Entry [2i + k, 2j + l] is A[i, j] * B[k, l], the products np.kron forms.
    return (pauli_dot(a)[:, None, :, None] * pauli_dot(b)[None, :, None, :]).reshape(4, 4)


@dataclass(frozen=True)
class TwoQubitState:
    """Normalized pure state of two qubits.

    ``amplitudes`` are the coefficients of |00>, |01>, |10>, |11> in that
    order; the squared moduli must sum to 1 within 1e-12.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if amps.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {np.shape(self.amplitudes)}")
        if not np.isfinite(amps.view(float)).all():
            raise ValueError("non-finite amplitude")
        n2 = float((np.abs(amps) ** 2).sum())
        if abs(n2 - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |a|^2 = {n2}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def amplitude_matrix(self) -> np.ndarray:
        """2x2 coefficient matrix M[i, j] = <ij|psi> (row: first qubit)."""
        return self.amplitudes.reshape(2, 2)


def check_integer(name: str, value) -> None:
    """Raise TypeError unless value is an integer (a bool is not)."""
    # Exact int first: the ABC check alone is slower, and agr builds counts on every run.
    if type(value) is not int and (not isinstance(value, numbers.Integral) or isinstance(value, bool)):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")


def check_normalized(c1: float, c2: float, tol: float = 1e-9) -> float:
    """c1^2 + c2^2 of real c1, c2, raising ValueError unless within tol of 1 (NaN and inf never are)."""
    n2 = c1 * c1 + c2 * c2
    if not isinstance(n2, (float, numbers.Real)):  # float first: an ABC check alone is slower
        raise TypeError(f"coefficients must be real, got {type(c1).__name__} and {type(c2).__name__}")
    if not abs(n2 - 1.0) <= tol:
        raise ValueError(f"coefficients not normalized: c1^2 + c2^2 = {n2}")
    return n2


def canonical_state(c1: float, c2: float) -> TwoQubitState:
    """State c1|01> + c2|10> with real signed coefficients, c1^2 + c2^2 = 1.

    At c1*c2 = 0 it is the product state |01> or |10>.
    """
    n = math.sqrt(check_normalized(c1, c2))
    return TwoQubitState(np.array([0.0, c1 / n, c2 / n, 0.0], dtype=complex))


def correlation_tensor(state: TwoQubitState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors m_a[k] = <s_k (x) I>, m_b[l] = <I (x) s_l> and T[k, l] = <s_k (x) s_l>."""
    psi = state.amplitudes
    r = ((_PAULI_PRODUCTS @ psi) @ psi.conj()).real.reshape(4, 4)
    return r[1:, 0], r[0, 1:], r[1:, 1:]


def canonical_coefficients(concurrence: float, sign: int = 1) -> tuple[float, float]:
    """Coefficients c1 >= |c2| of c1|01> + c2|10> with 2*c1*|c2| = concurrence, c2 of sign +-1."""
    if not (0.0 <= concurrence <= 1.0 and sign in (-1, 1)):
        raise ValueError(f"need concurrence in [0, 1] and sign +-1, got {concurrence}, {sign}")
    gap = math.sqrt(1.0 - concurrence * concurrence)
    return math.sqrt((1.0 + gap) / 2.0), sign * math.sqrt((1.0 - gap) / 2.0)


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt data of a two-qubit pure state.

    ``c1 >= c2 >= 0`` are the singular values of the amplitude matrix.
    ``basis_a`` / ``basis_b`` are single-qubit unitaries whose k-th columns
    are the local Schmidt vectors, and ``sign`` is the +-1 relative sign
    between the two terms (the sign of the coefficient product when the
    state has real amplitudes; genuinely complex relative phases are folded
    into ``basis_b`` and ``sign`` is +1).  Reconstruction:

        amplitudes = c1 * outer(a0, b0) + sign * c2 * outer(a1, b1)

    up to a global phase.
    """

    c1: float
    c2: float
    sign: int
    basis_a: np.ndarray = field(repr=False)
    basis_b: np.ndarray = field(repr=False)

    def __post_init__(self):
        # + 0.0 clears the sign of a zero c2, which LAPACK may return as -0.0.
        object.__setattr__(self, "c2", self.c2 + 0.0)
        if not (self.c1 >= self.c2 >= 0.0):
            raise ValueError(f"require c1 >= c2 >= 0, got ({self.c1}, {self.c2})")
        if abs(self.c1 ** 2 + self.c2 ** 2 - 1.0) > NORM_TOL:
            raise ValueError("Schmidt coefficients not normalized")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        for name in ("basis_a", "basis_b"):
            u = np.asarray(getattr(self, name), dtype=complex).copy()
            if u.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2")
            if not (np.abs(u.conj().T @ u - IDENTITY2) <= NORM_TOL).all():  # NaN fails
                raise ValueError(f"{name} is not unitary")
            u.setflags(write=False)
            object.__setattr__(self, name, u)


def _first_nonzero_phase(v: np.ndarray) -> complex:
    """Phase of the first component with modulus above 1e-12 (1 if none)."""
    for comp in v:
        if abs(comp) > 1e-12:
            return comp / abs(comp)
    return 1.0 + 0.0j


def schmidt_decompose(state: TwoQubitState) -> SchmidtForm:
    """Schmidt decomposition via SVD of the 2x2 amplitude matrix.

    Basis columns are ordered by descending singular value and phase-fixed so
    their first nonzero component is real positive; the residual relative
    phase between the two terms becomes ``sign`` when it is +-1 (real states)
    and is absorbed into ``basis_b`` otherwise.
    """
    u, s, vh = np.linalg.svd(state.amplitude_matrix())

    # Fix column phases of u, pushing them into the rows of vh.
    ph = np.array([_first_nonzero_phase(u[:, 0]), _first_nonzero_phase(u[:, 1])])
    u *= ph.conj()
    vh *= ph[:, None]
    # Fix row phases of vh, keeping the leftover as per-term coefficients.
    coeff_phase = np.array([_first_nonzero_phase(vh[0]), _first_nonzero_phase(vh[1])])
    vh *= coeff_phase.conj()[:, None]

    sign = 1
    if s[1] > ENTANGLEMENT_TOL:
        rel = coeff_phase[1] / coeff_phase[0]  # residual relative phase e^{i delta}
        if abs(rel.imag) <= 1e-11:
            sign = 1 if rel.real > 0 else -1
        else:
            vh[1, :] *= rel

    return SchmidtForm(c1=float(s[0]), c2=float(s[1]), sign=sign, basis_a=u, basis_b=vh.T)


def concurrence(form: SchmidtForm) -> float:
    """Degree of entanglement 2*c1*c2: 0 for product states, 1 for maximal."""
    return 2.0 * form.c1 * form.c2
