"""Dense statevector substrate: pure states, local unitaries, reductions, sampling.

Index convention used throughout the package: qubit 1 is the most
significant bit of the amplitude index, so a 3-qubit amplitude vector is
ordered |000>, |001>, ..., |111> with qubit 1 leftmost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import (
    ATOL_HERMITIAN,
    ATOL_NEGATIVE,
    ATOL_NORM,
    ATOL_TRACE,
    ATOL_UNITARY,
    ATOL_UNNORMALIZED,
    EIG_CLIP,
    TOL_PRODUCT,
)

MIN_QUBITS = 2
MAX_QUBITS = 11

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
# Bell states (1 x sigma_n)|phi+> up to phase, in the PAULIS order: phi+, psi+, psi-, phi-.
BELL_BASIS = (
    np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
    np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
)


class BiseparableInput(ValueError):
    """Input state is not genuinely tripartite entangled."""


class InternalCheckFailed(AssertionError):
    """An internal cross-check of the package exceeded its tolerance.

    ``value`` is the check's residual and ``tol`` its tolerance; a check that
    something exists reports the number of missing items against tol 0.
    """

    def __init__(self, check: str, value: float, tol: float):
        super().__init__(f"{check} failed: {value:.3e} > {tol:.1e}")
        self.check, self.value, self.tol = check, float(value), float(tol)


def check(name: str, value: float, tol: float) -> None:
    """The one internal-check primitive: raise ``InternalCheckFailed`` unless ``value <= tol``."""
    if not value <= tol:
        raise InternalCheckFailed(name, value, tol)


def normalized_rows(amps: np.ndarray) -> np.ndarray:
    """``PureState``'s norm rule on the (..., d) amplitude rows ``amps``: a row
    whose norm is off 1 by more than ``ATOL_UNNORMALIZED`` raises ValueError,
    and one off by more than ``ATOL_NORM`` is divided by its norm."""
    norm = np.sqrt(np.vecdot(amps.real, amps.real) + np.vecdot(amps.imag, amps.imag))
    off = np.abs(norm - 1.0)
    if (off > ATOL_UNNORMALIZED).any():
        raise ValueError(f"state not normalized: |norm - 1| = {off.max():.3e}")
    rescale = (off > ATOL_NORM)[..., None]
    return np.where(rescale, amps / norm[..., None], amps) if rescale.any() else amps


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of ``n_qubits`` qubits as a dense amplitude vector."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not MIN_QUBITS <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [{MIN_QUBITS}, {MAX_QUBITS}], got {self.n_qubits}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2**self.n_qubits:
            raise ValueError(f"expected {2**self.n_qubits} amplitudes, got {amps.size}")
        amps = normalized_rows(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qubit (qubit 1 first)."""
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def conj(self) -> "PureState":
        """Complex conjugate in the computational basis."""
        return PureState(self.n_qubits, self.amplitudes.conj())


def ghz_state() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    return PureState(3, amps)


def w_state() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0b001] = amps[0b010] = amps[0b100] = 1 / np.sqrt(3)
    return PureState(3, amps)


@dataclass(frozen=True)
class LocalUnitary:
    """Product of single-qubit unitaries, one 2x2 factor per qubit."""

    factors: tuple

    def __post_init__(self):
        fs = []
        for k, u in enumerate(self.factors):
            u = np.asarray(u, dtype=complex)
            if u.shape != (2, 2):
                raise ValueError(f"factor {k} is not 2x2")
            if np.linalg.norm(u.conj().T @ u - np.eye(2)) > ATOL_UNITARY:
                raise ValueError(f"factor {k} is not unitary")
            u.flags.writeable = False
            fs.append(u)
        object.__setattr__(self, "factors", tuple(fs))

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    @classmethod
    def identity(cls, n: int) -> "LocalUnitary":
        return cls(tuple(np.eye(2, dtype=complex) for _ in range(n)))


def density_spectra(m: np.ndarray) -> np.ndarray:
    """Ascending ``eigvalsh`` spectra of the (..., d, d) density matrices ``m``.

    Raises ValueError unless every matrix is Hermitian to ``ATOL_HERMITIAN``
    and of unit trace to ``ATOL_TRACE`` and has no eigenvalue below
    -``ATOL_NEGATIVE``."""
    if (np.linalg.norm(m - m.conj().swapaxes(-1, -2), axis=(-2, -1)) > ATOL_HERMITIAN).any():
        raise ValueError("matrix is not Hermitian")
    if (np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1.0) > ATOL_TRACE).any():
        raise ValueError("trace is not 1")
    spectra = np.linalg.eigvalsh(m)
    if (spectra[..., 0] < -ATOL_NEGATIVE).any():
        raise ValueError("matrix has a significantly negative eigenvalue")
    return spectra


def apply_local(state: PureState, lu: LocalUnitary) -> PureState:
    """Apply one single-qubit unitary per qubit to ``state``."""
    if lu.n_qubits != state.n_qubits:
        raise ValueError(f"local unitary has {lu.n_qubits} factors, state has {state.n_qubits} qubits")
    t = state.tensor()
    n = state.n_qubits
    for q, u in enumerate(lu.factors):
        t = np.tensordot(u, t, axes=([1], [q]))
        t = np.moveaxis(t, 0, q)
    amps = t.reshape(-1)
    return PureState(n, amps / np.linalg.norm(amps))


def permute_qubits(state: PureState, order) -> PureState:
    """Reorder qubits so new qubit k is old qubit ``order[k-1]`` (1-based)."""
    if sorted(order) != list(range(1, state.n_qubits + 1)):
        raise ValueError("order must be a permutation of 1..n")
    t = state.tensor().transpose([q - 1 for q in order])
    return PureState(state.n_qubits, t.reshape(-1))


def entropies(spectra: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of (..., d) spectra: eigenvalues in
    [-EIG_CLIP, 0] count as 0 (0 log 0 = 0), and one below raises ValueError."""
    ev = np.where(spectra < 0, np.where(spectra >= -EIG_CLIP, 0.0, spectra), spectra)
    if (ev < 0).any():
        raise ValueError("eigenvalue below clipping tolerance")
    pos = ev > 0
    return -np.where(pos, ev * np.log2(np.where(pos, ev, 1.0)), 0.0).sum(axis=-1)


def scalar_pow(x, n) -> np.ndarray:
    """Elementwise ``x ** n`` with each entry rounded by C ``pow``, as Python
    floats and NumPy scalars round it.  NumPy's array power (SIMD, or x * x for
    squares) differs from it in the last bit of about one entry in a thousand,
    which would move reported values that are pinned byte for byte."""
    return np.asarray(np.power(np.asarray(x, dtype=float).astype(object), n), dtype=float)


def haar_state(n: int, seed: int) -> PureState:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    if not MIN_QUBITS <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [{MIN_QUBITS}, {MAX_QUBITS}]")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(n, z / np.linalg.norm(z))


def genuine_haar_state(seed: int) -> PureState:
    """3-qubit Haar state that is genuinely tripartite (reseeds on the rare miss)."""
    while True:
        state = haar_state(3, seed)
        if genuine_tripartite(state):
            return state
        seed += 1_000_003


def real_state(n: int, seed: int) -> PureState:
    """Random state with real amplitudes (normalized Gaussian vector)."""
    if not MIN_QUBITS <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [{MIN_QUBITS}, {MAX_QUBITS}]")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(2**n).astype(complex)
    return PureState(n, z / np.linalg.norm(z))


def haar_unitary(seed: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Haar-random 2x2 unitary via QR of a Ginibre matrix with phase-fixed diagonal."""
    if rng is None:
        rng = np.random.default_rng(seed)
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_local_unitary(n: int, seed: int) -> LocalUnitary:
    rng = np.random.default_rng(seed)
    return LocalUnitary(tuple(haar_unitary(0, rng=rng) for _ in range(n)))


# Amplitude indices of the |0> and |1> rows of qubit 1, 2 and 3.
_MARGINAL_ROWS = np.array(
    [
        [[0, 1, 2, 3], [4, 5, 6, 7]],
        [[0, 1, 4, 5], [2, 3, 6, 7]],
        [[0, 2, 4, 6], [1, 3, 5, 7]],
    ]
)


def marginal_spectra(tensors) -> np.ndarray:
    """Eigenvalues of the three single-qubit marginals of (..., 2, 2, 2) amplitude tensors.

    Returns (..., 3, 2), qubit by qubit, each pair ascending, in the closed
    form (tr -+ sqrt((rho00 - rho11)^2 + 4|rho01|^2)) / 2 of a 2x2 Hermitian.
    """
    t = np.asarray(tensors, dtype=complex)
    m = t.reshape(*t.shape[:-3], 8)[..., _MARGINAL_ROWS]
    diag = (m.real**2 + m.imag**2).sum(axis=-1)
    off = (m[..., 0, :] * m[..., 1, :].conj()).sum(axis=-1)
    trace = diag[..., 0] + diag[..., 1]
    root = np.hypot(diag[..., 0] - diag[..., 1], 2 * np.abs(off))
    return 0.5 * (trace[..., None] + np.array([-1.0, 1.0]) * root[..., None])


def genuine_rows(spectra: np.ndarray) -> np.ndarray:
    """Per state, from its ``marginal_spectra``: every single-qubit marginal significantly mixed."""
    return (spectra[..., 0] > TOL_PRODUCT).all(axis=-1)


def genuine_tripartite(state: PureState) -> bool:
    """True iff every single-qubit marginal is significantly mixed."""
    if state.n_qubits != 3:
        raise ValueError("genuine_tripartite expects a 3-qubit state")
    return bool(genuine_rows(marginal_spectra(state.tensor())))


def require_tripartite(state: PureState) -> None:
    if not genuine_tripartite(state):
        raise BiseparableInput("state is biseparable across at least one cut")
