"""Dense statevector substrate: pure states, local unitaries, reductions, sampling.

Index convention used throughout the package: qubit 1 is the most
significant bit of the amplitude index, so a 3-qubit amplitude vector is
ordered |000>, |001>, ..., |111> with qubit 1 leftmost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_QUBITS = 2
MAX_QUBITS = 11

ATOL_NORM = 1e-12
ATOL_UNITARY = 1e-9
EIG_CLIP = 1e-10
TOL_PRODUCT = 1e-8

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
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        if abs(norm - 1.0) > ATOL_NORM:
            amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qubit (qubit 1 first)."""
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def conj(self) -> "PureState":
        """Complex conjugate in the computational basis."""
        return PureState(self.n_qubits, self.amplitudes.conj())

    def isclose(self, other: "PureState", atol: float = 1e-10, up_to_phase: bool = False) -> bool:
        if self.n_qubits != other.n_qubits:
            return False
        if up_to_phase:
            ov = np.vdot(other.amplitudes, self.amplitudes)
            phase = ov / abs(ov) if abs(ov) > 1e-14 else 1.0
            return bool(np.allclose(self.amplitudes, phase * other.amplitudes, atol=atol))
        return bool(np.allclose(self.amplitudes, other.amplitudes, atol=atol))


def state_from_amplitudes(amps) -> PureState:
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    n = int(round(np.log2(amps.size)))
    if 2**n != amps.size:
        raise ValueError("amplitude count is not a power of two")
    return PureState(n, amps)


def basis_state(n: int, index: int) -> PureState:
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return PureState(n, amps)


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

    @classmethod
    def single(cls, n: int, qubit: int, u) -> "LocalUnitary":
        """Unitary ``u`` on ``qubit`` (1-based), identity elsewhere."""
        fs = [np.eye(2, dtype=complex) for _ in range(n)]
        fs[qubit - 1] = np.asarray(u, dtype=complex)
        return cls(tuple(fs))

    def then(self, other: "LocalUnitary") -> "LocalUnitary":
        """Composite applying ``self`` first, then ``other``."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        return LocalUnitary(tuple(v @ u for u, v in zip(self.factors, other.factors)))

    def conj(self) -> "LocalUnitary":
        return LocalUnitary(tuple(u.conj() for u in self.factors))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian unit-trace operator on a 2^k dimensional space."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim} matrix")
        if np.linalg.norm(m - m.conj().T) > 1e-10:
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError("trace is not 1")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValueError("matrix has a significantly negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in descending order, clipped to [0, 1]."""
        ev = np.linalg.eigvalsh(self.matrix)[::-1]
        return np.clip(ev.real, 0.0, 1.0)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


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


def partial_trace(state: PureState, keep) -> DensityOperator:
    """Reduced density operator on the kept qubits (1-based indices)."""
    keep = sorted(set(keep))
    n = state.n_qubits
    if not keep:
        raise ValueError("keep set is empty")
    if any(q < 1 or q > n for q in keep):
        raise ValueError("keep set out of range")
    if len(keep) == n:
        raise ValueError("keep set must be a strict subset of the qubits")
    traced = [q for q in range(1, n + 1) if q not in keep]
    perm = [q - 1 for q in keep] + [q - 1 for q in traced]
    m = state.tensor().transpose(perm).reshape(2 ** len(keep), 2 ** len(traced))
    rho = m @ m.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityOperator(2 ** len(keep), rho)


def entropy(rho: DensityOperator) -> float:
    """Von Neumann entropy in bits, with 0 log 0 = 0."""
    ev = np.linalg.eigvalsh(rho.matrix).real
    ev = np.where(ev < 0, np.where(ev >= -EIG_CLIP, 0.0, ev), ev)
    if ev.min() < 0:
        raise ValueError("eigenvalue below clipping tolerance")
    pos = ev[ev > 0]
    return float(-(pos * np.log2(pos)).sum())


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


def genuine_rows(spectra: np.ndarray, tol: float = TOL_PRODUCT) -> np.ndarray:
    """Per state, from its ``marginal_spectra``: every single-qubit marginal significantly mixed."""
    return (spectra[..., 0] > tol).all(axis=-1)


def genuine_tripartite(state: PureState, tol: float = TOL_PRODUCT) -> bool:
    """True iff every single-qubit marginal is significantly mixed."""
    if state.n_qubits != 3:
        raise ValueError("genuine_tripartite expects a 3-qubit state")
    return bool(genuine_rows(marginal_spectra(state.tensor()), tol))


def require_tripartite(state: PureState, tol: float = TOL_PRODUCT) -> None:
    if not genuine_tripartite(state, tol=tol):
        raise BiseparableInput("state is biseparable across at least one cut")
