import numpy as np
import pytest
from hypothesis import settings

from triqent import qcore
from triqent.qcore import genuine_haar_state as genuine_haar  # noqa: F401 (imported by the test modules)

# Deterministic property testing: identical examples on every run.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def ghz():
    return qcore.ghz_state()


@pytest.fixture
def w():
    return qcore.w_state()


def random_acin_state(rng) -> tuple:
    """Random standard-form state; returns (lambdas, phi, PureState)."""
    lams = rng.uniform(0.05, 1.0, 5)
    lams = lams / np.linalg.norm(lams)
    phi = float(rng.uniform(0, np.pi))
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = lams[0]
    amps[0b100] = lams[1] * np.exp(1j * phi)
    amps[0b101] = lams[2]
    amps[0b110] = lams[3]
    amps[0b111] = lams[4]
    return lams, phi, qcore.PureState(3, amps)


def basis(n: int, index: int) -> qcore.PureState:
    """Computational basis state |index> of ``n`` qubits."""
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return qcore.PureState(n, amps)


def reduced(state, keep) -> np.ndarray:
    """Oracle: the reduced density matrix of ``state`` (a ``PureState`` or an
    amplitude vector) on the 1-based qubits ``keep``, by one ``einsum``."""
    amps = np.asarray(getattr(state, "amplitudes", state))
    n = amps.size.bit_length() - 1
    ket = "abcdefghijk"[:n]
    bra = "".join(c.upper() if q + 1 in keep else c for q, c in enumerate(ket))
    out = "".join(ket[q - 1] for q in sorted(keep)) + "".join(bra[q - 1] for q in sorted(keep))
    rho = np.einsum(f"{ket},{bra}->{out}", amps.reshape((2,) * n), amps.conj().reshape((2,) * n))
    return rho.reshape(2 ** len(keep), 2 ** len(keep))


def states_close(s1, s2, atol: float, up_to_phase: bool = False) -> bool:
    """Whether two states (``PureState`` or amplitudes) agree within ``atol``,
    optionally after aligning the global phase of ``s2`` to ``s1``."""
    a1, a2 = (np.asarray(getattr(s, "amplitudes", s)) for s in (s1, s2))
    if up_to_phase:
        ov = np.vdot(a2, a1)
        a2 = a2 * (ov / abs(ov) if abs(ov) > 1e-14 else 1.0)
    return a1.shape == a2.shape and bool(np.allclose(a1, a2, atol=atol))
