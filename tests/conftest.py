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
