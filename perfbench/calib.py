"""Host-speed calibration for end-to-end timings.

The host this benchmark was built on alternates between a fast and a slow
state about 1.5x apart, switching every few seconds, in wall and CPU time
alike.  How long a run spends in each state then moves a 30-second run's
median op time by up to 25%.  So a fixed kernel of numpy and
interpreter work, which never touches triqent, is timed right before every
op; each op's time is scaled by REF_KERNEL_MS over the median kernel time
of its neighbours.  Reported times are thus op times on a host whose kernel
takes REF_KERNEL_MS; a program change moves them exactly as it moves the
raw times, because the kernel does not run program code.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import numpy as np

REF_KERNEL_MS = 0.25
WINDOW = 3  # neighbours on each side whose kernel times are pooled

_rng = np.random.default_rng(0)
_MATS = [_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) for _ in range(6)]


def _kernel() -> float:
    acc = 0.0
    for m in _MATS:
        _u, s, _vh = np.linalg.svd(m)
        acc += float(np.linalg.eigvalsh(m @ m.conj().T)[0]) + float(s[0])
        acc += sum(abs(x) for x in m.reshape(-1))
    return acc


def kernel_ns() -> int:
    """Wall time of one run of the kernel."""
    start = perf_counter_ns()
    _kernel()
    return perf_counter_ns() - start


def scales(kernel_times) -> list[float]:
    """Per-sample factor REF_KERNEL_MS / (median kernel time of the sample
    and its WINDOW neighbours on each side)."""
    n = len(kernel_times)
    ref_ns = REF_KERNEL_MS * 1e6
    return [
        ref_ns / statistics.median(kernel_times[max(0, i - WINDOW): i + WINDOW + 1])
        for i in range(n)
    ]


def scale_now() -> float:
    """Scale factor from 2 * WINDOW + 1 kernel runs made now."""
    return scales([kernel_ns() for _ in range(2 * WINDOW + 1)])[WINDOW]
