"""Percentiles by nearest rank, and which tail percentile a sample supports."""

from __future__ import annotations

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
TAIL_PERCENTILES = (90, 99)


def rank(n: int, q: int) -> int:
    """1-based nearest rank of the q-th percentile (integer q) of n samples."""
    return max(1, -(-n * q // 100))


def percentile(sorted_values, q: int):
    return sorted_values[rank(len(sorted_values), q) - 1]


def beyond(n: int, q: int) -> int:
    """Samples strictly above the q-th percentile's rank."""
    return n - rank(n, q)


def supported(n: int, q: int) -> bool:
    return beyond(n, q) >= MIN_BEYOND


def highest_tail(n: int) -> int | None:
    """Highest of TAIL_PERCENTILES with MIN_BEYOND samples beyond it, if any."""
    ok = [q for q in TAIL_PERCENTILES if supported(n, q)]
    return max(ok) if ok else None
