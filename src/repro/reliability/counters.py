"""Process-wide retry and fault-injection counters.

The retry and fault-injection layers record what happened to every
request — attempts, retries, backoff seconds slept, faults injected by
kind — into one process-global counter table, mirroring how the
completion cache exposes hit/miss totals.  Grid workers snapshot the
table before a cell and report the delta afterwards, so a parent process
can aggregate activity that happened inside pool workers it cannot
observe directly (see :meth:`repro.runtime.stats.RuntimeStats.merge_reliability`).

The table holds only what a grid cell ships back from a pool worker.
Counts the serving stack produces live with the object that produces
them: a breaker's in its own ``counters``, a router's in
:attr:`MatchRouter.counters <repro.routing.policy.MatchRouter.counters>`,
a service's in its :class:`~repro.serving.service.ServingStats`.

Counts are ints; only ``retry_sleep_seconds`` is fractional.  Updates
take a lock: thread-pool cells mutate the table concurrently.
"""

from __future__ import annotations

import threading

__all__ = [
    "COUNTER_KEYS",
    "record",
    "snapshot",
    "delta_since",
]

#: Every key the table tracks, in reporting order.
COUNTER_KEYS: tuple[str, ...] = (
    "attempts",
    "request_retries",
    "retry_sleep_seconds",
    "faults_injected",
    "transient_faults",
    "rate_limit_faults",
    "latency_spikes",
    "malformed_completions",
)

_LOCK = threading.Lock()
_COUNTERS: dict[str, float] = {key: 0 for key in COUNTER_KEYS}


def record(key: str, amount: float = 1) -> None:
    """Add ``amount`` to one counter (unknown keys are ignored)."""
    with _LOCK:
        if key in _COUNTERS:
            _COUNTERS[key] += amount


def snapshot() -> dict[str, float]:
    """A point-in-time copy of every counter."""
    with _LOCK:
        return dict(_COUNTERS)


def delta_since(previous: dict[str, float]) -> dict[str, float]:
    """Counter movement since a :func:`snapshot` (rounded for JSON)."""
    current = snapshot()
    return {
        key: round(current[key] - previous.get(key, 0), 6)
        for key in COUNTER_KEYS
    }
