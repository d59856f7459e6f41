"""Per-scope retry and fault-injection counts.

The retry and fault-injection layers record what happened to every
request — attempts, retries, backoff seconds slept, faults injected by
kind — into a :class:`Tally`.  Every :class:`~repro.reliability.retry.RetryingClient`
and :class:`~repro.reliability.faults.FaultInjector` counts into the
tally it is given, or into a fresh one of its own.  A study grid cell
hands one tally to its whole client stack and ships its counts back on
the cell's result, so a parent process sums per-cell counts it could
not observe directly (see
:meth:`repro.runtime.stats.RuntimeStats.merge_reliability`), and
concurrent cells never count each other's requests.

Counts the serving stack produces live with the object that produces
them: a breaker's in its own ``counters``, a router's in
:attr:`MatchRouter.counters <repro.routing.policy.MatchRouter.counters>`,
a service's in its :class:`~repro.serving.service.ServingStats`.

Counts are ints; only ``retry_sleep_seconds`` is fractional, and it is
kept unrounded (the ``runtime`` block rounds at render).  Updates take a
lock: the clients of one tally may run on several threads.
"""

from __future__ import annotations

import threading

__all__ = ["COUNTER_KEYS", "Tally"]

#: Every key a tally tracks, in reporting order.
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


class Tally:
    """A locked table of the :data:`COUNTER_KEYS` counts for one scope."""

    def __init__(self) -> None:
        """Every count starts at zero."""
        self._lock = threading.Lock()
        self._counts: dict[str, float] = {key: 0 for key in COUNTER_KEYS}

    def record(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to one count (``key`` must be a counter key)."""
        with self._lock:
            self._counts[key] += amount

    def snapshot(self) -> dict[str, float]:
        """A point-in-time copy of every count."""
        with self._lock:
            return dict(self._counts)
