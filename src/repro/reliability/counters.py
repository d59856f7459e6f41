"""Process-wide reliability counters.

The retry and fault-injection layers record what happened to every
request — attempts, retries, backoff seconds slept, faults injected by
kind — into one process-global counter table, mirroring how the
completion cache exposes hit/miss totals.  Grid workers snapshot the
table before a cell and report the delta afterwards, so a parent process
can aggregate activity that happened inside pool workers it cannot
observe directly (see :meth:`repro.runtime.stats.RuntimeStats.merge_reliability`).

Counters are floats (``retry_sleep_seconds`` is fractional) and updates
take a lock: thread-pool cells mutate the table concurrently.
"""

from __future__ import annotations

import threading

__all__ = [
    "COUNTER_KEYS",
    "SWALLOWED_ERROR_KEYS",
    "record",
    "snapshot",
    "delta_since",
    "reset",
]

#: Counters for errors a degradation path *swallowed* rather than
#: raised: a routed backend failure decided at a cheaper rung, an
#: unexpected (non-:class:`~repro.errors.ReproError`) exception on the
#: serving request path.  Swallowing is the designed behaviour on those
#: paths, but a silently rising total is how a masked bug announces
#: itself — the serving ``/metrics`` endpoint surfaces these under
#: ``resilience.swallowed_errors`` so it never takes a debugger to see
#: them.
SWALLOWED_ERROR_KEYS: tuple[str, ...] = (
    "routing_backend_errors",
    "serving_unexpected_errors",
)

#: Every key the global table tracks, in reporting order.  The
#: ``breaker_*`` keys are mirrored by the resilience control plane
#: (:mod:`repro.reliability.breaker`) so a run's breaker activity lands
#: in the same ``runtime.reliability`` block of ``full_study.json`` as
#: its retries and faults.
COUNTER_KEYS: tuple[str, ...] = (
    "attempts",
    "request_retries",
    "retry_sleep_seconds",
    "faults_injected",
    "transient_faults",
    "rate_limit_faults",
    "latency_spikes",
    "malformed_completions",
    "breaker_opens",
    "breaker_closes",
    "breaker_probes",
    "breaker_rejections",
    "breaker_failures",
    "breaker_slow_calls",
    "routing_backend_errors",
    "serving_unexpected_errors",
)

_LOCK = threading.Lock()
_COUNTERS: dict[str, float] = {key: 0.0 for key in COUNTER_KEYS}


def record(key: str, amount: float = 1.0) -> None:
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
        key: round(current[key] - previous.get(key, 0.0), 6)
        for key in COUNTER_KEYS
    }


def reset() -> None:
    """Zero every counter (test isolation only)."""
    with _LOCK:
        for key in _COUNTERS:
            _COUNTERS[key] = 0.0
