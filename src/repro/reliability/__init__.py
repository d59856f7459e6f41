"""Fault-tolerant request layer: retries, deadlines, fault injection.

The paper's cost analysis (Section 4.2) assumes every completion request
succeeds; a production EM service cannot.  This package makes the
request layer survive — and, crucially, makes failure *testable offline*
by simulating it the same way :mod:`repro.llm.simulated` simulates the
hosted models:

:mod:`repro.reliability.policy`
    :class:`RetryPolicy` — retryable-error classification, exponential
    backoff with deterministic seeded jitter, per-request deadlines.
:mod:`repro.reliability.retry`
    :class:`RetryingClient` — the wrapper that applies a policy around
    any :class:`~repro.llm.client.LLMClient`, with response validation.
:mod:`repro.reliability.faults`
    :class:`FaultInjector` and :class:`FaultPlan` — seeded, reproducible
    injection of transient errors, rate limits, latency spikes and
    malformed completions.
:mod:`repro.reliability.clock`
    :class:`SystemClock` / :class:`FakeClock` — injectable time so
    backoff tests assert exact schedules without sleeping.
:mod:`repro.reliability.breaker`
    :class:`CircuitBreaker` — closed/open/half-open isolation of a
    persistently unhealthy backend over rolling failure-rate windows.
:mod:`repro.reliability.budget`
    :class:`DeadlineBudget` — the one request-scoped time limit, carved
    across queueing, retries and router hops via ``remaining()``.
:mod:`repro.reliability.wiring`
    :func:`harden_client`, the one composition point a study grid cell
    funnels every client through, with the policy and plan its
    :class:`~repro.config.StudyConfig` carries.
:mod:`repro.reliability.counters`
    :class:`Tally`, the per-cell retry/fault counts summed into the
    ``runtime`` block of ``full_study.json``.

A study's settings have one source each: the ``full_run`` flag or
``run_study`` argument, carried on the grid cell's ``StudyConfig``;
its counts are tallied per cell.

Failure semantics — what is retried, how long backoff waits, how the
completion cache interacts with retries, and the ``CellFailure`` schema
— are specified in ``docs/FAILURE_SEMANTICS.md``.
"""

from __future__ import annotations

from .breaker import CircuitBreaker
from .budget import DeadlineBudget
from .clock import Clock, FakeClock, SystemClock
from .counters import Tally
from .faults import FaultInjector, FaultPlan
from .policy import DEFAULT_POLICY, RetryPolicy, is_retryable
from .retry import RetryingClient, validate_yes_no
from .wiring import harden_client

__all__ = [
    "CircuitBreaker",
    "Clock",
    "DEFAULT_POLICY",
    "DeadlineBudget",
    "FakeClock",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "RetryingClient",
    "SystemClock",
    "Tally",
    "harden_client",
    "is_retryable",
    "validate_yes_no",
]
