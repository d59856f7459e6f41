"""Circuit breaker: isolate a persistently unhealthy backend.

:class:`~repro.reliability.policy.RetryPolicy` protects one *request*
from a transient failure; nothing in the stack protected the *service*
from a backend that keeps failing.  Every retried call against a dead
escalation tier still pays its latency and still errors its batch — the
classic retry-storm failure mode.  :class:`CircuitBreaker` adds the
missing isolation as the textbook three-state machine:

* **closed** — all calls admitted.  Outcomes are folded into a rolling
  window on the injectable :class:`~repro.reliability.clock.Clock`;
  once the window holds at least ``min_requests`` outcomes and its
  failure rate reaches ``failure_threshold``, the breaker *opens*.
* **open** — every admission check is refused (counted as a rejection)
  until ``open_duration_s`` has elapsed, after which the next check
  transitions to *half-open*.  Refusal is what lets the caller degrade
  instantly instead of queueing doomed work behind a dead backend.
* **half-open** — exactly ``half_open_probes`` probe admissions are
  granted (deterministically: the first ``half_open_probes`` checks
  after the transition, in call order); further checks are refused
  until the probes settle.  Probe successes totalling
  ``half_open_probes`` close the breaker and reset the window; any
  probe failure re-opens it for another ``open_duration_s``.

Slow calls can be classed as failures via ``slow_call_threshold_s`` —
a frozen (hung-but-eventually-answering) backend then trips the breaker
exactly like an erroring one, which is how the serving chaos drill
isolates a freeze.

Everything is deterministic under a
:class:`~repro.reliability.clock.FakeClock` (no wall time, no
randomness), and transitions are recorded both in a bounded local log
and as ``breaker.transition`` obs spans.  Each breaker keeps its totals
in its own ``counters``, the one copy ``GET /metrics`` shows under
``resilience.breakers``.
"""

from __future__ import annotations

import threading
from collections import deque

from ..errors import CircuitOpenError, ConfigurationError
from ..obs.trace import span
from .clock import Clock, SystemClock

__all__ = ["STATE_CLOSED", "STATE_OPEN", "STATE_HALF_OPEN", "CircuitBreaker"]

#: The three breaker states, as the strings every surface reports.
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"

#: Numeric encoding of each state for Prometheus gauges (``/metrics``).
STATE_GAUGE = {STATE_CLOSED: 0.0, STATE_HALF_OPEN: 0.5, STATE_OPEN: 1.0}

#: How many state transitions the local log keeps (oldest dropped).
_TRANSITION_LOG = 64


class CircuitBreaker:
    """A closed/open/half-open failure isolator over a rolling window.

    Thread-safe: the serving dispatcher and parallel route calls may
    record outcomes concurrently.  All timing goes through the
    injectable clock, so tests drive the full state machine without
    sleeping.
    """

    def __init__(
        self,
        name: str = "backend",
        failure_threshold: float = 0.5,
        min_requests: int = 5,
        window_s: float = 30.0,
        open_duration_s: float = 10.0,
        half_open_probes: int = 2,
        slow_call_threshold_s: float | None = None,
        clock: Clock | None = None,
    ) -> None:
        """Configure the isolation policy for one backend.

        ``failure_threshold`` is the window failure *rate* in ``(0, 1]``
        that opens the breaker once ``min_requests`` outcomes are in the
        ``window_s``-second rolling window; ``open_duration_s`` is the
        cooldown before probing; ``half_open_probes`` the number of
        probe admissions (and required successes) to close again;
        ``slow_call_threshold_s`` (optional) classes slower successes as
        failures.
        """
        if not 0.0 < failure_threshold <= 1.0:
            raise ConfigurationError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if min_requests < 1:
            raise ConfigurationError(f"min_requests must be >= 1, got {min_requests}")
        if window_s <= 0 or open_duration_s <= 0:
            raise ConfigurationError("window_s and open_duration_s must be positive")
        if half_open_probes < 1:
            raise ConfigurationError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        if slow_call_threshold_s is not None and slow_call_threshold_s <= 0:
            raise ConfigurationError("slow_call_threshold_s must be positive")
        self.name = name
        self.failure_threshold = float(failure_threshold)
        self.min_requests = int(min_requests)
        self.window_s = float(window_s)
        self.open_duration_s = float(open_duration_s)
        self.half_open_probes = int(half_open_probes)
        self.slow_call_threshold_s = slow_call_threshold_s
        self.clock = clock or SystemClock()
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        #: Rolling ``(timestamp, failed)`` outcomes inside ``window_s``.
        self._window: deque[tuple[float, bool]] = deque()
        self._opened_at = 0.0
        self._probes_admitted = 0
        self._probe_successes = 0
        #: Monotonic totals (JSON-ready via :meth:`as_dict`).
        self.counters: dict[str, float] = {
            "admitted": 0,
            "rejected": 0,
            "successes": 0,
            "failures": 0,
            "slow_calls": 0,
            "opens": 0,
            "closes": 0,
            "probes": 0,
        }
        #: Bounded ``(timestamp, state)`` transition log, oldest first.
        self.transitions: deque[tuple[float, str]] = deque(maxlen=_TRANSITION_LOG)

    # -- internals (caller holds the lock) -----------------------------------

    def _transition(self, state: str, now: float) -> None:
        """Move to ``state``, logging and counting the transition."""
        self._state = state
        self.transitions.append((now, state))
        if state == STATE_OPEN:
            self._opened_at = now
            self._probes_admitted = 0
            self._probe_successes = 0
            self.counters["opens"] += 1
        elif state == STATE_CLOSED:
            self._window.clear()
            self.counters["closes"] += 1
        else:  # half-open: probe slate starts clean
            self._probes_admitted = 0
            self._probe_successes = 0
        with span("breaker.transition", breaker=self.name, to=state):
            pass

    def _prune(self, now: float) -> None:
        """Drop window outcomes older than ``window_s``."""
        horizon = now - self.window_s
        while self._window and self._window[0][0] <= horizon:
            self._window.popleft()

    def _failure_rate(self) -> tuple[int, float]:
        """``(outcomes, failure rate)`` of the current (pruned) window."""
        total = len(self._window)
        if total == 0:
            return 0, 0.0
        failed = sum(1 for _, bad in self._window if bad)
        return total, failed / total

    # -- admission -----------------------------------------------------------

    def allow(self) -> bool:
        """Whether one call may proceed right now (counts the decision).

        Closed always admits; open refuses until the cooldown elapses
        (the elapsed check itself performs the open -> half-open
        transition); half-open admits exactly ``half_open_probes``
        outstanding probes and refuses the rest.
        """
        now = self.clock.monotonic()
        with self._lock:
            if self._state == STATE_OPEN:
                if now - self._opened_at < self.open_duration_s:
                    self.counters["rejected"] += 1
                    return False
                self._transition(STATE_HALF_OPEN, now)
            if self._state == STATE_HALF_OPEN:
                if self._probes_admitted >= self.half_open_probes:
                    self.counters["rejected"] += 1
                    return False
                self._probes_admitted += 1
                self.counters["probes"] += 1
            self.counters["admitted"] += 1
            return True

    def guard(self) -> None:
        """:meth:`allow` as an exception: refuse by raising.

        Raises :class:`~repro.errors.CircuitOpenError` naming the
        breaker — the direct-call convenience for clients that have no
        cheaper tier to degrade to.
        """
        if not self.allow():
            raise CircuitOpenError(
                f"circuit breaker {self.name!r} is {self._state}"
            )

    # -- outcomes ------------------------------------------------------------

    def record_success(self, n: int = 1, duration_s: float | None = None) -> None:
        """Fold ``n`` successful outcomes in (optionally timed).

        A success slower than ``slow_call_threshold_s`` is reclassified
        as a failure — a frozen backend must trip the breaker even
        though its calls eventually return.
        """
        if (
            self.slow_call_threshold_s is not None
            and duration_s is not None
            and duration_s > self.slow_call_threshold_s
        ):
            with self._lock:
                self.counters["slow_calls"] += n
            self.record_failure(n)
            return
        now = self.clock.monotonic()
        with self._lock:
            self.counters["successes"] += n
            if self._state == STATE_HALF_OPEN:
                self._probe_successes += n
                if self._probe_successes >= self.half_open_probes:
                    self._transition(STATE_CLOSED, now)
                return
            self._prune(now)
            for _ in range(n):
                self._window.append((now, False))

    def record_failure(self, n: int = 1) -> None:
        """Fold ``n`` failed outcomes in (opens the breaker when due)."""
        now = self.clock.monotonic()
        with self._lock:
            self.counters["failures"] += n
            if self._state == STATE_HALF_OPEN:
                # A failed probe: back to open for another cooldown.
                self._transition(STATE_OPEN, now)
                return
            if self._state == STATE_OPEN:
                return
            self._prune(now)
            for _ in range(n):
                self._window.append((now, True))
            total, rate = self._failure_rate()
            if total >= self.min_requests and rate >= self.failure_threshold:
                self._transition(STATE_OPEN, now)

    # -- introspection -------------------------------------------------------

    @property
    def state(self) -> str:
        """The current state string (``closed``/``open``/``half_open``).

        Reading the state performs the lazy open -> half-open check, so
        a breaker whose cooldown elapsed reports ``half_open`` even if
        no admission has been attempted yet.
        """
        now = self.clock.monotonic()
        with self._lock:
            if (
                self._state == STATE_OPEN
                and now - self._opened_at >= self.open_duration_s
            ):
                self._transition(STATE_HALF_OPEN, now)
            return self._state

    def state_gauge(self) -> float:
        """Numeric state for Prometheus (0 closed, 0.5 half-open, 1 open)."""
        return STATE_GAUGE[self.state]

    def as_dict(self) -> dict:
        """JSON-ready breaker state for ``/metrics`` and ``/healthz``."""
        state = self.state  # runs the lazy half-open check first
        with self._lock:
            self._prune(self.clock.monotonic())
            total, rate = self._failure_rate()
            return {
                "name": self.name,
                "state": state,
                "window_requests": total,
                "window_failure_rate": round(rate, 4),
                "counters": {
                    k: (int(v) if float(v).is_integer() else v)
                    for k, v in self.counters.items()
                },
                "transitions": [
                    {"t": round(t, 6), "state": s} for t, s in self.transitions
                ],
            }
