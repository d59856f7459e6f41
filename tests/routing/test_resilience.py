"""Tests for the router's resilience: breakers, failures, deadlines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TransientLLMError
from repro.matchers.base import Matcher
from repro.reliability.breaker import (
    CircuitBreaker,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.reliability.budget import DeadlineBudget
from repro.reliability.clock import FakeClock
from repro.routing import MatchRouter, RoutedBackend
from tests.conftest import make_pair


class _FixedScoreMatcher(Matcher):
    """Scores each pair by a number parsed out of its pair_id suffix."""

    name = "fixed"
    display_name = "Fixed"

    def _predict(self, pairs, serialization_seed):
        return (self.match_scores(pairs, serialization_seed) >= 0.5).astype(np.int64)

    def match_scores(self, pairs, serialization_seed=None):
        return np.array([float(p.pair_id.split(":")[1]) for p in pairs])


class _FlakyAuthority(Matcher):
    """Answers 1, failing its first ``n_failures`` calls."""

    name = "flaky"
    display_name = "Flaky"

    def __init__(self, n_failures: int = 0) -> None:
        super().__init__()
        self.n_failures = n_failures
        self.calls = 0

    def _predict(self, pairs, serialization_seed):
        self.calls += 1
        if self.calls <= self.n_failures:
            raise TransientLLMError("authority down")
        return np.ones(len(pairs), dtype=np.int64)


class _FrozenAuthority(Matcher):
    """Answers 1, but each call advances the clock by ``stall_s``."""

    name = "frozen"
    display_name = "Frozen"

    def __init__(self, clock: FakeClock, stall_s: float) -> None:
        super().__init__()
        self.clock = clock
        self.stall_s = stall_s

    def _predict(self, pairs, serialization_seed):
        self.clock.advance(self.stall_s)
        return np.ones(len(pairs), dtype=np.int64)


def _scored_pair(score: float, index: int = 0):
    return make_pair(
        ("alpha beta gamma",), ("alpha beta delta",), label=1,
        pair_id=f"p{index}:{score}",
    )


def _router(authority: Matcher, breaker=None, clock=None, **kwargs) -> MatchRouter:
    return MatchRouter(
        backends=[
            RoutedBackend(
                name="cheap", matcher=_FixedScoreMatcher(), low=0.3, high=0.7
            ),
            RoutedBackend(name="expensive", matcher=authority, breaker=breaker),
        ],
        clock=clock,
        **kwargs,
    )


class TestBreakerGatesEscalation:
    def test_open_breaker_degrades_to_the_band_midpoint(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            name="expensive", min_requests=1, failure_threshold=1.0,
            clock=clock,
        )
        breaker.record_failure(1)
        assert breaker.state == STATE_OPEN
        authority = _FlakyAuthority()
        router = _router(authority, breaker=breaker, clock=clock)
        decisions = router.route([_scored_pair(0.6), _scored_pair(0.35, 1)])
        # Both pairs are in-band; the open breaker stops both escalations.
        assert all(d.breaker_open for d in decisions)
        assert all(d.backend == "cheap" for d in decisions)
        assert [d.label for d in decisions] == [1, 0]  # midpoint 0.5
        assert authority.calls == 0  # no call ever reached the backend
        assert router.counters["breaker_open"] == 2

    def test_out_of_band_pairs_never_touch_the_breaker(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            name="expensive", min_requests=1, failure_threshold=1.0,
            clock=clock,
        )
        breaker.record_failure(1)
        router = _router(_FlakyAuthority(), breaker=breaker, clock=clock)
        decisions = router.route([_scored_pair(0.9), _scored_pair(0.1, 1)])
        assert not any(d.breaker_open for d in decisions)
        assert [d.label for d in decisions] == [1, 0]


class TestBackendFailureDegrades:
    def test_escalated_failure_degrades_instead_of_erroring(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            name="expensive", min_requests=3, failure_threshold=1.0,
            clock=clock,
        )
        router = _router(
            _FlakyAuthority(n_failures=100), breaker=breaker, clock=clock
        )
        decisions = router.route([_scored_pair(0.6)])
        assert len(decisions) == 1
        assert decisions[0].backend_failed
        assert decisions[0].backend == "cheap"
        assert decisions[0].label == 1
        assert router.counters["backend_failures"] == 1

    def test_repeated_failures_open_the_breaker(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            name="expensive", min_requests=3, failure_threshold=1.0,
            clock=clock,
        )
        authority = _FlakyAuthority(n_failures=100)
        router = _router(authority, breaker=breaker, clock=clock)
        for i in range(3):
            router.route([_scored_pair(0.6, i)])
        assert breaker.state == STATE_OPEN
        calls_when_opened = authority.calls
        # Further traffic degrades without calling the dead backend.
        decisions = router.route([_scored_pair(0.6, 9)])
        assert decisions[0].breaker_open
        assert authority.calls == calls_when_opened

    def test_entry_rung_failure_still_propagates(self):
        class _DeadEntry(Matcher):
            name = "dead"
            display_name = "Dead"

            def _predict(self, pairs, serialization_seed):
                raise TransientLLMError("entry down")

            def match_scores(self, pairs, serialization_seed=None):
                raise TransientLLMError("entry down")

        router = MatchRouter(
            backends=[
                RoutedBackend(name="cheap", matcher=_DeadEntry(), low=0.3, high=0.7),
                RoutedBackend(name="expensive", matcher=_FlakyAuthority()),
            ],
        )
        with pytest.raises(TransientLLMError):
            router.route([_scored_pair(0.6)])


class TestFrozenBackendIsolation:
    def test_slow_calls_trip_the_breaker(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            name="expensive", min_requests=2, failure_threshold=1.0,
            slow_call_threshold_s=1.0, clock=clock,
        )
        authority = _FrozenAuthority(clock, stall_s=5.0)
        router = _router(authority, breaker=breaker, clock=clock)
        for i in range(2):
            decisions = router.route([_scored_pair(0.6, i)])
            # The frozen backend still answers...
            assert decisions[0].backend == "expensive"
        # ...but its slowness opened the breaker all the same.
        assert breaker.state == STATE_OPEN
        assert breaker.counters["slow_calls"] == 2


class TestDeadlineDegradation:
    def test_expired_budget_stops_escalation(self):
        clock = FakeClock()
        budget = DeadlineBudget(1.0, clock=clock)
        clock.advance(2.0)
        authority = _FlakyAuthority()
        router = _router(authority, clock=clock)
        decisions = router.route([_scored_pair(0.6)], budget=budget)
        assert decisions[0].deadline_limited
        assert decisions[0].backend == "cheap"
        assert authority.calls == 0
        assert router.counters["deadline_limited"] == 1

    def test_live_budget_escalates_normally(self):
        clock = FakeClock()
        budget = DeadlineBudget(10.0, clock=clock)
        router = _router(_FlakyAuthority(), clock=clock)
        decisions = router.route([_scored_pair(0.6)], budget=budget)
        assert not decisions[0].deadline_limited
        assert decisions[0].backend == "expensive"


class TestRecovery:
    def test_breaker_closes_after_successful_probes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            name="expensive", min_requests=2, failure_threshold=1.0,
            open_duration_s=10.0, half_open_probes=1, clock=clock,
        )
        authority = _FlakyAuthority(n_failures=2)
        router = _router(authority, breaker=breaker, clock=clock)
        for i in range(2):
            router.route([_scored_pair(0.6, i)])
        assert breaker.state == STATE_OPEN
        clock.advance(10.0)
        assert breaker.state == STATE_HALF_OPEN
        # The recovered backend answers the probe; the breaker closes.
        decisions = router.route([_scored_pair(0.6, 5)])
        assert decisions[0].backend == "expensive"
        assert not decisions[0].breaker_open
        assert breaker.state == STATE_CLOSED


class TestIntrospection:
    def test_state_includes_breaker_and_resilience_counters(self):
        clock = FakeClock()
        breaker = CircuitBreaker(name="expensive", clock=clock)
        router = _router(_FlakyAuthority(), breaker=breaker, clock=clock)
        state = router.state()
        by_name = {b["name"]: b for b in state["backends"]}
        assert by_name["cheap"]["breaker"] is None
        assert by_name["expensive"]["breaker"]["state"] == STATE_CLOSED
        for key in ("breaker_open", "backend_failures", "deadline_limited"):
            assert state["counters"][key] == 0
