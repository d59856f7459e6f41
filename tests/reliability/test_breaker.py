"""Tests for CircuitBreaker: state machine, windows, probes, counters."""

from __future__ import annotations

import pytest

from repro.errors import CircuitOpenError, ConfigurationError
from repro.reliability.breaker import (
    CircuitBreaker,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.reliability.clock import FakeClock


def _breaker(**kwargs) -> tuple[CircuitBreaker, FakeClock]:
    clock = FakeClock()
    defaults = dict(
        name="test",
        failure_threshold=0.5,
        min_requests=4,
        window_s=30.0,
        open_duration_s=10.0,
        half_open_probes=2,
        clock=clock,
    )
    defaults.update(kwargs)
    return CircuitBreaker(**defaults), clock


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(failure_threshold=0.0),
            dict(failure_threshold=1.5),
            dict(min_requests=0),
            dict(window_s=0.0),
            dict(open_duration_s=0.0),
            dict(half_open_probes=0),
            dict(slow_call_threshold_s=0.0),
        ],
    )
    def test_bad_config_is_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            _breaker(**bad)


class TestClosedToOpen:
    def test_starts_closed_and_admits(self):
        breaker, _clock = _breaker()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_opens_at_the_failure_threshold(self):
        breaker, _clock = _breaker(min_requests=4, failure_threshold=0.5)
        breaker.record_success(2)
        breaker.record_failure(1)
        assert breaker.state == STATE_CLOSED  # 1/3 < 0.5
        breaker.record_failure(1)
        assert breaker.state == STATE_OPEN  # 2/4 >= 0.5
        assert breaker.counters["opens"] == 1

    def test_min_requests_gates_the_rate_check(self):
        breaker, _clock = _breaker(min_requests=10)
        breaker.record_failure(5)  # 100% failing but below volume floor
        assert breaker.state == STATE_CLOSED

    def test_old_outcomes_fall_out_of_the_window(self):
        breaker, clock = _breaker(min_requests=4, window_s=30.0)
        breaker.record_failure(3)
        clock.advance(31.0)
        breaker.record_success(2)
        breaker.record_failure(2)  # rate 2/4 but the 3 old failures pruned
        assert breaker.state == STATE_OPEN  # 2/4 = 0.5 >= threshold
        # Sanity: had the old failures survived, opening would have
        # happened already at the first new failure.

    def test_batched_outcomes_count_per_item(self):
        breaker, _clock = _breaker(min_requests=4)
        breaker.record_failure(4)
        assert breaker.state == STATE_OPEN


class TestOpenAndRefusal:
    def test_open_refuses_until_cooldown(self):
        breaker, clock = _breaker(open_duration_s=10.0)
        breaker.record_failure(4)
        assert not breaker.allow()
        assert breaker.counters["rejected"] == 1
        clock.advance(9.9)
        assert not breaker.allow()

    def test_guard_raises_circuit_open(self):
        breaker, _clock = _breaker()
        breaker.record_failure(4)
        with pytest.raises(CircuitOpenError):
            breaker.guard()

    def test_failures_while_open_do_not_extend_cooldown(self):
        breaker, clock = _breaker(open_duration_s=10.0)
        breaker.record_failure(4)
        clock.advance(5.0)
        breaker.record_failure(1)
        clock.advance(5.0)
        assert breaker.state == STATE_HALF_OPEN


class TestHalfOpen:
    def _opened(self, **kwargs):
        breaker, clock = _breaker(**kwargs)
        breaker.record_failure(4)
        clock.advance(breaker.open_duration_s)
        return breaker, clock

    def test_cooldown_transitions_lazily_to_half_open(self):
        breaker, _clock = self._opened()
        assert breaker.state == STATE_HALF_OPEN

    def test_admits_exactly_the_probe_quota(self):
        breaker, _clock = self._opened(half_open_probes=2)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # quota consumed, deterministic
        assert breaker.counters["probes"] == 2

    def test_probe_successes_close_the_breaker(self):
        breaker, _clock = self._opened(half_open_probes=2)
        assert breaker.allow() and breaker.allow()
        breaker.record_success(2)
        assert breaker.state == STATE_CLOSED
        assert breaker.counters["closes"] == 1
        # The window was reset: old failures cannot instantly re-open.
        breaker.record_failure(1)
        assert breaker.state == STATE_CLOSED

    def test_probe_failure_reopens_for_another_cooldown(self):
        breaker, clock = self._opened()
        assert breaker.allow()
        breaker.record_failure(1)
        assert breaker.state == STATE_OPEN
        assert breaker.counters["opens"] == 2
        clock.advance(breaker.open_duration_s)
        assert breaker.state == STATE_HALF_OPEN


class TestSlowCalls:
    def test_slow_success_counts_as_failure(self):
        breaker, _clock = _breaker(slow_call_threshold_s=1.0, min_requests=4)
        for _ in range(4):
            breaker.record_success(1, duration_s=2.0)
        assert breaker.state == STATE_OPEN
        assert breaker.counters["slow_calls"] == 4

    def test_fast_success_is_a_success(self):
        breaker, _clock = _breaker(slow_call_threshold_s=1.0)
        breaker.record_success(4, duration_s=0.5)
        assert breaker.counters["successes"] == 4
        assert breaker.counters["slow_calls"] == 0

    def test_untimed_success_is_never_reclassified(self):
        breaker, _clock = _breaker(slow_call_threshold_s=1.0)
        breaker.record_success(4)
        assert breaker.counters["slow_calls"] == 0


class TestIntrospection:
    def test_as_dict_shape_and_transition_log(self):
        breaker, clock = _breaker()
        breaker.record_failure(4)
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure(1)
        state = breaker.as_dict()
        assert state["name"] == "test"
        assert state["state"] == STATE_OPEN
        assert [t["state"] for t in state["transitions"]] == [
            STATE_OPEN, STATE_HALF_OPEN, STATE_OPEN,
        ]
        assert state["counters"]["opens"] == 2

    def test_state_gauge_encoding(self):
        breaker, clock = _breaker()
        assert breaker.state_gauge() == 0.0
        breaker.record_failure(4)
        assert breaker.state_gauge() == 1.0
        clock.advance(10.0)
        assert breaker.state_gauge() == 0.5

    def test_counters_tally_one_open_probe_close_cycle(self):
        breaker, clock = _breaker()
        breaker.record_failure(4)
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success(2)
        assert breaker.counters["opens"] == 1
        assert breaker.counters["closes"] == 1
        assert breaker.counters["failures"] == 4
        assert breaker.counters["rejected"] == 1
        assert breaker.counters["probes"] == 1
