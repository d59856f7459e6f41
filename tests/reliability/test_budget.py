"""Tests for DeadlineBudget: accounting, expiry, staged errors."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, DeadlineExceededError
from repro.reliability.budget import DeadlineBudget
from repro.reliability.clock import FakeClock


class TestAccounting:
    def test_total_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            DeadlineBudget(0.0)

    def test_elapsed_and_remaining_track_the_clock(self):
        clock = FakeClock()
        budget = DeadlineBudget(10.0, clock=clock)
        assert budget.remaining() == 10.0
        clock.advance(4.0)
        assert budget.elapsed() == 4.0
        assert budget.remaining() == 6.0
        assert not budget.expired

    def test_remaining_clamps_at_zero(self):
        clock = FakeClock()
        budget = DeadlineBudget(1.0, clock=clock)
        clock.advance(5.0)
        assert budget.remaining() == 0.0
        assert budget.expired

    def test_a_wait_fits_only_if_it_ends_before_the_budget(self):
        clock = FakeClock()
        budget = DeadlineBudget(2.0, clock=clock)
        assert budget.fits(1.5)
        assert not budget.fits(2.0)  # the equality edge does not fit
        clock.advance(2.0)
        assert not budget.fits(0.0)
        assert budget.expired


class TestCheck:
    def test_check_passes_while_time_remains(self):
        budget = DeadlineBudget(10.0, clock=FakeClock())
        budget.check("any.stage")  # no raise

    def test_check_raises_naming_the_stage(self):
        clock = FakeClock()
        budget = DeadlineBudget(1.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceededError) as excinfo:
            budget.check("scheduler.queue")
        assert excinfo.value.stage == "scheduler.queue"
        assert "scheduler.queue" in str(excinfo.value)

