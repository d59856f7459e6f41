"""Tests for the micro-batching scheduler."""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ServingError,
)
from repro.reliability.budget import DeadlineBudget
from repro.reliability.clock import FakeClock
from repro.serving.scheduler import MicroBatcher, PendingResult


def _doubler(items, budget):
    return [item * 2 for item in items]


class TestInlineMode:
    def test_drain_processes_fifo_batches(self):
        seen_batches = []

        def record(items, budget):
            seen_batches.append(list(items))
            return items

        batcher = MicroBatcher(record, max_batch_size=3)
        pending = [batcher.submit(i) for i in range(7)]
        assert batcher.queue_depth == 7
        assert batcher.drain() == 3
        assert seen_batches == [[0, 1, 2], [3, 4, 5], [6]]
        assert [p.result(0) for p in pending] == list(range(7))

    def test_drain_on_empty_queue_is_a_noop(self):
        batcher = MicroBatcher(_doubler)
        assert batcher.drain() == 0

    def test_counters_track_batches_and_occupancy(self):
        batcher = MicroBatcher(_doubler, max_batch_size=4)
        for i in range(6):
            batcher.submit(i)
        batcher.drain()
        counters = batcher.counters()
        assert counters["submitted"] == 6
        assert counters["batches"] == 2
        assert counters["processed"] == 6
        assert counters["occupancy_sum"] == 6  # 4 + 2

    def test_batch_budget_is_the_second_argument(self):
        clock = FakeClock()
        seen = []

        def record(items, budget):
            seen.append(budget)
            return items

        batcher = MicroBatcher(record, clock=clock)
        batcher.submit(1)
        batcher.drain()
        loose = DeadlineBudget(10.0, clock=clock)
        tight = DeadlineBudget(2.0, clock=clock)
        batcher.submit(2, budget=loose)
        batcher.submit(3, budget=tight)
        batcher.drain()
        # No entry carried a budget, then the tightest one of the batch.
        assert seen == [None, tight]

    def test_latency_measured_on_injected_clock(self):
        clock = FakeClock()
        batcher = MicroBatcher(_doubler, clock=clock)
        pending = batcher.submit(1)
        clock.advance(0.25)
        batcher.drain()
        assert pending.latency_s == pytest.approx(0.25)


class TestAdmissionControl:
    def test_overload_sheds_with_structured_error(self):
        batcher = MicroBatcher(_doubler, max_queue=2)
        batcher.submit(1)
        batcher.submit(2)
        assert batcher.saturated
        with pytest.raises(OverloadedError):
            batcher.submit(3)
        assert batcher.counters()["shed"] == 1
        # Shedding rejected the caller without growing the queue.
        assert batcher.queue_depth == 2

    def test_drain_clears_saturation(self):
        batcher = MicroBatcher(_doubler, max_queue=1)
        batcher.submit(1)
        assert batcher.saturated
        batcher.drain()
        assert not batcher.saturated
        batcher.submit(2)  # admitted again

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(_doubler, max_batch_size=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(_doubler, max_wait_ms=-1.0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(_doubler, max_queue=0)


class TestFailureDelivery:
    def test_batch_error_delivered_to_every_request(self):
        def boom(items, budget):
            raise ValueError("model fell over")

        batcher = MicroBatcher(boom, max_batch_size=2)
        pending = [batcher.submit(i) for i in range(2)]
        batcher.drain()
        for p in pending:
            assert p.done
            with pytest.raises(ValueError, match="fell over"):
                p.result(0)
        assert batcher.counters()["batch_errors"] == 1

    def test_result_count_mismatch_is_a_serving_error(self):
        batcher = MicroBatcher(lambda items, budget: [1])
        pending = [batcher.submit(i) for i in range(3)]
        batcher.drain()
        with pytest.raises(ServingError, match="returned 1 results"):
            pending[0].result(0)

    def test_result_timeout_raises_deadline(self):
        pending = PendingResult(submitted_at=0.0)
        with pytest.raises(DeadlineExceededError):
            pending.result(timeout_s=0.01)


class TestThreadedMode:
    def test_concurrent_submits_coalesce(self):
        release = threading.Event()

        def gated(items, budget):
            release.wait(5.0)
            return [item * 2 for item in items]

        with MicroBatcher(gated, max_batch_size=8, max_wait_ms=50.0) as batcher:
            pending = [batcher.submit(i) for i in range(8)]
            release.set()
            assert [p.result(5.0) for p in pending] == [i * 2 for i in range(8)]
        counters = batcher.counters()
        # A full batch forms as soon as 8 requests are queued; the
        # dispatcher may have grabbed a head-of-queue partial first, but
        # every request is processed in at most a handful of batches.
        assert counters["processed"] == 8
        assert 1 <= counters["batches"] <= 8

    def test_max_wait_flushes_partial_batch(self):
        with MicroBatcher(_doubler, max_batch_size=64, max_wait_ms=5.0) as batcher:
            pending = batcher.submit(21)
            assert pending.result(5.0) == 42

    def test_double_start_rejected(self):
        batcher = MicroBatcher(_doubler).start()
        try:
            with pytest.raises(ServingError):
                batcher.start()
        finally:
            batcher.stop()

    def test_stop_drains_leftovers(self):
        batcher = MicroBatcher(_doubler)
        pending = batcher.submit(5)  # never started: queued only
        batcher.stop()
        assert pending.result(0) == 10


class TestLengthBucketedMode:
    """``length_key`` forms similar-length batches without starving anyone."""

    def test_batches_group_similar_lengths(self):
        seen_batches = []

        def record(items, budget):
            seen_batches.append(list(items))
            return [item * 2 for item in items]

        batcher = MicroBatcher(record, max_batch_size=3, length_key=lambda x: x)
        pending = [batcher.submit(n) for n in (9, 1, 8, 2, 7, 3)]
        assert batcher.drain() == 2
        # The window holding the oldest request (9) goes first; the rest
        # batch together in length order.
        assert seen_batches == [[7, 8, 9], [1, 2, 3]]
        # Every submitter still receives its own request's result.
        assert [p.result(0) for p in pending] == [18, 2, 16, 4, 14, 6]

    def test_oldest_request_never_starves(self):
        seen_batches = []

        def record(items, budget):
            seen_batches.append(list(items))
            return items

        batcher = MicroBatcher(record, max_batch_size=2, length_key=lambda x: x)
        batcher.submit(100)  # a long outlier, admitted first
        for short in (1, 2, 3):
            batcher.submit(short)
        batcher.drain()
        # A pure shortest-first policy would keep deferring 100; the
        # window is anchored so the oldest request rides the first batch.
        assert 100 in seen_batches[0]

    def test_admission_control_unaffected(self):
        batcher = MicroBatcher(_doubler, max_queue=2, length_key=lambda x: x)
        batcher.submit(1)
        batcher.submit(2)
        with pytest.raises(OverloadedError):
            batcher.submit(3)

    def test_without_length_key_order_is_fifo(self):
        seen_batches = []

        def record(items, budget):
            seen_batches.append(list(items))
            return items

        batcher = MicroBatcher(record, max_batch_size=3)
        for n in (9, 1, 8, 2, 7, 3):
            batcher.submit(n)
        batcher.drain()
        assert seen_batches == [[9, 1, 8], [2, 7, 3]]
