"""Tests for the metrics registry: series semantics, merge, rendering."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
)
from repro.runtime.executor import make_executor


class FakeClock:
    """A monotonically advancing manual clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now


class TestCounters:
    def test_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", 1, model="a")
        reg.counter("requests_total", 2, model="a")
        reg.counter("requests_total", 5, model="b")
        snap = reg.snapshot()
        values = {tuple(c["labels"].items()): c["value"] for c in snap["counters"]}
        assert values[(("model", "a"),)] == 3
        assert values[(("model", "b"),)] == 5

    def test_name_is_a_legal_label_key(self):
        # Registry methods take their metric name positionally-only, so a
        # label literally called ``name`` (the span-feed convention) works.
        reg = MetricsRegistry()
        reg.counter("spans_total", 1, name="grid.cell", status="ok")
        [counter] = reg.snapshot()["counters"]
        assert counter["labels"] == {"name": "grid.cell", "status": "ok"}


class TestGauges:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("workers", 4)
        reg.gauge("workers", 8)
        [gauge] = reg.snapshot()["gauges"]
        assert gauge["value"] == 8


class TestHistograms:
    def test_bucket_boundaries_are_inclusive_upper(self):
        reg = MetricsRegistry()
        buckets = (1.0, 2.0, 4.0)
        # Exactly-on-boundary observations land in that bucket (`le`
        # semantics); anything beyond the last bound is overflow.
        for value in (0.5, 1.0, 1.5, 2.0, 4.0, 4.0001, 100.0):
            reg.histogram("lat", value, buckets=buckets)
        [hist] = reg.snapshot()["histograms"]
        assert hist["buckets"] == [1.0, 2.0, 4.0]
        assert hist["counts"] == [2, 2, 1, 2]  # len(buckets) + 1 (overflow)
        assert hist["count"] == 7
        assert hist["sum"] == pytest.approx(113.0001)

    def test_redeclaring_different_buckets_is_an_error(self):
        reg = MetricsRegistry()
        reg.histogram("lat", 0.5, buckets=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            reg.histogram("lat", 0.5, buckets=(1.0, 3.0))

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_timed_observes_clock_delta(self):
        clock = FakeClock()
        reg = MetricsRegistry(clock=clock)
        with reg.timed("phase_seconds", phase="t3"):
            clock.now += 2.5
        [hist] = reg.snapshot()["histograms"]
        assert hist["sum"] == pytest.approx(2.5)
        assert hist["count"] == 1


def _registry_with(counter: float, observations: tuple[float, ...]) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("n", counter)
    reg.gauge("g", counter)
    for value in observations:
        reg.histogram("h", value, buckets=(1.0, 10.0))
    return reg


class TestMerge:
    def test_merge_is_associative(self):
        parts = [
            _registry_with(1, (0.5,)).snapshot(),
            _registry_with(2, (5.0, 20.0)).snapshot(),
            _registry_with(4, (0.1, 0.2)).snapshot(),
        ]
        left = MetricsRegistry()
        left.merge(parts[0])
        left.merge(parts[1])
        left.merge(parts[2])

        inner = MetricsRegistry()
        inner.merge(parts[1])
        inner.merge(parts[2])
        right = MetricsRegistry()
        right.merge(parts[0])
        right.merge(inner.snapshot())

        left_snap, right_snap = left.snapshot(), right.snapshot()
        assert left_snap["counters"] == right_snap["counters"]
        assert left_snap["histograms"] == right_snap["histograms"]

    def test_merge_adds_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.merge(_registry_with(1, (0.5,)).snapshot())
        reg.merge(_registry_with(2, (5.0,)).snapshot())
        snap = reg.snapshot()
        [counter] = snap["counters"]
        assert counter["value"] == 3
        [hist] = snap["histograms"]
        assert hist["counts"] == [1, 1, 0]
        assert hist["count"] == 2

    def test_merge_bucket_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.histogram("h", 0.5, buckets=(1.0,))
        other = MetricsRegistry()
        other.histogram("h", 0.5, buckets=(2.0,))
        with pytest.raises(ConfigurationError):
            reg.merge(other.snapshot())


class TestThreadSafety:
    def test_concurrent_updates_under_executor_pool(self):
        reg = MetricsRegistry()
        per_task = 500

        def hammer(task: int) -> int:
            for i in range(per_task):
                reg.counter("ops_total", 1, worker=str(task % 2))
                reg.histogram("lat", (i % 7) * 0.01, buckets=(0.02, 0.05))
            return task

        executor = make_executor(workers=4, backend="thread")
        try:
            executor.map_tasks(hammer, list(range(8)))
        finally:
            executor.close()
        snap = reg.snapshot()
        assert sum(c["value"] for c in snap["counters"]) == 8 * per_task
        [hist] = snap["histograms"]
        assert hist["count"] == 8 * per_task

    def test_concurrent_updates_raw_threads(self):
        reg = MetricsRegistry()

        def hammer() -> None:
            for _ in range(1000):
                reg.counter("ops_total", 1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        [counter] = reg.snapshot()["counters"]
        assert counter["value"] == 8000


class TestPrometheusRendering:
    def test_rendering_is_deterministic_and_cumulative(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", 2, model="b")
        reg.counter("requests_total", 1, model="a")
        reg.gauge("workers", 4)
        reg.histogram("lat_seconds", 0.5, buckets=(1.0, 2.0))
        reg.histogram("lat_seconds", 1.5, buckets=(1.0, 2.0))
        text = reg.render_prometheus()
        assert text == reg.render_prometheus()  # deterministic
        lines = text.splitlines()
        assert "# TYPE requests_total counter" in lines
        assert 'requests_total{model="a"} 1' in lines
        assert 'requests_total{model="b"} 2' in lines
        assert "workers 4" in lines
        # Prometheus histogram buckets are cumulative and end at +Inf.
        assert 'lat_seconds_bucket{le="1"} 1' in lines
        assert 'lat_seconds_bucket{le="2"} 2' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "lat_seconds_count 2" in lines

    def test_label_ordering_is_sorted(self):
        reg = MetricsRegistry()
        reg.counter("x_total", 1, zeta="1", alpha="2")
        assert 'x_total{alpha="2",zeta="1"} 1' in reg.render_prometheus()
