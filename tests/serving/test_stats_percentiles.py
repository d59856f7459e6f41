"""ServingStats latency-summary edge cases.

The percentile path has three classic off-by-one traps — a single
sample, nearest-rank selection near the tail, and degenerate all-equal
windows — plus one aggregation contract: the all-time count survives
window eviction.
"""

from __future__ import annotations

from repro.serving.service import ServingStats


def test_single_sample_window_collapses_every_percentile_to_it():
    stats = ServingStats()
    stats.record_latency(0.042)
    summary = stats.latency_summary()
    assert summary["count"] == 1
    assert (
        summary["mean_ms"] == summary["p50_ms"] == summary["p95_ms"]
        == summary["p99_ms"] == summary["max_ms"] == 42.0
    )


def test_nearest_rank_percentiles_over_twenty_samples():
    stats = ServingStats()
    for ms in range(1, 21):  # 1..20 ms, recorded out of order
        stats.record_latency(((ms * 7) % 20 + 1) / 1000.0)
    summary = stats.latency_summary()
    assert summary["count"] == 20
    # Nearest rank over indices 0..19: p50 -> index 10, p95 -> 18, p99 -> 19.
    assert summary["p50_ms"] == 11.0
    assert summary["p95_ms"] == 19.0
    assert summary["p99_ms"] == 20.0 == summary["max_ms"]
    assert summary["mean_ms"] == 10.5


def test_all_equal_latencies_yield_flat_percentiles():
    stats = ServingStats()
    for _ in range(7):
        stats.record_latency(0.005)
    summary = stats.latency_summary()
    assert (
        summary["mean_ms"] == summary["p50_ms"] == summary["p95_ms"]
        == summary["p99_ms"] == summary["max_ms"] == 5.0
    )


def test_empty_summary_is_explicit_zeros_with_full_schema():
    summary = ServingStats().latency_summary()
    assert summary == {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
                       "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}


def test_count_is_all_time_while_percentiles_track_the_window():
    stats = ServingStats()
    stats.record_latency(0.5)  # will be evicted from the window
    for _ in range(ServingStats.WINDOW):
        stats.record_latency(0.001)
    summary = stats.latency_summary()
    assert summary["count"] == ServingStats.WINDOW + 1
    assert summary["max_ms"] == 1.0  # the 500 ms outlier left the window
