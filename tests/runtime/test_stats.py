"""Tests for the runtime stats accounting."""

from __future__ import annotations

import pytest

from repro.reliability import counters
from repro.runtime.stats import RuntimeStats


class TestPhases:
    def test_phase_accumulates_and_reenters(self):
        stats = RuntimeStats()
        with stats.phase("table3"):
            pass
        first = stats.phase_seconds["table3"]
        with stats.phase("table3"):
            pass
        assert stats.phase_seconds["table3"] >= first
        assert list(stats.phase_seconds) == ["table3"]

    def test_phase_records_on_exception(self):
        stats = RuntimeStats()
        with pytest.raises(RuntimeError):
            with stats.phase("boom"):
                raise RuntimeError
        assert "boom" in stats.phase_seconds


class TestTasksAndSpeedup:
    def test_task_accounting(self):
        stats = RuntimeStats(workers=4, backend="thread")
        stats.record_tasks("table3", 11, 22.0)
        stats.record_tasks("table3", 11, 11.0)
        assert stats.n_tasks == 22
        assert stats.phase_task_seconds["table3"] == pytest.approx(33.0)

    def test_speedup_is_task_over_wall(self):
        stats = RuntimeStats(workers=2)
        stats.phase_seconds["grid"] = 10.0
        stats.record_tasks("grid", 4, 30.0)
        assert stats.speedup_vs_serial("grid") == pytest.approx(3.0)

    def test_speedup_none_without_tasks(self):
        stats = RuntimeStats()
        stats.phase_seconds["static"] = 1.0
        assert stats.speedup_vs_serial("static") is None


class TestCacheMergeAndSerialisation:
    def test_merge_cache_deltas(self):
        stats = RuntimeStats()
        stats.merge_cache({"hits": 3, "misses": 1, "saved_dollars": 0.5})
        stats.merge_cache({"hits": 1, "misses": 1, "saved_prompt_tokens": 10})
        assert stats.cache_counters["hits"] == 4
        assert stats.cache_hit_rate == pytest.approx(4 / 6)

    def test_as_dict_shape(self):
        stats = RuntimeStats(workers=2, backend="thread")
        with stats.phase("table3"):
            pass
        stats.record_tasks("table3", 5, 1.0)
        stats.merge_cache({"hits": 2, "misses": 2})
        block = stats.as_dict()
        assert block["workers"] == 2
        assert block["backend"] == "thread"
        assert block["phases"]["table3"]["tasks"] == 5
        assert block["cache"]["hit_rate"] == pytest.approx(0.5)
        assert block["total_wall_seconds"] >= 0

    def test_reliability_block_keys_and_types(self):
        """A cell tally's counter keys, then the grid's; ints but one float."""
        block = RuntimeStats().as_dict()["reliability"]
        assert list(block) == [*counters.COUNTER_KEYS, "cell_retries", "cell_failures"]
        assert repr(block["retry_sleep_seconds"]) == "0.0"
        assert all(
            repr(value) == "0" for key, value in block.items()
            if key != "retry_sleep_seconds"
        )

    def test_footer_mentions_cache_when_used(self):
        stats = RuntimeStats()
        stats.merge_cache({"hits": 1, "misses": 1})
        assert "cache" in stats.footer()
        assert "backend=serial" in stats.footer()

    def test_footer_reliability_line_needs_a_printed_count(self):
        stats = RuntimeStats()
        stats.merge_reliability({"attempts": 120, "retry_sleep_seconds": 0.0})
        assert not stats.reliability_active
        assert "reliability" not in stats.footer()
        stats.merge_reliability({"request_retries": 1})
        assert stats.reliability_active
        assert (
            "reliability: 1 request retries, 0 faults injected, "
            "0 cell retries, 0 cell failures" in stats.footer()
        )
