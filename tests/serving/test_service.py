"""Tests for the MatchService façade: determinism, retries, shedding."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ServingError,
    TransientLLMError,
)
from repro.llm.client import EchoClient
from repro.matchers.base import Matcher
from repro.matchers.matchgpt import MatchGPTMatcher
from repro.matchers.string_sim import StringSimMatcher
from repro.reliability.clock import FakeClock
from repro.reliability.faults import FaultInjector, FaultPlan
from repro.reliability.policy import RetryPolicy
from repro.reliability.retry import RetryingClient
from repro.serving.index import CandidateIndex
from repro.serving.service import MatchService

TRACE = [
    (["sony mdr headphones", "audio"], ["sony mdr headphones", "audio"]),
    (["sony mdr headphones", "audio"], ["nikon lens kit", "optics"]),
    (["ipa beer 6.5 abv", "hoppy"], ["ipa beer 6.5 abv", "hoppy"]),
    (["canon eos camera", "photo"], ["canon eos r5", "photo"]),
] * 3


def _run_trace(service: MatchService) -> tuple[list[int], dict]:
    labels = [service.match_pair(left, right).label for left, right in TRACE]
    return labels, service.metrics()


class _FlakyMatcher(Matcher):
    """Fails the first ``n_failures`` predict calls with a transient error."""

    name = "flaky"
    display_name = "Flaky"

    def __init__(self, n_failures: int) -> None:
        super().__init__()
        self.remaining = n_failures
        self.calls = 0

    def _predict(self, pairs, serialization_seed):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise TransientLLMError("injected")
        return np.zeros(len(pairs), dtype=np.int64)


class _GatedMatcher(Matcher):
    """Blocks inside predict until released (for deadline/saturation tests)."""

    name = "gated"
    display_name = "Gated"

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def _predict(self, pairs, serialization_seed):
        self.entered.set()
        self.release.wait(10.0)
        return np.zeros(len(pairs), dtype=np.int64)


class _BrokenMatcher(Matcher):
    """Raises a programming error, not a library error, on every call."""

    name = "broken"
    display_name = "Broken"

    def _predict(self, pairs, serialization_seed):
        raise TypeError("not a ReproError")


class TestDeterministicReplay:
    def test_same_trace_same_responses_and_stats(self):
        runs = []
        for _ in range(2):
            service = MatchService(
                StringSimMatcher(), max_batch_size=4, clock=FakeClock()
            )
            runs.append(_run_trace(service))
        (labels_a, metrics_a), (labels_b, metrics_b) = runs
        assert labels_a == labels_b
        assert metrics_a == metrics_b
        assert metrics_a["counters"]["requests"] == len(TRACE)

    def test_deterministic_under_fault_injection(self):
        """A fault-injected matcher replays a trace to identical stats."""
        plan = FaultPlan(transient_rate=0.3, rate_limit_rate=0.1, seed=5)
        runs = []
        for _ in range(2):
            clock = FakeClock()
            client = RetryingClient(
                FaultInjector(EchoClient("Yes"), plan, clock=clock),
                RetryPolicy(max_attempts=4),
                clock=clock,
            )
            matcher = MatchGPTMatcher(client)
            matcher.fit([], None, seed=0)
            service = MatchService(matcher, max_batch_size=4, clock=clock)
            runs.append(_run_trace(service))
        (labels_a, metrics_a), (labels_b, metrics_b) = runs
        assert labels_a == labels_b
        assert metrics_a == metrics_b
        assert all(label == 1 for label in labels_a)  # echo says Yes

    def test_inline_batches_coalesce_fifo(self):
        service = MatchService(StringSimMatcher(), max_batch_size=3)
        pairs = [service.make_pair(left, right) for left, right in TRACE[:7]]
        responses = service.match_pairs(pairs)
        assert len(responses) == 7
        scheduler = service.metrics()["scheduler"]
        assert scheduler["batches"] == 3  # 3 + 3 + 1
        assert scheduler["occupancy_sum"] == 7


class TestRetries:
    def test_retry_policy_recovers_transient_batch_failure(self):
        clock = FakeClock()
        matcher = _FlakyMatcher(n_failures=2)
        service = MatchService(
            matcher,
            retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.1),
            clock=clock,
        )
        response = service.match_pair(["a b"], ["a b"])
        assert response.label == 0
        assert matcher.calls == 3
        assert service.metrics()["counters"]["batch_retries"] == 2
        assert len(clock.sleeps) == 2  # backoff ran on the injected clock

    @pytest.mark.parametrize("budget_s", [0.5, 1.0], ids=["short", "equal"])
    def test_backoff_that_does_not_fit_the_budget_never_sleeps(self, budget_s):
        """A 1 s backoff does not fit a 0.5 s budget, nor (the equality
        edge, shared with RetryingClient) a budget with exactly 1 s left."""
        clock = FakeClock()
        matcher = _FlakyMatcher(n_failures=1)
        service = MatchService(
            matcher,
            retry_policy=RetryPolicy(base_delay_s=1.0, jitter=0.0),
            clock=clock,
        )
        with pytest.raises(DeadlineExceededError) as excinfo:
            service.match_pair(["a"], ["a"], budget_s=budget_s)
        assert excinfo.value.stage == "serving.retry_backoff"
        counters = service.metrics()["counters"]
        assert counters["timeouts"] == 1
        assert counters["batch_retries"] == 0
        assert clock.sleeps == []
        assert matcher.calls == 1

    def test_exhausted_retries_surface_the_error(self):
        service = MatchService(
            _FlakyMatcher(n_failures=10),
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            clock=FakeClock(),
        )
        with pytest.raises(TransientLLMError):
            service.match_pair(["a"], ["a"])
        assert service.metrics()["counters"]["errors"] == 1

    def test_no_policy_means_first_failure_is_final(self):
        matcher = _FlakyMatcher(n_failures=1)
        service = MatchService(matcher)
        with pytest.raises(TransientLLMError):
            service.match_pair(["a"], ["a"])
        assert matcher.calls == 1


class TestAdmissionAndDeadlines:
    def test_shed_load_is_structured_and_counted(self):
        service = MatchService(StringSimMatcher(), max_queue=2)
        pairs = [service.make_pair(left, right) for left, right in TRACE[:3]]
        with pytest.raises(OverloadedError):
            service.match_pairs(pairs)
        assert service.metrics()["counters"]["shed"] == 1

    def test_deadline_bounds_the_callers_wait(self):
        matcher = _GatedMatcher()
        with MatchService(matcher, max_wait_ms=0.0) as service:
            with pytest.raises(DeadlineExceededError):
                service.match_pair(["a"], ["a"], budget_s=0.05)
            # Deadline expiries are their own counter, not generic errors.
            assert service.metrics()["counters"]["timeouts"] == 1
            assert service.metrics()["counters"]["errors"] == 0
            matcher.release.set()

    def test_healthz_reports_saturation(self):
        matcher = _GatedMatcher()
        with MatchService(matcher, max_batch_size=1, max_queue=1) as service:
            assert service.healthz()["status"] == "ok"
            # First request occupies the matcher; the next fills the queue.
            threading.Thread(
                target=service.match_pair, args=(["a"], ["a"]), daemon=True
            ).start()
            assert matcher.entered.wait(5.0)
            service._batcher.submit(service.make_pair(["b"], ["b"]))
            health = service.healthz()
            assert health["status"] == "degraded"
            assert health["saturated"] is True
            matcher.release.set()


class TestMetricsBlock:
    def test_each_count_appears_once(self):
        """The service's own counters, and breakers as the only resilience block."""
        service = MatchService(StringSimMatcher(), clock=FakeClock())
        _labels, metrics = _run_trace(service)
        assert list(metrics) == [
            "counters", "latency", "scheduler", "routing", "resilience",
        ]
        assert list(metrics["counters"]) == [
            "requests", "lookups", "matches", "shed", "timeouts", "errors",
            "unexpected_errors", "abandoned", "batch_retries",
        ]
        assert list(metrics["resilience"]) == ["breakers"]

    def test_unexpected_errors_are_counted_per_service(self):
        broken = MatchService(_BrokenMatcher(), clock=FakeClock())
        with pytest.raises(TypeError):
            broken.match_pair(["a"], ["a"])
        metrics = broken.metrics()
        counters = metrics["counters"]
        assert counters["errors"] == 1
        assert counters["unexpected_errors"] == 1
        assert counters["requests"] == (
            metrics["latency"]["count"] + counters["shed"]
            + counters["timeouts"] + counters["errors"] + counters["abandoned"]
        )
        other = MatchService(StringSimMatcher(), clock=FakeClock())
        other.match_pair(["a"], ["a"])
        assert other.metrics()["counters"]["unexpected_errors"] == 0


class TestRequestValidation:
    def test_schema_mismatch_rejected(self):
        service = MatchService(StringSimMatcher())
        with pytest.raises(ServingError, match="schema mismatch"):
            service.make_pair(["a", "b"], ["a"])

    def test_empty_record_rejected(self):
        service = MatchService(StringSimMatcher())
        with pytest.raises(ServingError, match="at least one value"):
            service.make_pair([], ["a"])

    def test_lookup_without_index_rejected(self):
        service = MatchService(StringSimMatcher())
        with pytest.raises(ServingError, match="CandidateIndex"):
            service.lookup(["a"])


class TestLookup:
    def test_lookup_blocks_then_matches(self, abt_dataset):
        corpus = [p.right for p in abt_dataset.pairs]
        index = CandidateIndex(min_shared=2)
        index.add_records(corpus)
        service = MatchService(StringSimMatcher(), index=index, max_batch_size=8)
        probe = abt_dataset.pairs[0].left
        matches = service.lookup(probe, top_k=5)
        match_ids = {m.record.record_id for m in matches}
        candidate_ids = {
            c.record.record_id for c in index.query(probe, top_k=5)
        }
        assert match_ids <= candidate_ids
        assert service.metrics()["counters"]["lookups"] == 1


class TestLengthBucketedServing:
    def test_bucketed_responses_match_fifo_responses(self):
        """Per-pair labels are identical with and without length bucketing."""
        fifo = MatchService(StringSimMatcher(), max_batch_size=4,
                            bucket_by_length=False)
        bucketed = MatchService(StringSimMatcher(), max_batch_size=4,
                                bucket_by_length=True)
        fifo_labels = [r.label for r in fifo.match_pairs(
            [fifo.make_pair(left, right) for left, right in TRACE])]
        bucketed_labels = [r.label for r in bucketed.match_pairs(
            [bucketed.make_pair(left, right) for left, right in TRACE])]
        assert bucketed_labels == fifo_labels

    def test_pair_token_length_counts_both_records(self):
        from repro.serving.service import pair_token_length

        service = MatchService(StringSimMatcher())
        pair = service.make_pair(["sony mdr headphones", "audio"],
                                 ["nikon lens kit", "optics"])
        assert pair_token_length(pair) == (3 + 1) + (3 + 1)


class TestLatencySummary:
    def test_empty_window_returns_explicit_zero_schema(self):
        from repro.serving.service import ServingStats

        summary = ServingStats().latency_summary()
        assert summary == {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
            "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0,
        }

    def test_count_and_percentile_ordering(self):
        from repro.serving.service import ServingStats

        stats = ServingStats()
        for ms in range(1, 101):
            stats.record_latency(ms / 1000.0)
        summary = stats.latency_summary()
        assert summary["count"] == 100
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
        assert summary["p99_ms"] <= summary["max_ms"] == 100.0
        # p99 sits strictly above p95 on a 100-point spread.
        assert summary["p99_ms"] > summary["p95_ms"]

    def test_count_outlives_the_percentile_window(self):
        from repro.serving.service import ServingStats

        stats = ServingStats()
        for _ in range(ServingStats.WINDOW + 10):
            stats.record_latency(0.001)
        assert stats.latency_summary()["count"] == ServingStats.WINDOW + 10
