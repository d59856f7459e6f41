"""Tests for the batch-API-shaped submission wrapper."""

from __future__ import annotations

import pytest

from repro.errors import LLMError, PromptError
from repro.llm.batching import BatchJob
from repro.llm.client import EchoClient, LLMClient, LLMRequest, LLMResponse, UsageMeter
from repro.llm.tokens import count_tokens
from repro.runtime.executor import ProcessStudyExecutor, ThreadStudyExecutor


class _PickyClient(LLMClient):
    """Rejects prompts containing 'bad'."""

    model_name = "picky"

    def complete(self, request: LLMRequest) -> LLMResponse:
        if "bad" in request.prompt:
            raise PromptError("refused")
        return LLMResponse("Yes", self.model_name, 5, 1)


class _RecordingClient(LLMClient):
    """Answers "No" and remembers the order in which prompts arrive."""

    model_name = "recording"

    def __init__(self) -> None:
        self.seen: list[str] = []

    def complete(self, request: LLMRequest) -> LLMResponse:
        self.seen.append(request.prompt)
        return LLMResponse("No", self.model_name, 1, 1)


class TestBatchJob:
    def test_submit_process_collect(self):
        job = BatchJob(EchoClient("No"))
        job.submit_many(["p1", "p2", "p3"])
        job.process()
        assert job.texts() == ["No", "No", "No"]
        assert job.n_failed == 0

    def test_per_request_failures_captured(self):
        job = BatchJob(_PickyClient())
        job.submit_many(["good one", "a bad one", "another good"])
        job.process()
        assert job.n_failed == 1
        assert job.texts() == ["Yes", None, "Yes"]
        failed = next(r for r in job.results if not r.succeeded)
        assert "refused" in failed.error

    def test_meter_accounts_only_successes(self):
        meter = UsageMeter(price_per_1k_tokens=1.0)
        job = BatchJob(_PickyClient(), meter=meter)
        job.submit_many(["good", "bad"])
        job.process()
        assert meter.n_requests == 1
        assert meter.prompt_tokens == 5

    def test_report_format(self):
        job = BatchJob(EchoClient("No"))
        job.submit("hello world")
        job.process()
        report = job.report()
        assert "1/1 ok" in report
        assert "$" in report

    def test_lifecycle_enforced(self):
        job = BatchJob(EchoClient("No"))
        job.submit("x")
        job.process()
        with pytest.raises(LLMError):
            job.process()  # twice
        with pytest.raises(LLMError):
            job.submit("y")  # after processing

    def test_empty_batch_yields_empty_report(self):
        """A request-less job completes with a zeroed, well-formed report."""
        job = BatchJob(EchoClient("No"))
        job.process()
        assert job.results == []
        assert job.texts() == []
        assert job.n_failed == 0
        assert job.meter.n_requests == 0
        assert "0/0 ok" in job.report()
        with pytest.raises(LLMError):
            job.process()  # processed is processed, even when empty

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_validated(self, workers):
        job = BatchJob(EchoClient("No"))
        job.submit("x")
        with pytest.raises(LLMError, match="workers must be >= 1"):
            job.process(workers=workers)

    def test_results_before_process_raise(self):
        job = BatchJob(EchoClient("No"))
        job.submit("x")
        with pytest.raises(LLMError):
            _ = job.results


class TestChunkedProcessing:
    def test_chunked_matches_serial(self):
        prompts = [f"prompt {i}" if i % 3 else f"a bad one {i}" for i in range(23)]
        serial = BatchJob(_PickyClient())
        serial.submit_many(prompts)
        serial.process()

        chunked = BatchJob(_PickyClient())
        chunked.submit_many(prompts)
        chunked.process(workers=3, chunk_size=4)
        assert chunked.texts() == serial.texts()
        assert chunked.n_failed == serial.n_failed

    def test_chunked_error_capture_preserves_indices(self):
        job = BatchJob(_PickyClient())
        job.submit_many(["good", "a bad one", "good", "bad again", "good"])
        job.process(workers=2, chunk_size=2)
        failed = [r.index for r in job.results if not r.succeeded]
        assert failed == [1, 3]
        assert all(job.results[i].index == i for i in range(5))

    def test_chunked_metering_matches_serial(self):
        serial_meter = UsageMeter(price_per_1k_tokens=1.0)
        serial = BatchJob(_PickyClient(), meter=serial_meter)
        serial.submit_many(["good", "bad", "good"])
        serial.process()

        chunked_meter = UsageMeter(price_per_1k_tokens=1.0)
        chunked = BatchJob(_PickyClient(), meter=chunked_meter)
        chunked.submit_many(["good", "bad", "good"])
        chunked.process(workers=2, chunk_size=1)
        assert chunked_meter.n_requests == serial_meter.n_requests
        assert chunked_meter.prompt_tokens == serial_meter.prompt_tokens

    def test_explicit_executor_reused_not_closed(self):
        with ThreadStudyExecutor(2) as executor:
            job = BatchJob(EchoClient("No"))
            job.submit_many(["p1", "p2", "p3"])
            job.process(executor=executor)
            assert job.texts() == ["No", "No", "No"]
            # The caller's pool must survive for further use.
            assert executor.map_tasks(len, [[1, 2]]) == [2]

    def test_process_backend_with_picklable_client(self):
        job = BatchJob(EchoClient("No"))
        job.submit_many([f"p{i}" for i in range(6)])
        with ProcessStudyExecutor(2) as executor:
            job.process(executor=executor)
        assert job.texts() == ["No"] * 6

    def test_budget_trips_on_same_request_as_serial(self):
        def run(**process_kwargs):
            meter = UsageMeter(price_per_1k_tokens=1.0, token_budget=14)
            job = BatchJob(EchoClient("No"), meter=meter)
            job.submit_many(["one two", "three four", "five six"])
            job.process(**process_kwargs)
            return job.texts(), [r.error for r in job.results]

        serial_texts, serial_errors = run()
        chunked_texts, chunked_errors = run(workers=2, chunk_size=1)
        assert chunked_texts == serial_texts
        assert chunked_errors == serial_errors

    def test_invalid_executor_rejected(self):
        job = BatchJob(EchoClient("No"))
        job.submit("x")
        with pytest.raises(LLMError):
            job.process(executor=object())


class TestLengthBucketing:
    """``bucket_by_length=True`` regroups work without changing results."""

    def _prompts(self):
        # Deliberately unsorted word counts so bucketing must reorder.
        return [" ".join(["w"] * n) for n in (9, 2, 7, 1, 8, 3, 6, 4, 5)]

    def test_bucketed_matches_serial(self):
        serial = BatchJob(EchoClient("No"))
        serial.submit_many(self._prompts())
        serial.process()

        bucketed = BatchJob(EchoClient("No"))
        bucketed.submit_many(self._prompts())
        bucketed.process(chunk_size=3, bucket_by_length=True)
        assert bucketed.texts() == serial.texts()
        assert [r.index for r in bucketed.results] == [r.index for r in serial.results]

    def test_buckets_follow_token_counts_not_words(self):
        # One 40-character word is 7 tokens; three short words are 3 tokens,
        # so word order and token order disagree.
        long_word, short_words = "x" * 40, "ab cd ef"
        assert count_tokens(long_word) > count_tokens(short_words)
        client = _RecordingClient()
        job = BatchJob(client)
        job.submit_many([long_word, short_words])
        job.process(chunk_size=1, bucket_by_length=True)
        assert client.seen == [short_words, long_word]
        assert [r.index for r in job.results] == [0, 1]

    def test_bucketed_failures_keep_submission_indices(self):
        prompts = ["good " * 5, "a bad one", "good", "longer bad text here"]
        job = BatchJob(_PickyClient())
        job.submit_many(prompts)
        job.process(chunk_size=2, bucket_by_length=True)
        failed = [r.index for r in job.results if not r.succeeded]
        assert failed == [1, 3]

    def test_bucketed_metering_matches_serial(self):
        def run(**process_kwargs):
            meter = UsageMeter(price_per_1k_tokens=1.0)
            job = BatchJob(_PickyClient(), meter=meter)
            job.submit_many(["good " * 4, "bad", "good"])
            job.process(**process_kwargs)
            return meter.n_requests, meter.prompt_tokens

        assert run(chunk_size=1, bucket_by_length=True) == run()

    def test_bucketed_budget_trips_on_same_request_as_serial(self):
        # Metering replays in submission order, so a token budget cuts off
        # at the same request whether or not batches were length-sorted.
        def run(**process_kwargs):
            meter = UsageMeter(price_per_1k_tokens=1.0, token_budget=14)
            job = BatchJob(EchoClient("No"), meter=meter)
            job.submit_many(["one two three four", "five six", "seven"])
            job.process(**process_kwargs)
            return job.texts(), [r.error for r in job.results]

        serial_texts, serial_errors = run()
        bucketed_texts, bucketed_errors = run(chunk_size=1, bucket_by_length=True)
        assert bucketed_texts == serial_texts
        assert bucketed_errors == serial_errors
