"""Tests for the batch-API-shaped submission wrapper."""

from __future__ import annotations

import pytest

from repro.errors import LLMError, PromptError, TransientLLMError
from repro.llm.batching import BatchJob
from repro.llm.client import EchoClient, LLMClient, LLMRequest, LLMResponse, UsageMeter


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


class _FailOnceClient(LLMClient):
    """Answers "No", except that one call raises a transient error."""

    model_name = "fail-once"

    def __init__(self, fail_on_call: int) -> None:
        self.fail_on_call = fail_on_call
        self.calls = 0

    def complete(self, request: LLMRequest) -> LLMResponse:
        self.calls += 1
        if self.calls == self.fail_on_call:
            raise TransientLLMError("blip")
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

    def test_results_before_process_raise(self):
        job = BatchJob(EchoClient("No"))
        job.submit("x")
        with pytest.raises(LLMError):
            _ = job.results

    def test_report_before_process_raises(self):
        job = BatchJob(EchoClient("No"))
        job.submit("x")
        with pytest.raises(LLMError, match="process"):
            job.report()

    def test_budget_trip_is_captured_on_the_request_that_crosses_it(self):
        # Each request meters 2 prompt + 1 completion tokens.
        meter = UsageMeter(price_per_1k_tokens=1.0, token_budget=7)
        job = BatchJob(EchoClient("No"), meter=meter)
        job.submit_many(["one two", "three four", "five six"])
        job.process()
        assert [text is None for text in job.texts()] == [False, False, True]
        assert "budget" in job.results[2].error

    def test_requests_reach_the_client_in_submission_order(self):
        client = _RecordingClient()
        job = BatchJob(client)
        prompts = [" ".join(["w"] * n) for n in (9, 2, 7, 1)]
        job.submit_many(prompts)
        job.process()
        assert client.seen == prompts


class TestProcessOnce:
    """A job runs its requests once, even when ``process`` raises."""

    def test_a_raising_process_still_marks_the_job_processed(self):
        client = _FailOnceClient(fail_on_call=2)
        meter = UsageMeter(price_per_1k_tokens=1.0)
        job = BatchJob(client, meter=meter)
        job.submit_many(["p1", "p2", "p3"])
        with pytest.raises(TransientLLMError):
            job.process(fail_fast=True)
        with pytest.raises(LLMError, match="already processed"):
            job.process()
        # Nothing re-ran: the one collected result and its metering stay.
        assert job.texts() == ["No"]
        assert meter.prompt_tokens == 1
        assert client.calls == 2

    def test_a_raising_process_refuses_new_submissions(self):
        job = BatchJob(_FailOnceClient(fail_on_call=1))
        job.submit("p1")
        with pytest.raises(TransientLLMError):
            job.process(fail_fast=True)
        with pytest.raises(LLMError, match="already processed"):
            job.submit("p2")
