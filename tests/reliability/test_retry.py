"""RetryingClient: sleep-free backoff timing, exhaustion chaining, deadlines."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    MalformedCompletionError,
    RateLimitError,
    RetryExhaustedError,
    TransientLLMError,
)
from repro.llm.client import LLMClient, LLMRequest, LLMResponse
from repro.reliability import (
    FakeClock,
    RetryPolicy,
    RetryingClient,
    Tally,
    validate_yes_no,
)
from repro.runtime.stats import RuntimeStats

_PROMPT = "Do the two entries match? Answer with 'Yes' if they do."


class ScriptedClient(LLMClient):
    """Raises (or returns) each scripted outcome in order, then answers."""

    model_name = "scripted"

    def __init__(self, outcomes, answer: str = "No") -> None:
        self.outcomes = list(outcomes)
        self.answer = answer
        self.calls = 0

    def complete(self, request: LLMRequest) -> LLMResponse:
        self.calls += 1
        if self.outcomes:
            outcome = self.outcomes.pop(0)
            if isinstance(outcome, BaseException):
                raise outcome
            return LLMResponse(outcome, self.model_name, 1, 1)
        return LLMResponse(self.answer, self.model_name, 1, 1)


def _request() -> LLMRequest:
    return LLMRequest(prompt=_PROMPT)


class TestBackoffTiming:
    def test_exact_sleep_sequence_without_jitter(self):
        """Two failures → sleeps of exactly [base, base*multiplier]."""
        clock = FakeClock()
        inner = ScriptedClient([TransientLLMError("a"), TransientLLMError("b")])
        client = RetryingClient(
            inner,
            RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=5.0,
                        jitter=0.0),
            clock=clock,
        )
        response = client.complete(_request())
        assert response.text == "No"
        assert inner.calls == 3
        assert clock.sleeps == [0.1, 0.2]

    def test_jittered_sleeps_match_the_policy_exactly(self):
        """The slept schedule is the policy's deterministic one, keyed on
        the prompt — re-running the request replays identical sleeps."""
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, seed=11)
        expected = [policy.backoff_delay(n, key=_PROMPT) for n in (1, 2)]

        clock = FakeClock()
        errors = [TransientLLMError("a"), TransientLLMError("b")]
        client = RetryingClient(ScriptedClient(list(errors)), policy,
                                clock=clock)
        client.complete(_request())
        assert clock.sleeps == expected

        replay = FakeClock()
        client = RetryingClient(ScriptedClient(list(errors)), policy,
                                clock=replay)
        client.complete(_request())
        assert replay.sleeps == expected

    def test_rate_limit_hint_floors_the_sleep(self):
        clock = FakeClock()
        inner = ScriptedClient([RateLimitError("throttled", retry_after_s=0.7)])
        client = RetryingClient(
            inner, RetryPolicy(base_delay_s=0.01, max_delay_s=0.05, jitter=0.0),
            clock=clock,
        )
        client.complete(_request())
        assert clock.sleeps == [0.7]


class TestExhaustionAndClassification:
    def test_exhaustion_chains_the_last_error(self):
        last = TransientLLMError("third strike")
        inner = ScriptedClient(
            [TransientLLMError("one"), TransientLLMError("two"), last]
        )
        client = RetryingClient(
            inner, RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
            clock=FakeClock(),
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            client.complete(_request())
        assert excinfo.value.__cause__ is last
        assert "third strike" in str(excinfo.value)
        assert inner.calls == 3

    def test_terminal_error_propagates_immediately(self):
        inner = ScriptedClient([BudgetExceededError("budget")])
        client = RetryingClient(inner, RetryPolicy(), clock=FakeClock())
        with pytest.raises(BudgetExceededError):
            client.complete(_request())
        assert inner.calls == 1

    def test_max_attempts_one_disables_retries(self):
        inner = ScriptedClient([TransientLLMError("blip")])
        client = RetryingClient(
            inner, RetryPolicy().without_retries(), clock=FakeClock(),
        )
        with pytest.raises(RetryExhaustedError):
            client.complete(_request())
        assert inner.calls == 1


class TestValidation:
    def test_malformed_completion_is_resampled(self):
        inner = ScriptedClient(["%% garbage %%"], answer="Yes")
        client = RetryingClient(
            inner, RetryPolicy(base_delay_s=0.0, jitter=0.0),
            clock=FakeClock(), validate=validate_yes_no,
        )
        assert client.complete(_request()).text == "Yes"
        assert inner.calls == 2

    def test_validate_yes_no_raises_malformed(self):
        with pytest.raises(MalformedCompletionError):
            validate_yes_no(LLMResponse("%% garbage %%", "m", 1, 1))
        validate_yes_no(LLMResponse("Yes", "m", 1, 1))  # clean passes


class TestDeadlines:
    def test_deadline_expired_before_attempt(self):
        clock = FakeClock()
        clock.advance(10.0)

        class SlowClient(LLMClient):
            model_name = "slow"

            def complete(self, request):
                clock.advance(2.0)  # the attempt itself overruns
                raise TransientLLMError("timeout-ish")

        client = RetryingClient(
            SlowClient(),
            RetryPolicy(base_delay_s=0.0, jitter=0.0, default_timeout_s=1.5),
            clock=clock,
        )
        with pytest.raises(DeadlineExceededError) as excinfo:
            client.complete(_request())
        assert isinstance(excinfo.value.__cause__, TransientLLMError)

    def test_backoff_that_cannot_fit_fails_early(self):
        clock = FakeClock()
        inner = ScriptedClient([TransientLLMError("a")])
        client = RetryingClient(
            inner,
            RetryPolicy(base_delay_s=5.0, jitter=0.0, default_timeout_s=1.0),
            clock=clock,
        )
        with pytest.raises(DeadlineExceededError):
            client.complete(_request())
        assert clock.sleeps == []  # never slept into the deadline
        assert inner.calls == 1

    def test_backoff_ending_exactly_at_the_deadline_does_not_fit(self):
        """remaining == delay is refused: no time would be left to retry."""
        clock = FakeClock()
        inner = ScriptedClient([TransientLLMError("a")])
        client = RetryingClient(
            inner,
            RetryPolicy(base_delay_s=1.0, jitter=0.0, default_timeout_s=1.0),
            clock=clock,
        )
        with pytest.raises(DeadlineExceededError):
            client.complete(_request())
        assert clock.sleeps == []
        assert inner.calls == 1

    def test_policy_default_timeout_applies(self):
        clock = FakeClock()
        client = RetryingClient(
            ScriptedClient([TransientLLMError("a")]),
            RetryPolicy(base_delay_s=5.0, jitter=0.0, default_timeout_s=1.0),
            clock=clock,
        )
        with pytest.raises(DeadlineExceededError):
            client.complete(_request())


class TestBatchIntegration:
    def test_batch_process_absorbs_transient_failures(self):
        """BatchJob.process(retry_policy=...) retries instead of recording
        the first failure as the request's final outcome."""
        from repro.llm.batching import BatchJob

        flaky = ScriptedClient([TransientLLMError("blip")], answer="No")
        job = BatchJob(client=flaky)
        job.submit(_PROMPT)
        job.process(retry_policy=RetryPolicy(base_delay_s=0.0, jitter=0.0))
        assert job.n_failed == 0
        assert flaky.calls == 2

    def test_batch_process_without_policy_records_the_failure(self):
        from repro.llm.batching import BatchJob

        flaky = ScriptedClient([TransientLLMError("blip")], answer="No")
        job = BatchJob(client=flaky)
        job.submit(_PROMPT)
        job.process()
        assert job.n_failed == 1
        assert flaky.calls == 1


class TestCounters:
    def test_retries_are_counted_in_the_client_tally(self):
        client = RetryingClient(
            ScriptedClient([TransientLLMError("a")]),
            RetryPolicy(base_delay_s=0.25, jitter=0.0), clock=FakeClock(),
        )
        client.complete(_request())
        counts = client.tally.snapshot()
        assert counts["attempts"] == 2
        assert counts["request_retries"] == 1
        assert counts["retry_sleep_seconds"] == pytest.approx(0.25)

    def test_clients_sharing_a_tally_count_into_it(self):
        tally = Tally()
        for _ in range(2):
            RetryingClient(
                ScriptedClient([TransientLLMError("a")]),
                RetryPolicy(base_delay_s=0.0, jitter=0.0), clock=FakeClock(),
                tally=tally,
            ).complete(_request())
        assert tally.snapshot()["attempts"] == 4
        assert tally.snapshot()["request_retries"] == 2
        # A client given no tally counts into a fresh one of its own.
        assert RetryingClient(ScriptedClient([])).tally is not tally

    def test_concurrent_records_are_not_lost(self):
        tally = Tally()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: [tally.record("attempts") for _ in range(5_000)]
                )
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert tally.snapshot()["attempts"] == 8 * 5_000

    def test_merged_counts_render_as_ints(self):
        """Only ``retry_sleep_seconds`` reaches ``runtime.reliability`` as a float."""
        client = RetryingClient(
            ScriptedClient([TransientLLMError("a")]),
            RetryPolicy(base_delay_s=0.25, jitter=0.0), clock=FakeClock(),
        )
        client.complete(_request())
        stats = RuntimeStats()
        stats.merge_reliability(client.tally.snapshot())
        block = stats.as_dict()["reliability"]
        assert repr(block["attempts"]) == "2"
        assert repr(block["request_retries"]) == "1"
        assert repr(block["retry_sleep_seconds"]) == "0.25"
