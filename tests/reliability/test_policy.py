"""RetryPolicy: classification, backoff math, deterministic jitter, specs."""

from __future__ import annotations

import pytest

from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    DeadlineExceededError,
    LLMError,
    MalformedCompletionError,
    PromptError,
    RateLimitError,
    RetryExhaustedError,
    TransientLLMError,
)
from repro.reliability import RetryPolicy, is_retryable


class TestClassification:
    def test_transient_family_is_retryable(self):
        assert is_retryable(TransientLLMError("overloaded"))
        assert is_retryable(RateLimitError("slow down"))
        assert is_retryable(MalformedCompletionError("garbled"))

    def test_terminal_errors_are_not(self):
        for error in (
            LLMError("generic"),
            BudgetExceededError("budget"),
            PromptError("bad prompt"),
            DeadlineExceededError("too late"),
            RetryExhaustedError("gave up"),
            ValueError("not even ours"),
        ):
            assert not is_retryable(error)


class TestBackoffMath:
    def test_exponential_curve_without_jitter(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=1.0,
                             jitter=0.0)
        delays = [policy.backoff_delay(n) for n in (1, 2, 3, 4, 5, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]  # capped at max_delay_s

    def test_jitter_bounds_and_cap(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=1.0,
                             jitter=0.5)
        for attempt in range(1, 8):
            raw = min(1.0, 0.1 * 2.0 ** (attempt - 1))
            delay = policy.backoff_delay(attempt, key="some prompt")
            assert 0.5 * raw <= delay <= 1.0  # within [1-j, 1+j]·raw, re-capped

    def test_jitter_is_deterministic(self):
        a = RetryPolicy(seed=3)
        b = RetryPolicy(seed=3)
        sequence = [a.backoff_delay(n, key="prompt") for n in (1, 2, 3)]
        assert [b.backoff_delay(n, key="prompt") for n in (1, 2, 3)] == sequence

    def test_jitter_varies_with_seed_and_key(self):
        base = RetryPolicy(seed=0).backoff_delay(2, key="prompt")
        assert RetryPolicy(seed=1).backoff_delay(2, key="prompt") != base
        assert RetryPolicy(seed=0).backoff_delay(2, key="other") != base

    def test_rate_limit_hint_is_a_floor(self):
        policy = RetryPolicy(base_delay_s=0.01, max_delay_s=0.02, jitter=0.0)
        hinted = RateLimitError("throttled", retry_after_s=0.5)
        assert policy.delay_for_error(hinted, attempt=1) == 0.5
        plain = TransientLLMError("blip")
        assert policy.delay_for_error(plain, attempt=1) == 0.01

    def test_attempt_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_delay(0)


class TestValidationAndSpecs:
    def test_invalid_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(default_timeout_s=0.0)

    def test_without_retries(self):
        policy = RetryPolicy(max_attempts=5).without_retries()
        assert policy.max_attempts == 1
