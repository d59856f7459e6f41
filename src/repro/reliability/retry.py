"""The retrying, deadline-aware client wrapper.

:class:`RetryingClient` wraps any :class:`~repro.llm.client.LLMClient`
and re-issues failed requests under a
:class:`~repro.reliability.policy.RetryPolicy`:

* retryable errors (see :func:`~repro.reliability.policy.is_retryable`)
  are retried up to ``max_attempts`` with seeded exponential backoff,
  then surfaced as :class:`~repro.errors.RetryExhaustedError` chaining
  the final failure;
* terminal errors propagate immediately, untouched;
* an optional ``validate`` hook inspects each completion and raises
  :class:`~repro.errors.MalformedCompletionError` to trigger a resample
  (the study wiring validates that completions parse as yes/no);
* a per-request **deadline** (the policy's ``default_timeout_s``) is a
  :class:`~repro.reliability.budget.DeadlineBudget` enforced
  cooperatively: it is checked before every attempt and before every
  backoff sleep, and expiry raises
  :class:`~repro.errors.DeadlineExceededError`.  Cooperative means an
  in-flight attempt is never interrupted — with synchronous clients
  that is the only race-free option — so a deadline bounds *queueing and
  retries*, not a single attempt's latency.

Cache interaction: when the completion cache wraps *outside* this
client (the study wiring's order), a cache hit never reaches the retry
layer at all, and only validated, clean responses are ever stored — a
retried request therefore hits the cache exactly as a first-try success
would.  See ``docs/FAILURE_SEMANTICS.md``.
"""

from __future__ import annotations

from collections.abc import Callable

from ..errors import DeadlineExceededError, LLMError, RetryExhaustedError
from ..llm.client import LLMClient, LLMRequest, LLMResponse
from ..obs.trace import span
from .budget import DeadlineBudget
from .clock import Clock, SystemClock
from .counters import Tally
from .policy import RetryPolicy

__all__ = ["RetryingClient", "validate_yes_no"]


def validate_yes_no(response: LLMResponse) -> None:
    """Reject completions that do not parse as a yes/no match answer.

    The validator the study wiring installs: every matcher in this
    reproduction consumes binary answers through
    :func:`repro.llm.prompts.parse_answer`, so an unparseable completion
    is a malformed response worth resampling, not a prediction.
    """
    from ..errors import MalformedCompletionError, PromptError
    from ..llm.prompts import parse_answer

    try:
        parse_answer(response.text)
    except PromptError as error:
        raise MalformedCompletionError(str(error)) from None


class RetryingClient(LLMClient):
    """Wrap a client with retry, backoff, validation and deadlines."""

    def __init__(
        self,
        inner: LLMClient,
        policy: RetryPolicy | None = None,
        clock: Clock | None = None,
        validate: Callable[[LLMResponse], None] | None = None,
        tally: Tally | None = None,
    ) -> None:
        """Wrap ``inner`` under ``policy`` (default
        :data:`~repro.reliability.policy.DEFAULT_POLICY` semantics).

        ``validate`` may raise :class:`~repro.errors.MalformedCompletionError`
        to force a resample.  Attempts, retries and backoff seconds are
        counted into ``tally`` (default: a fresh :class:`Tally`).
        """
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self.clock = clock or SystemClock()
        self.validate = validate
        self.tally = tally if tally is not None else Tally()
        self.model_name = inner.model_name
        self.cache_salt = getattr(inner, "cache_salt", "")

    def complete(self, request: LLMRequest) -> LLMResponse:
        """Complete ``request`` under the retry policy and deadline.

        Raises :class:`~repro.errors.RetryExhaustedError` when every
        allowed attempt failed retryably,
        :class:`~repro.errors.DeadlineExceededError` when the request's
        time budget expires first, and the original error unchanged when
        it is terminal.
        """
        policy = self.policy
        tally = self.tally
        timeout = policy.default_timeout_s
        budget = None if timeout is None else DeadlineBudget(timeout, self.clock)
        last_error: LLMError | None = None

        with span("llm.request", model=self.model_name) as request_span:
            for attempt in range(1, policy.max_attempts + 1):
                request_span.set(attempts=attempt)
                if budget is not None and budget.expired:
                    raise DeadlineExceededError(
                        f"deadline of {timeout}s expired before attempt {attempt}"
                    ) from last_error
                try:
                    response = self.inner.complete(request)
                    if self.validate is not None:
                        self.validate(response)
                    tally.record("attempts")
                    return response
                except LLMError as error:
                    tally.record("attempts")
                    last_error = error
                    if not policy.retryable(error):
                        raise
                    if attempt == policy.max_attempts:
                        break
                    delay = policy.delay_for_error(error, attempt, key=request.prompt)
                    if budget is not None and not budget.fits(delay):
                        raise DeadlineExceededError(
                            f"deadline of {timeout}s cannot fit a {delay:.3f}s "
                            f"backoff after attempt {attempt}"
                        ) from error
                    tally.record("request_retries")
                    if delay > 0:
                        tally.record("retry_sleep_seconds", delay)
                        self.clock.sleep(delay)

            raise RetryExhaustedError(
                f"request failed after {policy.max_attempts} attempts; "
                f"last error: {type(last_error).__name__}: {last_error}"
            ) from last_error
