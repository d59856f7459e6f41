"""Batch submission over an LLM client (the OpenAI Batch API shape).

The paper prices inference through the *Batch* API (Table 6), where
requests are submitted as a job and collected later at a discounted
rate.  :class:`BatchJob` reproduces that interaction shape over any
:class:`~repro.llm.client.LLMClient`: submit many prompts, process them
once, one at a time in submission order, then read results and an
aggregate usage/cost report — with per-request error capture so one
malformed prompt cannot void a million-pair job.

Retrying is the client's job: wrap it in a
:class:`~repro.reliability.retry.RetryingClient` (as
:func:`~repro.reliability.wiring.harden_client` does) and a transient
failure is retried before the request's outcome is recorded.  An empty
job processes successfully to an empty result set and a zeroed usage
report ("0/0 ok").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import LLMError
from ..obs.trace import span
from .client import LLMClient, LLMRequest, LLMResponse, UsageMeter

__all__ = ["BatchResult", "BatchJob"]


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one request within a batch."""

    index: int
    response: LLMResponse | None
    error: str | None

    @property
    def succeeded(self) -> bool:
        """Whether this request produced a completion."""
        return self.response is not None


@dataclass
class BatchJob:
    """A submit-then-collect batch over an LLM client."""

    client: LLMClient
    meter: UsageMeter = field(default_factory=UsageMeter)
    _requests: list[LLMRequest] = field(default_factory=list)
    _results: list[BatchResult] = field(default_factory=list)
    _processed: bool = False

    def submit(self, prompt: str, metadata: dict[str, str] | None = None) -> int:
        """Queue one request; returns its index within the batch."""
        if self._processed:
            raise LLMError("batch already processed; create a new job")
        self._requests.append(LLMRequest(prompt=prompt, metadata=metadata or {}))
        return len(self._requests) - 1

    def submit_many(self, prompts: list[str]) -> None:
        """Queue one request per prompt, in order."""
        for prompt in prompts:
            self.submit(prompt)

    def process(self, fail_fast: bool = False) -> "BatchJob":
        """Run every queued request once, serially, in submission order.

        A request's :class:`~repro.errors.LLMError` (a metering budget
        trip included) is captured in its :class:`BatchResult`.
        ``fail_fast`` propagates the first one instead, with its
        exception class intact — the mode
        :class:`~repro.matchers.MatchGPTMatcher` uses so a
        retry-exhausted or budget-exceeded request aborts the prediction
        (graceful degradation upstream keys on that type).

        A job is processed once, whether this returns or raises: a second
        call raises, and the results collected before a ``fail_fast``
        error stay readable.  An *empty* job completes immediately with
        no results and a zeroed usage report, so callers that filter
        their request lists need no emptiness guard of their own.
        """
        if self._processed:
            raise LLMError("batch already processed")
        self._processed = True
        if not self._requests:
            return self
        with span(
            "batch.process",
            requests=len(self._requests),
            model=self.client.model_name,
        ) as process_span:
            failed = 0
            for index, request in enumerate(self._requests):
                try:
                    response = self.client.complete(request)
                    self.meter.record(response)
                    self._results.append(BatchResult(index, response, None))
                except LLMError as error:
                    if fail_fast:
                        raise
                    failed += 1
                    self._results.append(BatchResult(index, None, str(error)))
            process_span.set(failed=failed)
        return self

    # -- collection ---------------------------------------------------------

    def _require_processed(self) -> None:
        if not self._processed:
            raise LLMError("process() the batch before reading results")

    @property
    def results(self) -> list[BatchResult]:
        """Per-request outcomes in submission order (copies the list)."""
        self._require_processed()
        return list(self._results)

    @property
    def n_failed(self) -> int:
        """How many requests failed (inspect ``results`` for details)."""
        self._require_processed()
        # Iterate the internal list directly: the `results` property
        # copies, which turned these aggregations quadratic on big jobs.
        return sum(1 for r in self._results if not r.succeeded)

    def texts(self) -> list[str | None]:
        """Completion texts in submission order (None where failed)."""
        self._require_processed()
        return [r.response.text if r.succeeded else None for r in self._results]

    def report(self) -> str:
        """One-line job summary: sizes, tokens, dollars — and cache savings."""
        self._require_processed()
        ok = sum(1 for r in self._results if r.succeeded)
        line = (
            f"batch[{self.client.model_name}]: {ok}/{len(self._results)} ok, "
            f"{self.meter.prompt_tokens:,} prompt tokens, "
            f"${self.meter.dollars_spent:.4f}"
        )
        # Duck-typed so this layer does not import repro.runtime: a
        # CachedClient exposes its cache's hit/miss/savings counters.
        cache = getattr(self.client, "cache", None)
        if cache is not None and hasattr(cache, "hits"):
            line += (
                f", cache {cache.hits}/{cache.hits + cache.misses} hits"
                f" (${cache.saved_dollars:.4f} saved)"
            )
        return line
