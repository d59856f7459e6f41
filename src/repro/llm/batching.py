"""Batch submission over an LLM client (the OpenAI Batch API shape).

The paper prices inference through the *Batch* API (Table 6), where
requests are submitted as a job and collected later at a discounted
rate.  :class:`BatchJob` reproduces that interaction shape over any
:class:`~repro.llm.client.LLMClient`: submit many prompts, process, read
results and an aggregate usage/cost report — with per-request error
capture so one malformed prompt cannot void a million-pair job.

``process(workers=N)`` fans contiguous request chunks across a
:class:`~repro.runtime.executor.StudyExecutor` worker pool.  Completions
run in the workers; metering happens afterwards in the parent, in
submission order, so budgets trip on exactly the same request as a
serial run and the collected results are identical.  ``workers`` must be
at least 1; an empty job processes successfully to an empty result set
and a zeroed usage report ("0/0 ok").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import LLMError
from ..obs.trace import span
from .client import LLMClient, LLMRequest, LLMResponse, UsageMeter
from .tokens import count_tokens

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


def _complete_chunk(
    client: LLMClient, requests: list[tuple[int, LLMRequest]]
) -> list[tuple[int, LLMResponse | None, str | None]]:
    """Run one chunk of requests, capturing per-request failures."""
    outcomes: list[tuple[int, LLMResponse | None, str | None]] = []
    with span("batch.chunk", requests=len(requests)) as chunk_span:
        failed = 0
        for index, request in requests:
            try:
                outcomes.append((index, client.complete(request), None))
            except LLMError as error:
                failed += 1
                outcomes.append((index, None, str(error)))
        chunk_span.set(failed=failed)
    return outcomes


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

    def process(
        self,
        workers: int = 1,
        chunk_size: int | None = None,
        executor: "object | None" = None,
        retry_policy: "object | None" = None,
        bucket_by_length: bool = False,
        fail_fast: bool = False,
    ) -> "BatchJob":
        """Run every queued request, capturing per-request failures.

        ``fail_fast`` propagates the first request's typed error instead
        of capturing it — the mode :class:`~repro.matchers.MatchGPTMatcher`
        uses so a retry-exhausted or budget-exceeded request aborts the
        prediction with its original exception class intact (graceful
        degradation upstream keys on that type).  It requires the serial
        path (``workers=1``, no executor, no bucketing): chunked workers
        capture errors as strings, which would lose the type.

        With ``workers > 1`` (or an explicit ``executor``), requests are
        split into contiguous chunks and fanned across the pool; results
        are merged back in submission order and metered in that order,
        so the outcome is identical to a serial run.

        ``bucket_by_length`` chunks requests by ascending prompt token
        length instead of submission position, so a simulated (or real)
        backend that pads each chunk to its longest prompt wastes less
        work.  Results, metering order and budget enforcement are still
        in submission order — only the completion order changes.

        ``retry_policy`` (a :class:`repro.reliability.RetryPolicy`)
        wraps the client for this processing pass so transient failures
        are retried with backoff before an error is recorded; without
        one, a request's first failure is final — the Batch-API shape,
        where the job report is the retry signal.

        An *empty* batch is a valid (if vacuous) submission: it
        completes immediately with no results and a zeroed usage
        report, so callers that filter their request lists do not need
        an emptiness guard of their own.
        """
        if self._processed:
            raise LLMError("batch already processed")
        if workers < 1:
            raise LLMError(f"workers must be >= 1, got {workers}")
        if fail_fast and (workers != 1 or executor is not None or bucket_by_length):
            raise LLMError("fail_fast requires the serial path (workers=1)")
        if not self._requests:
            self._processed = True
            return self

        client = self.client
        if retry_policy is not None:
            # Imported here: repro.llm stays importable without the
            # reliability package (which imports back into this layer).
            from ..reliability.retry import RetryingClient

            client = RetryingClient(self.client, retry_policy)  # type: ignore[arg-type]

        with span(
            "batch.process",
            requests=len(self._requests),
            workers=workers,
            model=self.client.model_name,
        ) as process_span:
            if workers == 1 and executor is None and not bucket_by_length:
                with span("batch.chunk", requests=len(self._requests)) as chunk_span:
                    failed = 0
                    for index, request in enumerate(self._requests):
                        try:
                            response = client.complete(request)
                            self.meter.record(response)
                            self._results.append(BatchResult(index, response, None))
                        except LLMError as error:
                            if fail_fast:
                                raise
                            failed += 1
                            self._results.append(BatchResult(index, None, str(error)))
                    chunk_span.set(failed=failed)
            else:
                self._process_chunked(
                    client, workers, chunk_size, executor, bucket_by_length
                )
            process_span.set(
                failed=sum(1 for r in self._results if not r.succeeded)
            )
        self._processed = True
        return self

    def _process_chunked(
        self,
        client: LLMClient,
        workers: int,
        chunk_size: int | None,
        executor: "object | None",
        bucket_by_length: bool = False,
    ) -> None:
        # Imported here: repro.llm must stay importable without the
        # runtime package (which imports back into this layer).
        from ..runtime.chunks import chunk_indices, default_chunk_size, length_buckets
        from ..runtime.executor import StudyExecutor, make_executor

        owns_executor = executor is None
        if executor is None:
            executor = make_executor(workers=workers, backend="thread")
        if not isinstance(executor, StudyExecutor):
            raise LLMError(f"executor must be a StudyExecutor, got {type(executor)!r}")
        size = chunk_size or default_chunk_size(len(self._requests), executor.workers)
        if bucket_by_length:
            lengths = [count_tokens(request.prompt) for request in self._requests]
            chunks = [
                [(int(index), self._requests[int(index)]) for index in bucket]
                for bucket in length_buckets(lengths, size)
            ]
        else:
            chunks = [
                [(index, self._requests[index]) for index in indices]
                for indices in chunk_indices(len(self._requests), size)
            ]
        # functools.partial over a module-level function stays picklable,
        # so chunks can also ship to a process-backed executor (the
        # client must then be picklable too).
        from functools import partial

        try:
            outcomes = executor.map_tasks(partial(_complete_chunk, client), chunks)
        finally:
            if owns_executor:
                executor.close()
        # Metering replays in submission order (length-bucketed chunks
        # come back permuted, so sort first) — budget enforcement then
        # matches the serial path exactly.
        flattened = [o for chunk in outcomes for o in chunk]
        if bucket_by_length:
            flattened.sort(key=lambda outcome: outcome[0])
        for index, response, error in flattened:
            if response is not None:
                try:
                    self.meter.record(response)
                except LLMError as meter_error:
                    self._results.append(BatchResult(index, None, str(meter_error)))
                    continue
            self._results.append(BatchResult(index, response, error))

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
