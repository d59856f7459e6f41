"""Micro-batching scheduler: coalesce concurrent requests into batches.

Per-request dispatch wastes the fixed overhead every
:meth:`repro.matchers.base.Matcher.predict` call pays (encoding, a
vectorised forward pass, prompt-batch setup); the paper's throughput
analysis (Section 4.2) prices exactly this batching effect.
:class:`MicroBatcher` recovers it online: concurrent ``submit`` calls
land in a bounded FIFO queue, and whenever the dispatcher is free it
takes up to ``max_batch_size`` of the requests waiting, without a timer.
Requests that arrive while a batch runs wait for that batch and then
ride the next one together, so occupancy follows the load: a lone
request is answered at once, and under load batches fill while the
previous one computes.

Two dispatch modes share all queueing and accounting logic:

* **threaded** — :meth:`start` launches a background dispatcher thread;
  callers block on :meth:`PendingResult.result`, or register a
  :meth:`PendingResult.add_done_callback` (the HTTP front-end's event
  loop does, so it never blocks).  This is the production mode the HTTP
  front-end and the load benchmark drive.
* **inline** — no thread; callers enqueue and then :meth:`drain`
  processes everything queued in deterministic FIFO batches.  With a
  :class:`~repro.reliability.clock.FakeClock` this makes scheduler tests
  sleep-free and byte-reproducible.

Admission control is load *shedding*, not load absorbing: once
``max_queue`` requests are waiting, further submits raise a structured
:class:`~repro.errors.OverloadedError` immediately instead of growing
the queue (and every caller's latency) unboundedly.

Requests may carry a :class:`~repro.reliability.budget.DeadlineBudget`:
an entry whose budget expired while it queued is failed with a
``scheduler.queue``-staged :class:`~repro.errors.DeadlineExceededError`
*before* the batch runs (processing it would waste a batch slot on an
answer nobody is waiting for), and the batch's tightest remaining
budget is passed to ``process_batch`` as its second argument (``None``
when no entry carries one).
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any

from ..errors import ConfigurationError, DeadlineExceededError, OverloadedError, ServingError
from ..obs.trace import span
from ..reliability.budget import DeadlineBudget
from ..reliability.clock import Clock, SystemClock

__all__ = ["PendingResult", "MicroBatcher"]


class PendingResult:
    """A slot for one in-flight request's outcome.

    Filled exactly once by the dispatcher — with a value or an error —
    and read by the submitting caller via :meth:`result`, or pushed to
    it through :meth:`add_done_callback`.  The slot is backed by a
    :class:`concurrent.futures.Future` that nothing outside it can
    cancel, so a caller that gives up waiting never stops the dispatcher
    from filling it.
    """

    def __init__(self, submitted_at: float) -> None:
        """An unfilled slot stamped with its admission time."""
        self.submitted_at = submitted_at
        self.completed_at: float | None = None
        self._future: Future = Future()

    def fulfil(self, value: Any, completed_at: float) -> None:
        """Deliver the result and wake the waiting caller."""
        self.completed_at = completed_at
        self._future.set_result(value)

    def fail(self, error: BaseException, completed_at: float) -> None:
        """Deliver a failure and wake the waiting caller."""
        self.completed_at = completed_at
        self._future.set_exception(error)

    def add_done_callback(self, fn: Callable[["PendingResult"], None]) -> None:
        """Call ``fn(self)`` once the outcome is delivered.

        Runs on the delivering thread (the dispatcher), or at once when
        the outcome is already in.  An exception ``fn`` raises is logged
        by :mod:`concurrent.futures` and never reaches the dispatcher, so
        the rest of the batch is still delivered.
        """
        self._future.add_done_callback(lambda _future: fn(self))

    @property
    def done(self) -> bool:
        """Whether the outcome has been delivered."""
        return self._future.done()

    @property
    def latency_s(self) -> float | None:
        """Admission-to-completion seconds (``None`` while in flight)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def result(self, timeout_s: float | None = None) -> Any:
        """Block until the outcome arrives; raise the failure if it is one.

        ``timeout_s`` bounds the wait; expiry raises
        :class:`~repro.errors.DeadlineExceededError` (the request may
        still complete later, but this caller's time budget is spent).
        """
        try:
            return self._future.result(timeout_s)
        except FutureTimeoutError:
            raise DeadlineExceededError(
                f"request not completed within {timeout_s}s"
            ) from None


class MicroBatcher:
    """Coalesce concurrent requests into bounded batches for one processor.

    ``process_batch(items, budget)`` receives a list of queued items in
    FIFO order and the batch's tightest deadline budget (or ``None``),
    and must
    return one result per item, in order; any exception it raises is
    delivered to every request in that batch.
    """

    def __init__(
        self,
        process_batch: Callable[
            [list[Any], DeadlineBudget | None], Sequence[Any]
        ],
        max_batch_size: int = 32,
        max_queue: int = 256,
        clock: Clock | None = None,
    ) -> None:
        """Configure the batching policy.

        ``max_batch_size`` caps one batch, and ``max_queue`` is the
        admission-control bound beyond which submits shed load with
        :class:`~repro.errors.OverloadedError`.
        """
        if max_batch_size < 1:
            raise ConfigurationError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_queue < 1:
            raise ConfigurationError(f"max_queue must be >= 1, got {max_queue}")
        self.process_batch = process_batch
        self.max_batch_size = max_batch_size
        self.max_queue = max_queue
        self.clock = clock or SystemClock()
        #: Entries are ``(item, pending, budget)`` in admission order;
        #: ``budget`` is the request's optional deadline budget.
        self._queue: deque[
            tuple[Any, PendingResult, DeadlineBudget | None]
        ] = deque()
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        self._stopped = False
        self._counters: dict[str, float] = {
            "submitted": 0,
            "shed": 0,
            "expired": 0,
            "batches": 0,
            "processed": 0,
            "batch_errors": 0,
            "occupancy_sum": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MicroBatcher":
        """Launch the background dispatcher thread (threaded mode)."""
        if self._thread is not None:
            raise ServingError("micro-batcher already started")
        self._stopped = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-microbatch", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting work, finish queued requests, join the thread."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        # Inline-mode (or post-join) leftovers still deserve answers.
        self.drain()

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- admission -----------------------------------------------------------

    def submit(
        self, item: Any, budget: DeadlineBudget | None = None
    ) -> PendingResult:
        """Enqueue one request; returns its :class:`PendingResult`.

        Raises :class:`~repro.errors.OverloadedError` when the admission
        queue is full — the caller is *not* enqueued and should back off.
        ``budget`` (optional) rides along with the entry: if it expires
        before the entry's batch runs, the request fails with a
        ``scheduler.queue``-staged deadline error instead of consuming a
        batch slot.
        """
        with self._cond:
            if len(self._queue) >= self.max_queue:
                self._counters["shed"] += 1
                raise OverloadedError(
                    f"admission queue full ({self.max_queue} requests waiting)"
                )
            pending = PendingResult(submitted_at=self.clock.monotonic())
            self._queue.append((item, pending, budget))
            self._counters["submitted"] += 1
            self._cond.notify()
        return pending

    @property
    def queue_depth(self) -> int:
        """How many admitted requests are waiting for a batch."""
        return len(self._queue)

    @property
    def saturated(self) -> bool:
        """Whether the admission queue is full (the health-check signal)."""
        return len(self._queue) >= self.max_queue

    @property
    def dispatcher_alive(self) -> bool:
        """Whether the dispatcher can still make progress.

        ``True`` in inline mode (no thread is expected) and after a
        clean :meth:`stop`; ``False`` only when a started dispatcher
        thread died — the health check's dead-service signal.
        """
        return self._thread is None or self._thread.is_alive()

    def counters(self) -> dict[str, float]:
        """A snapshot of the scheduler counters (copies the dict)."""
        return dict(self._counters)

    # -- dispatch ------------------------------------------------------------

    def drain(self) -> int:
        """Inline mode: process everything queued now; returns batch count.

        Batches are formed in deterministic FIFO order of at most
        ``max_batch_size`` items — the replayable dispatch the
        determinism tests (and graceful shutdown) use.
        """
        n_batches = 0
        while True:
            with self._cond:
                batch = self._pop_batch()
            if not batch:
                return n_batches
            self._run_batch(batch)
            n_batches += 1

    def _pop_batch(
        self,
    ) -> list[tuple[Any, PendingResult, DeadlineBudget | None]]:
        """Pop the oldest ``max_batch_size`` entries (caller holds the lock)."""
        queue = self._queue
        return [queue.popleft() for _ in range(min(len(queue), self.max_batch_size))]

    def _dispatch_loop(self) -> None:
        """Threaded mode: whenever free, take what is waiting and run it."""
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()
                if self._stopped:
                    return
                batch = self._pop_batch()
            self._run_batch(batch)

    def _run_batch(
        self, batch: list[tuple[Any, PendingResult, DeadlineBudget | None]]
    ) -> None:
        """Process one batch and deliver per-request outcomes.

        Entries whose deadline budget expired while queued are failed
        first (stage ``scheduler.queue``); the surviving entries run as
        one batch, with the tightest remaining budget passed along.
        """
        live: list[tuple[Any, PendingResult, DeadlineBudget | None]] = []
        for item, pending, budget in batch:
            if budget is not None and budget.expired:
                self._counters["expired"] += 1
                pending.fail(
                    DeadlineExceededError(
                        f"deadline budget ({budget.total_s}s) expired while "
                        "queued for a batch",
                        stage="scheduler.queue",
                    ),
                    completed_at=self.clock.monotonic(),
                )
            else:
                live.append((item, pending, budget))
        if not live:
            return
        items = [item for item, _pending, _budget in live]
        budgets = [b for _item, _pending, b in live if b is not None]
        batch_budget = (
            min(budgets, key=lambda b: b.remaining()) if budgets else None
        )
        self._counters["batches"] += 1
        self._counters["occupancy_sum"] += len(live)
        with span("scheduler.flush", occupancy=len(live)) as flush_span:
            try:
                results = self.process_batch(items, batch_budget)
                if len(results) != len(items):
                    raise ServingError(
                        f"process_batch returned {len(results)} results "
                        f"for {len(items)} items"
                    )
            except BaseException as error:  # delivered, not swallowed
                self._counters["batch_errors"] += 1
                flush_span.set(outcome="error", error_type=type(error).__name__)
                now = self.clock.monotonic()
                for _item, pending, _budget in live:
                    pending.fail(error, completed_at=now)
                return
            flush_span.set(outcome="ok")
        now = self.clock.monotonic()
        for (_item, pending, _budget), result in zip(live, results):
            pending.fulfil(result, completed_at=now)
        self._counters["processed"] += len(live)
