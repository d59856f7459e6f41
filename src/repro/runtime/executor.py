"""Worker-pool executors behind one ``map_tasks()`` interface.

Every study driver dispatches its independent tasks through a
:class:`StudyExecutor`.  Three implementations are provided:

``serial``
    Runs tasks inline — the reference behaviour every parallel backend
    must reproduce bit-for-bit.
``thread``
    A :class:`concurrent.futures.ThreadPoolExecutor` pool.  Tasks share
    the process, so the in-memory completion cache and the memoized
    dataset bundles are shared too; best when tasks release the GIL or
    hit the cache.
``process``
    A :class:`concurrent.futures.ProcessPoolExecutor` pool (``fork``
    context where available).  Tasks must be module-level picklable
    callables — the grid's :func:`repro.runtime.grid.run_cell` is; ad-hoc
    closures are not.

Results are always merged in *submission order*: ``map_tasks`` returns
``[fn(t) for t in tasks]`` regardless of completion order, so a parallel
study run produces byte-identical JSON to a serial one.

Backend and worker count have one source: :func:`make_executor`'s
arguments, which ``full_run``'s ``--workers`` (default 1) and
``--backend`` (default ``auto``) set.

Pool executors additionally contain *worker death*: a task whose worker
process dies (``BrokenProcessPool``) no longer aborts the whole study.
The pool is rebuilt, surviving tasks are re-run in isolation to pin the
blame exactly, and only the culprit surfaces — as a structured,
retryable :class:`~repro.errors.WorkerCrashError`, or as whatever the
caller's ``on_crash`` converter returns (the study grid converts it into
its :class:`~repro.runtime.grid.CellFailure` degradation path).  An
optional per-task wall-clock watchdog (``cell_timeout_s``, measured on
an injectable :class:`~repro.reliability.clock.Clock`) routes hung tasks
down the same path.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor
from concurrent.futures import Executor as _FuturesExecutor
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor, wait
from typing import Any

from ..errors import ConfigurationError, WorkerCrashError
from ..reliability.clock import Clock, SystemClock

__all__ = [
    "EXECUTOR_BACKENDS",
    "StudyExecutor",
    "SerialExecutor",
    "ThreadStudyExecutor",
    "ProcessStudyExecutor",
    "resolve_backend",
    "make_executor",
]

#: Recognised executor backend names.
EXECUTOR_BACKENDS: tuple[str, ...] = ("serial", "thread", "process")

#: Watchdog poll interval while futures are outstanding, in seconds.
_WATCHDOG_POLL_S = 0.02

#: Converts a crashed/hung task into a substitute result.  Receives the
#: task and the structured error; its return value fills the task's slot.
CrashConverter = Callable[[Any, WorkerCrashError], Any]
#: Invoked as ``on_result(index, result)`` the moment a task completes
#: (completion order, in the parent) — the hook the write-ahead journal
#: uses for per-cell durability.
ResultCallback = Callable[[int, Any], None]


class StudyExecutor:
    """Maps a callable over tasks, returning results in submission order."""

    backend: str = "serial"
    workers: int = 1

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        on_result: ResultCallback | None = None,
        on_crash: CrashConverter | None = None,
    ) -> list[Any]:
        """``[fn(t) for t in tasks]``, however the backend schedules it.

        ``on_result`` fires in the parent as each task completes, before
        the full list is assembled — callers persist incremental
        progress there.  ``on_crash`` converts a worker death or hang
        into a substitute result instead of raising
        :class:`~repro.errors.WorkerCrashError`.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources (no-op for the serial executor)."""

    def __enter__(self) -> "StudyExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(backend={self.backend!r}, workers={self.workers})"


class SerialExecutor(StudyExecutor):
    """The reference executor: tasks run inline, one at a time."""

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        on_result: ResultCallback | None = None,
        on_crash: CrashConverter | None = None,
    ) -> list[Any]:
        """Run every task inline, in order.

        ``on_crash`` is accepted for interface parity but unused: an
        inline crash takes the whole process with it — that case is what
        the write-ahead journal's resume path covers.
        """
        results = []
        for index, task in enumerate(tasks):
            value = fn(task)
            results.append(value)
            if on_result is not None:
                on_result(index, value)
        return results


#: Sentinel marking a result slot not yet filled during gathering.
_UNSET = object()


class _PoolExecutor(StudyExecutor):
    """Shared submit/gather logic over a lazily created futures pool.

    The pool persists for the executor's lifetime so repeated
    ``map_tasks`` calls (one per Table-3 matcher row, say) reuse warm
    workers — a process worker keeps its memoized dataset bundle and its
    completion cache across calls.

    Worker death is contained here: a :class:`BrokenExecutor` from any
    future triggers a pool rebuild followed by *isolation re-runs* of
    every task that never produced a result.  Run alone, the task that
    kills its worker again is provably the culprit; it is surfaced as a
    structured :class:`~repro.errors.WorkerCrashError` (or converted via
    ``on_crash``) while every innocent bystander completes normally.
    """

    def __init__(
        self,
        workers: int,
        cell_timeout_s: float | None = None,
        clock: Clock | None = None,
    ) -> None:
        """A ``workers``-wide pool; ``cell_timeout_s`` arms the per-task
        wall-clock watchdog, measured on ``clock`` (default: system)."""
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise ConfigurationError(
                f"cell_timeout_s must be positive, got {cell_timeout_s}"
            )
        self.workers = workers
        self.cell_timeout_s = cell_timeout_s
        self.clock = clock or SystemClock()
        #: Pool rebuilds performed after worker deaths or hangs (a
        #: cheap health indicator tests and stats can read).
        self.pool_rebuilds = 0
        self._pool: _FuturesExecutor | None = None

    def _make_pool(self) -> _FuturesExecutor:
        raise NotImplementedError

    def _rebuild_pool(self) -> None:
        """Replace a broken/suspect pool with a fresh one."""
        if self._pool is not None:
            # wait=False: a broken pool cannot make progress and a hung
            # worker would block shutdown indefinitely.
            self._pool.shutdown(wait=False)
        self._pool = self._make_pool()
        self.pool_rebuilds += 1

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        on_result: ResultCallback | None = None,
        on_crash: CrashConverter | None = None,
    ) -> list[Any]:
        """Fan tasks across the pool; results return in submission order.

        Gathering in submission order (not completion order) is what
        makes parallel output byte-identical to serial output;
        ``on_result`` still fires in completion order so incremental
        persistence is as fresh as possible.
        """
        if self._pool is None:
            self._pool = self._make_pool()
        results: list[Any] = [_UNSET] * len(tasks)
        futures = {self._pool.submit(fn, tasks[i]): i for i in range(len(tasks))}
        broken, hung = self._gather(futures, results, on_result)
        if broken or hung:
            self._rebuild_pool()
        for index in broken:
            self._isolate(fn, tasks, index, results, on_result, on_crash)
        for index in hung:
            self._give_up(
                tasks, index, results, on_result, on_crash,
                WorkerCrashError(
                    f"task {index} exceeded the {self.cell_timeout_s}s cell "
                    f"timeout on the {self.backend} pool"
                ),
            )
        return results

    def _gather(
        self,
        futures: dict["Future", int],
        results: list[Any],
        on_result: ResultCallback | None,
    ) -> tuple[list[int], list[int]]:
        """Collect every future; returns (worker-died, hung) task indices.

        Task exceptions other than :class:`BrokenExecutor` propagate
        unchanged — graceful degradation is for environmental failures,
        not bugs (the grid worker already converts library errors into
        ``CellFailure`` records worker-side).
        """
        broken: list[int] = []
        hung: list[int] = []
        pending = set(futures)
        first_running: dict["Future", float] = {}
        poll = _WATCHDOG_POLL_S if self.cell_timeout_s is not None else None
        while pending:
            done, pending = wait(pending, timeout=poll, return_when=FIRST_COMPLETED)
            for future in done:
                index = futures[future]
                try:
                    value = future.result()
                except BrokenExecutor:
                    broken.append(index)
                else:
                    results[index] = value
                    if on_result is not None:
                        on_result(index, value)
            if self.cell_timeout_s is not None:
                now = self.clock.monotonic()
                for future in list(pending):
                    if not future.running():
                        continue
                    started = first_running.setdefault(future, now)
                    if now - started > self.cell_timeout_s:
                        # Abandon the future: its worker keeps the slot
                        # until the pool is rebuilt, but the study moves
                        # on.  The eventual result (if any) is discarded.
                        hung.append(futures[future])
                        pending.discard(future)
        broken.sort()
        hung.sort()
        return broken, hung

    def _isolate(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        index: int,
        results: list[Any],
        on_result: ResultCallback | None,
        on_crash: CrashConverter | None,
    ) -> None:
        """Re-run one suspect task alone on the rebuilt pool.

        Solo execution pins blame exactly: if the worker dies again, this
        task is the culprit; if it completes, it was an innocent casualty
        of a neighbour's crash.
        """
        assert self._pool is not None
        future = self._pool.submit(fn, tasks[index])
        deadline = (
            None if self.cell_timeout_s is None
            else self.clock.monotonic() + self.cell_timeout_s
        )
        while True:
            done, _pending = wait({future}, timeout=_WATCHDOG_POLL_S)
            if done:
                break
            if deadline is not None and self.clock.monotonic() > deadline:
                self._rebuild_pool()
                self._give_up(
                    tasks, index, results, on_result, on_crash,
                    WorkerCrashError(
                        f"task {index} exceeded the {self.cell_timeout_s}s "
                        "cell timeout during isolation re-run"
                    ),
                )
                return
        try:
            value = future.result()
        except BrokenExecutor:
            self._rebuild_pool()
            self._give_up(
                tasks, index, results, on_result, on_crash,
                WorkerCrashError(
                    f"worker process died running task {index} "
                    "(reproduced in isolation after a pool rebuild)"
                ),
            )
            return
        results[index] = value
        if on_result is not None:
            on_result(index, value)

    def _give_up(
        self,
        tasks: Sequence[Any],
        index: int,
        results: list[Any],
        on_result: ResultCallback | None,
        on_crash: CrashConverter | None,
        error: WorkerCrashError,
    ) -> None:
        """Surface one unrecoverable task: convert via ``on_crash`` or raise."""
        if on_crash is None:
            raise error
        results[index] = on_crash(tasks[index], error)
        if on_result is not None:
            on_result(index, results[index])

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadStudyExecutor(_PoolExecutor):
    """Thread-pool backend: shared memory, shared completion cache."""

    backend = "thread"

    def _make_pool(self) -> _FuturesExecutor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-study"
        )


class ProcessStudyExecutor(_PoolExecutor):
    """Process-pool backend (fork where available): picklable tasks only."""

    backend = "process"

    def _make_pool(self) -> _FuturesExecutor:
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        return ProcessPoolExecutor(max_workers=self.workers, mp_context=context)


def resolve_backend(backend: str = "auto", workers: int = 1) -> str:
    """The concrete backend name; ``auto`` picks ``thread`` when more
    than one worker is requested and ``serial`` otherwise."""
    if backend == "auto":
        backend = "thread" if workers > 1 else "serial"
    if backend not in EXECUTOR_BACKENDS:
        known = ", ".join(EXECUTOR_BACKENDS)
        raise ConfigurationError(
            f"unknown executor backend {backend!r}; choose one of: {known}"
        )
    return backend


def make_executor(
    workers: int = 1,
    backend: str = "auto",
    cell_timeout_s: float | None = None,
    clock: Clock | None = None,
) -> StudyExecutor:
    """Build the executor for ``workers`` on ``backend``.

    ``cell_timeout_s`` arms the per-task hang watchdog on the pool
    backends; the serial backend runs inline and cannot preempt a hung
    task.  A worker count below 1 or a non-positive timeout raises
    :class:`~repro.errors.ConfigurationError` on every backend.

    >>> make_executor(workers=1).backend
    'serial'
    >>> make_executor(workers=3, backend="thread").workers
    3
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if cell_timeout_s is not None and cell_timeout_s <= 0:
        raise ConfigurationError(
            f"cell timeout must be positive, got {cell_timeout_s}"
        )
    backend = resolve_backend(backend, workers)
    if workers == 1 or backend == "serial":
        # A one-worker pool only adds dispatch overhead; serial is the
        # identical-output fast path.
        return SerialExecutor()
    if backend == "thread":
        return ThreadStudyExecutor(workers, cell_timeout_s=cell_timeout_s, clock=clock)
    return ProcessStudyExecutor(workers, cell_timeout_s=cell_timeout_s, clock=clock)
