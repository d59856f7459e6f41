"""Runtime accounting for a study run.

:class:`RuntimeStats` records, per named phase, the wall-clock spent, how
many grid tasks ran, and the *sum of per-task seconds* as measured inside
the workers.  On a parallel run the ratio ``task_seconds / wall_seconds``
is the realised speedup over an ideal serial execution of the same tasks
— the number the benchmark harness tracks across PRs.  Cache counters are
merged in from the per-cell deltas the grid workers return (a parent
process cannot observe a pool worker's in-memory cache directly), and
retry/fault counts from each cell's own tally.

The aggregate lands in the ``runtime`` block of ``full_study.json`` and
is printed as the run footer; it never touches any table or figure value.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from ..reliability import counters as reliability_counters

__all__ = ["RuntimeStats"]

#: The reliability counts the footer prints.
_FOOTER_RELIABILITY_KEYS = (
    "request_retries", "faults_injected", "cell_retries", "cell_failures"
)


class RuntimeStats:
    """Per-phase wall-clock, task counts and cache totals for one run."""

    def __init__(self, workers: int = 1, backend: str = "serial") -> None:
        """Start the run clock for a study on ``workers`` × ``backend``."""
        self.workers = workers
        self.backend = backend
        self.phase_seconds: dict[str, float] = {}
        self.phase_tasks: dict[str, int] = {}
        self.phase_task_seconds: dict[str, float] = {}
        self.cache_counters: dict[str, float] = {
            "hits": 0,
            "misses": 0,
            "saved_prompt_tokens": 0,
            "saved_dollars": 0.0,
        }
        #: A cell tally's keys (the only list of them) plus the grid's own
        #: cell retry/failure counts; every value starts as an int but
        #: ``retry_sleep_seconds``.
        self.reliability_counters: dict[str, float] = {
            key: 0.0 if key == "retry_sleep_seconds" else 0
            for key in (
                *reliability_counters.COUNTER_KEYS, "cell_retries", "cell_failures"
            )
        }
        #: Structured :class:`repro.runtime.grid.CellFailure` records
        #: (as dicts) from every phase, in submission order.
        self.cell_failures: list[dict] = []
        #: Whether a write-ahead cell journal was attached to this run
        #: (switches the ``resume`` block on in :meth:`as_dict`).
        self.journal_active = False
        #: Resumed-vs-computed accounting for journaled runs.
        self.resume_counters: dict[str, float] = {
            "cells_replayed": 0,
            "cells_computed": 0,
            "journal_records_loaded": 0,
            "corrupt_quarantined": 0,
        }
        self._started = time.perf_counter()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock under ``name`` (re-enterable)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed

    def record_tasks(self, phase: str, n_tasks: int, task_seconds: float) -> None:
        """Account ``n_tasks`` worker tasks totalling ``task_seconds``."""
        self.phase_tasks[phase] = self.phase_tasks.get(phase, 0) + n_tasks
        self.phase_task_seconds[phase] = (
            self.phase_task_seconds.get(phase, 0.0) + task_seconds
        )

    def merge_cache(self, delta: dict[str, float]) -> None:
        """Fold one worker-reported cache counter delta into the totals."""
        for key in self.cache_counters:
            self.cache_counters[key] += delta.get(key, 0)

    def merge_reliability(self, delta: dict[str, float]) -> None:
        """Fold one retry/fault counter delta into the totals."""
        for key in self.reliability_counters:
            self.reliability_counters[key] += delta.get(key, 0)

    def merge_resume(self, delta: dict[str, float]) -> None:
        """Fold journal replay/compute counts into the resume totals."""
        self.journal_active = True
        for key in self.resume_counters:
            self.resume_counters[key] += delta.get(key, 0)

    def record_failures(self, failures: list) -> None:
        """Append structured cell-failure records (dicts or CellFailures)."""
        for failure in failures:
            self.cell_failures.append(
                failure if isinstance(failure, dict) else failure.as_dict()
            )

    # -- derived -------------------------------------------------------------

    @property
    def total_wall_seconds(self) -> float:
        """Wall-clock since this stats object was created."""
        return time.perf_counter() - self._started

    @property
    def n_tasks(self) -> int:
        """Total grid tasks accounted across every phase."""
        return sum(self.phase_tasks.values())

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit (0.0 when none happened)."""
        total = self.cache_counters["hits"] + self.cache_counters["misses"]
        return self.cache_counters["hits"] / total if total else 0.0

    @property
    def reliability_active(self) -> bool:
        """Whether a count the footer's reliability line prints is nonzero."""
        return any(self.reliability_counters[key] for key in _FOOTER_RELIABILITY_KEYS)

    def speedup_vs_serial(self, phase: str) -> float | None:
        """Realised speedup of ``phase``: serial task time over wall time.

        ``None`` when the phase ran no timed tasks (e.g. the static
        Tables 5-6 phase).
        """
        wall = self.phase_seconds.get(phase, 0.0)
        tasks = self.phase_task_seconds.get(phase, 0.0)
        if wall <= 0.0 or tasks <= 0.0:
            return None
        return tasks / wall

    def as_dict(self) -> dict:
        """The ``runtime`` block written into ``full_study.json``."""
        phases = {}
        for name, wall in self.phase_seconds.items():
            entry: dict = {"wall_seconds": round(wall, 3)}
            if name in self.phase_tasks:
                entry["tasks"] = self.phase_tasks[name]
                entry["task_seconds"] = round(self.phase_task_seconds[name], 3)
                speedup = self.speedup_vs_serial(name)
                if speedup is not None:
                    entry["speedup_vs_serial"] = round(speedup, 3)
            phases[name] = entry
        cache = dict(self.cache_counters)
        cache["saved_dollars"] = round(cache["saved_dollars"], 6)
        cache["hit_rate"] = round(self.cache_hit_rate, 4)
        reliability = {
            key: round(value, 6) for key, value in self.reliability_counters.items()
        }
        block = {
            "workers": self.workers,
            "backend": self.backend,
            "phases": phases,
            "cache": cache,
            "reliability": reliability,
            "total_wall_seconds": round(self.total_wall_seconds, 3),
        }
        if self.journal_active:
            block["resume"] = {
                key: int(value) for key, value in self.resume_counters.items()
            }
        if self.cell_failures:
            block["cell_failures"] = list(self.cell_failures)
        return block

    def footer(self) -> str:
        """One-paragraph run summary printed after a study completes."""
        lines = [
            f"[runtime] backend={self.backend} workers={self.workers} "
            f"tasks={self.n_tasks} wall={self.total_wall_seconds:.1f}s"
        ]
        for name, wall in self.phase_seconds.items():
            part = f"[runtime]   {name}: {wall:.1f}s"
            speedup = self.speedup_vs_serial(name)
            if speedup is not None:
                part += f" ({self.phase_tasks.get(name, 0)} tasks, {speedup:.2f}x vs serial)"
            lines.append(part)
        hits = self.cache_counters["hits"]
        misses = self.cache_counters["misses"]
        if hits or misses:
            lines.append(
                f"[runtime]   cache: {hits:.0f} hits / {misses:.0f} misses "
                f"({self.cache_hit_rate:.0%}), "
                f"${self.cache_counters['saved_dollars']:.4f} saved"
            )
        if self.journal_active:
            resume = self.resume_counters
            lines.append(
                f"[runtime]   resume: {resume['cells_replayed']:.0f} cells "
                f"replayed from journal / {resume['cells_computed']:.0f} computed"
                + (
                    f", {resume['corrupt_quarantined']:.0f} corrupt records "
                    "quarantined"
                    if resume["corrupt_quarantined"]
                    else ""
                )
            )
        if self.reliability_active:
            r = self.reliability_counters
            lines.append(
                f"[runtime]   reliability: {r['request_retries']:.0f} request "
                f"retries, {r['faults_injected']:.0f} faults injected, "
                f"{r['cell_retries']:.0f} cell retries, "
                f"{r['cell_failures']:.0f} cell failures"
            )
        return "\n".join(lines)
