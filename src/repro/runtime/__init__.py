"""Parallel study runtime: executors, task grid, completion cache, stats.

The paper's experiment grid (14 matchers x 11 leave-one-out targets x 5
seeds, Tables 3-4) is embarrassingly parallel: every (matcher, target)
cell fits and predicts independently.  This package supplies the
scheduler the study drivers dispatch through:

:mod:`repro.runtime.executor`
    ``StudyExecutor`` and its serial / thread-pool / process-pool
    implementations behind one ``map_tasks()`` interface with
    submission-order result merging, so parallel output is byte-identical
    to serial output.
:mod:`repro.runtime.grid`
    Decomposition of the Table 3/4 grids into independent
    :class:`~repro.runtime.grid.GridCell` tasks and the picklable
    ``run_cell`` worker.
:mod:`repro.runtime.cache`
    A content-addressed completion cache keyed on
    ``sha256(model || salt || strategy || prompt)`` wrapped around any
    :class:`~repro.llm.client.LLMClient` — repeated prompts (Table 4's
    ``none`` strategy re-runs Table 3's MatchGPT cells verbatim) are
    answered from memory and their simulated dollar cost counted as
    saved.
:mod:`repro.runtime.stats`
    Per-phase wall-clock, task counts, cache hit rate and the
    parallel-speedup estimate recorded into ``full_study.json``.
:mod:`repro.runtime.persist`
    Atomic, checksummed file writes (tmp + ``os.replace`` + digest
    footer) and quarantine of corrupt on-disk state.
:mod:`repro.runtime.journal`
    The write-ahead cell journal behind ``full_run --resume``: every
    completed grid cell is fsynced to an append-only JSONL log and
    replayed byte-identically after a crash.

``repro.runtime.grid`` is intentionally *not* imported here: it pulls in
the study roster (and with it the matcher stack), which would create an
import cycle through :mod:`repro.llm`.  Import it explicitly via
``from repro.runtime import grid``.
"""

from __future__ import annotations

from .cache import CachedClient, CompletionCache, active_cache, completion_key
from .executor import (
    EXECUTOR_BACKENDS,
    ProcessStudyExecutor,
    SerialExecutor,
    StudyExecutor,
    ThreadStudyExecutor,
    make_executor,
    resolve_backend,
)
from .journal import CellJournal, cell_key
from .persist import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    load_checked_json,
    quarantine_file,
)
from .stats import RuntimeStats

__all__ = [
    "CachedClient",
    "CellJournal",
    "CompletionCache",
    "EXECUTOR_BACKENDS",
    "ProcessStudyExecutor",
    "RuntimeStats",
    "SerialExecutor",
    "StudyExecutor",
    "ThreadStudyExecutor",
    "active_cache",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "cell_key",
    "completion_key",
    "load_checked_json",
    "make_executor",
    "quarantine_file",
    "resolve_backend",
]
