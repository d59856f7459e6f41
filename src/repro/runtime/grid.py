"""The study grid as independent, picklable tasks.

Tables 3 and 4 are grids of independent cells: one ``(matcher, target)``
pair fits on the transfer datasets and predicts on the held-out target
for every seed, never touching another cell's state.  This module
decomposes the grids into :class:`GridCell` specs and provides the
module-level :func:`run_cell` worker the process-pool executor can
pickle.

A worker reconstructs its inputs deterministically: the synthetic dataset
bundle is a pure function of ``(scale, seed)`` and is memoized
*per process*, so a warm pool worker builds it once and reuses it for
every cell it is handed.  Because every source of randomness is seeded
per cell, dispatching cells through any executor backend yields
bit-identical results to the serial nested loops it replaces.

A cell's settings ride on its :class:`~repro.config.StudyConfig`: the
retry policy and fault plan its LLM clients run under, and whether a
failure aborts the study.  :func:`run_cell` builds each cell's own
client stack from them, so a pool worker gets its settings with the
pickled cell and reads no global.  Its retry/fault counts come back the
same way: every cell counts into its own
:class:`~repro.reliability.counters.Tally`, carried on its outcome, and
:func:`run_cells` sums the per-cell counts on every backend.

Cells degrade gracefully: :func:`run_cell_guarded` converts a cell's
terminal :class:`~repro.errors.ReproError` (after :data:`CELL_RETRIES`
whole-cell re-runs) into a structured :class:`CellFailure` record
instead of aborting the study, unless the config asks for fail-fast.
Failure semantics are specified in ``docs/FAILURE_SEMANTICS.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..config import StudyConfig
from ..data.generators import build_all_datasets
from ..errors import (
    CellExecutionError,
    DeadlineExceededError,
    ReproError,
    RetryExhaustedError,
    TransientLLMError,
)
from ..eval.loo import LeaveOneOutRunner, StudyResult, TargetResult
from ..llm.client import LLMClient
from ..obs.trace import span
from ..reliability.counters import Tally
from ..reliability.wiring import harden_client
from .cache import CachedClient, active_cache, ensure_active_cache
from .executor import StudyExecutor
from .stats import RuntimeStats

__all__ = [
    "CELL_RETRIES",
    "GridCell",
    "CellResult",
    "CellFailure",
    "dataset_bundle",
    "run_cell",
    "run_cell_guarded",
    "run_cells",
    "split_failures",
]

#: Per-process memo of ``build_all_datasets`` outputs keyed on
#: ``(scale, seed)`` — the generators are deterministic, so every process
#: that builds the same key holds identical data.
_DATASET_MEMO: dict[tuple[float, int], tuple] = {}


def dataset_bundle(scale: float, seed: int) -> tuple:
    """The memoized ``(datasets, world)`` bundle for one generator key."""
    key = (float(scale), int(seed))
    if key not in _DATASET_MEMO:
        _DATASET_MEMO[key] = build_all_datasets(scale=scale, seed=seed)
    return _DATASET_MEMO[key]


@dataclass(frozen=True)
class GridCell:
    """One independent ``(matcher, target)`` unit of study work."""

    #: ``table3`` cells name a roster entry; ``table4`` cells name a
    #: ``(model, strategy)`` combination.
    kind: str
    matcher_name: str
    target_code: str
    config: StudyConfig
    #: The full leave-one-out code roster (defines the transfer sets).
    codes: tuple[str, ...]
    dataset_seed: int = 7
    llm_seed: int = 0
    seen_in_training: bool = False
    #: Table-4 only: the LLM profile and demonstration strategy.
    model: str = ""
    strategy: str = ""
    #: Answer this cell's completions from the process's active
    #: completion cache (installing an in-memory one if none is).
    use_cache: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("table3", "table4"):
            raise ReproError(f"unknown grid cell kind {self.kind!r}")
        if self.kind == "table4" and not (self.model and self.strategy):
            raise ReproError("table4 cells need a model and a strategy")
        if self.target_code not in self.codes:
            raise ReproError(
                f"target {self.target_code!r} not in cell codes {self.codes}"
            )


@dataclass(frozen=True)
class CellResult:
    """One evaluated cell plus its worker-side accounting."""

    matcher_name: str
    target_code: str
    result: TargetResult
    seconds: float
    cache_delta: dict[str, float] = field(default_factory=dict)
    #: This cell's retry/fault tally across every whole-cell attempt.
    reliability_delta: dict[str, float] = field(default_factory=dict)
    #: How many whole-cell re-runs this result needed (0 = first try).
    retries: int = 0


@dataclass(frozen=True)
class CellFailure:
    """One grid cell that failed after exhausting its retry budget.

    The structured record graceful degradation stores in the
    ``runtime.cell_failures`` block of ``full_study.json`` instead of
    aborting the run (see ``docs/FAILURE_SEMANTICS.md`` for the schema).
    """

    matcher_name: str
    target_code: str
    #: Class name of the terminal error (e.g. ``RetryExhaustedError``).
    error_type: str
    #: The terminal error's message, truncated for the JSON document.
    message: str
    #: Whole-cell attempts made, including the first.
    attempts: int
    #: Wall-clock spent across all attempts, in seconds.
    seconds: float
    #: Whether the terminal error was of a retryable class (a
    #: non-retryable error fails the cell on its first attempt).
    retryable: bool = False
    cache_delta: dict[str, float] = field(default_factory=dict)
    #: This cell's retry/fault tally across every whole-cell attempt
    #: (empty for a cell whose pool worker died or hung).
    reliability_delta: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The JSON shape stored in ``full_study.json``."""
        return {
            "matcher": self.matcher_name,
            "target": self.target_code,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "seconds": round(self.seconds, 3),
            "retryable": self.retryable,
        }


def _factory_for(cell: GridCell, world, wrap_llm):
    """Rebuild the matcher factory for one cell (inside the worker)."""
    if cell.kind == "table3":
        from ..study.roster import build_roster

        entry = build_roster(
            world,
            names=(cell.matcher_name,),
            llm_seed=cell.llm_seed,
            wrap_llm=wrap_llm,
        )[0]
        return entry.factory

    from ..llm.profiles import get_profile as get_llm_profile
    from ..llm.prompts import DemonstrationStrategy
    from ..llm.simulated import SimulatedLLM
    from ..matchers import MatchGPTMatcher

    profile = get_llm_profile(cell.model)
    strategy = DemonstrationStrategy(cell.strategy)

    def factory(code: str):
        return MatchGPTMatcher(
            wrap_llm(SimulatedLLM(profile, world, seed=cell.llm_seed)),
            demo_strategy=strategy,
            display_name=f"{profile.display_name} ({strategy.value})",
            params_millions=profile.params_millions,
        )

    return factory


def run_cell(cell: GridCell, tally: Tally | None = None) -> CellResult:
    """Evaluate one grid cell; safe to run in any executor backend.

    The cell's LLM clients count into ``tally`` (default: a fresh one),
    and the result carries the tally's counts.  Its cache activity is
    left to :func:`run_cell_guarded`, which measures it across every
    attempt of the cell.
    """
    started = time.perf_counter()
    tally = tally if tally is not None else Tally()
    cache = ensure_active_cache() if cell.use_cache else None
    policy, plan = cell.config.retry_policy, cell.config.fault_plan

    def wrap_llm(client: LLMClient) -> LLMClient:
        # Faults and retries inside, the cache outermost (see
        # repro.reliability.wiring.harden_client for why).
        client = harden_client(client, policy, plan, tally)
        return CachedClient(client, cache) if cache is not None else client

    datasets, world = dataset_bundle(cell.config.dataset_scale, cell.dataset_seed)
    datasets = {code: datasets[code] for code in cell.codes}
    runner = LeaveOneOutRunner(datasets, cell.config, codes=cell.codes)
    result = runner.run_target(
        _factory_for(cell, world, wrap_llm),
        cell.target_code,
        seen_in_training=cell.seen_in_training,
    )
    return CellResult(
        matcher_name=cell.matcher_name,
        target_code=cell.target_code,
        result=result,
        seconds=time.perf_counter() - started,
        reliability_delta=tally.snapshot(),
    )


#: Error classes that justify re-running a whole cell: the failure was
#: environmental (transient backend trouble or an exhausted/expired retry
#: loop), not a property of the cell itself.
_CELL_RETRYABLE = (TransientLLMError, RetryExhaustedError, DeadlineExceededError)

#: Whole-cell re-runs after a retryable failure.
CELL_RETRIES = 1


def run_cell_guarded(cell: GridCell) -> "CellResult | CellFailure":
    """Evaluate one cell, degrading failures into :class:`CellFailure`.

    Library errors (:class:`~repro.errors.ReproError`) are caught; a
    retryable one re-runs the whole cell up to :data:`CELL_RETRIES`
    times before a failure record is returned.  One tally and one cache
    snapshot, taken before the first attempt, count every attempt, and
    the outcome — success or failure — carries both.  Programming errors
    (``TypeError`` et al.) still propagate and abort the run — graceful
    degradation is for environmental failures, not bugs.  Note that
    under a *deterministic* fault plan a whole-cell re-run replays the
    same injected faults, so request-level retries (not cell retries)
    are what absorb injected faults; cell retries exist for the
    nondeterministic failures of a real backend.
    """
    started = time.perf_counter()
    tally = Tally()
    cache = ensure_active_cache() if cell.use_cache else None
    snapshot = cache.counters() if cache is not None else {}

    def cache_delta() -> dict[str, float]:
        return cache.delta_since(snapshot) if cache is not None else {}

    attempts = 0
    with span(
        "grid.cell",
        kind=cell.kind,
        matcher=cell.matcher_name,
        target=cell.target_code,
    ) as cell_span:
        while True:
            attempts += 1
            try:
                result = replace(
                    run_cell(cell, tally),
                    cache_delta=cache_delta(),
                    retries=attempts - 1,
                )
                cell_span.set(outcome="ok", attempts=attempts)
                return result
            except ReproError as error:
                retryable = isinstance(error, _CELL_RETRYABLE)
                if retryable and attempts <= CELL_RETRIES:
                    continue
                cell_span.set(
                    outcome="failed",
                    attempts=attempts,
                    error_type=type(error).__name__,
                )
                return CellFailure(
                    matcher_name=cell.matcher_name,
                    target_code=cell.target_code,
                    error_type=type(error).__name__,
                    message=str(error)[:500],
                    attempts=attempts,
                    seconds=time.perf_counter() - started,
                    retryable=retryable,
                    cache_delta=cache_delta(),
                    reliability_delta=tally.snapshot(),
                )


def split_failures(
    outcomes: list["CellResult | CellFailure"],
) -> tuple[list[CellResult], list[CellFailure]]:
    """Partition mixed cell outcomes into (successes, failures)."""
    successes = [o for o in outcomes if isinstance(o, CellResult)]
    failures = [o for o in outcomes if isinstance(o, CellFailure)]
    return successes, failures


def _crashed_cell_failure(cell: GridCell, error: ReproError) -> CellFailure:
    """The degradation record for a cell whose pool worker died or hung.

    The worker took the cell's timing and tally with it, so the
    record carries only the structured blame for the
    ``runtime.cell_failures`` block.  Crash failures are journaled like
    any other outcome, so a resumed run replays the degradation rather
    than silently retrying it; re-run without ``--resume`` (or delete
    the journal) to give crashed cells another chance.
    """
    return CellFailure(
        matcher_name=cell.matcher_name,
        target_code=cell.target_code,
        error_type=type(error).__name__,
        message=str(error)[:500],
        attempts=1,
        seconds=0.0,
        retryable=True,
    )


def run_cells(
    cells: list[GridCell],
    executor: StudyExecutor,
    stats: RuntimeStats | None = None,
    phase: str = "grid",
    journal=None,
) -> list["CellResult | CellFailure"]:
    """Dispatch cells through the executor, in submission order.

    Failed cells degrade into :class:`CellFailure` entries in the
    returned list (and into ``stats``) unless the cells' config sets
    ``fail_fast``, in which case the first failure raises
    :class:`~repro.errors.CellExecutionError`.  ``stats`` sums every
    computed cell's retry/fault tally, whatever the backend.

    With a :class:`~repro.runtime.journal.CellJournal` attached, cells
    already present in the journal are *replayed* from disk instead of
    executed (their reconstructed outcomes are byte-identical), and every
    newly computed cell is durably journaled the moment the parent
    collects it — the write-ahead contract ``--resume`` is built on.
    A worker process that dies or hangs mid-cell degrades into the same
    :class:`CellFailure` path via the executor's crash containment.
    """
    outcomes: list["CellResult | CellFailure | None"] = [None] * len(cells)
    pending_indices = list(range(len(cells)))
    if journal is not None:
        pending_indices = []
        for index, cell in enumerate(cells):
            replayed = journal.lookup(cell)
            if replayed is not None:
                outcomes[index] = replayed
            else:
                pending_indices.append(index)
    pending_cells = [cells[i] for i in pending_indices]
    n_replayed = len(cells) - len(pending_cells)

    def journal_outcome(position: int, outcome: "CellResult | CellFailure") -> None:
        journal.record(pending_cells[position], outcome, phase=phase)

    cache = active_cache()
    cache_snapshot = cache.counters() if cache is not None else {}

    def dispatch() -> list["CellResult | CellFailure"]:
        with span(
            "grid.phase",
            phase=phase,
            cells=len(pending_cells),
            replayed=n_replayed,
            backend=executor.backend,
        ):
            return executor.map_tasks(
                run_cell_guarded,
                pending_cells,
                on_result=journal_outcome if journal is not None else None,
                on_crash=_crashed_cell_failure,
            )

    if stats is None:
        computed = dispatch()
    else:
        with stats.phase(phase):
            computed = dispatch()
    for position, index in enumerate(pending_indices):
        outcomes[index] = computed[position]
    successes, failures = split_failures(outcomes)

    if stats is not None:
        stats.record_tasks(phase, len(computed), sum(o.seconds for o in computed))
        if journal is not None:
            stats.merge_resume(
                {"cells_replayed": n_replayed, "cells_computed": len(computed)}
            )
        if cache is not None and executor.backend != "process":
            # Serial and thread cells share this process's cache, so
            # per-cell deltas overlap under concurrency (each cell's
            # window counts its neighbours' activity); one whole-phase
            # delta is exact.
            stats.merge_cache(cache.delta_since(cache_snapshot))
        else:
            # Process workers hold their own forked caches and run their
            # cells sequentially, so per-cell deltas partition exactly.
            # Replayed cells did no work and contribute nothing.
            for outcome in computed:
                stats.merge_cache(outcome.cache_delta)
        # Every cell counts into its own tally, so per-cell counts
        # partition exactly on every backend.
        for outcome in computed:
            stats.merge_reliability(outcome.reliability_delta)
        stats.merge_reliability(
            {
                "cell_retries": sum(r.retries for r in successes)
                + sum(max(f.attempts - 1, 0) for f in failures),
                "cell_failures": len(failures),
            }
        )
        stats.record_failures(failures)

    if failures and cells[0].config.fail_fast:
        first = failures[0]
        raise CellExecutionError(
            f"{len(failures)} grid cell(s) failed (fail-fast); first: "
            f"{first.matcher_name}/{first.target_code} "
            f"{first.error_type}: {first.message}"
        )
    return outcomes


def collect_rows(
    cells: list[GridCell],
    results: list["CellResult | CellFailure"],
    params_by_matcher: dict[str, float],
) -> list[StudyResult]:
    """Assemble per-cell results into Table-3-style rows, preserving the
    cells' submission order (matcher-major, then target).

    :class:`CellFailure` entries are skipped: a degraded run's rows
    simply lack the failed targets (the failures themselves live in the
    ``runtime.cell_failures`` block).
    """
    rows: dict[str, StudyResult] = {}
    for cell, cell_result in zip(cells, results):
        if isinstance(cell_result, CellFailure):
            continue
        row = rows.get(cell.matcher_name)
        if row is None:
            row = StudyResult(
                matcher_name=cell.matcher_name,
                params_millions=params_by_matcher.get(cell.matcher_name, 0.0),
            )
            rows[cell.matcher_name] = row
        row.per_dataset[cell.target_code] = cell_result.result
    return list(rows.values())
