"""Table 3 — cross-dataset F1 for all matcher variants (the main result).

Each ``(matcher, target)`` cell carries the run's :class:`StudyConfig`,
and with it the retry policy, fault plan and fail-fast switch its LLM
clients run under; :func:`run` takes no other runtime setting than the
executor, the stats sink, the cache switch and the journal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import StudyConfig, get_profile
from ..eval.loo import LeaveOneOutRunner, StudyResult
from ..eval.reporting import format_table3
from ..runtime import grid
from ..runtime.executor import SerialExecutor, StudyExecutor
from ..runtime.stats import RuntimeStats
from .roster import ROSTER_ORDER, build_roster

__all__ = ["Table3Result", "run"]


@dataclass
class Table3Result:
    """All Table-3 rows, in paper order."""

    results: list[StudyResult]
    config_name: str = "default"
    codes: tuple[str, ...] = field(default_factory=tuple)

    def render(self) -> str:
        if not self.results:
            # Degraded run: every cell failed (see runtime.cell_failures).
            return "(no surviving Table-3 rows)"
        return format_table3(self.results, self.codes or None)

    def quality_table(self) -> dict[str, float]:
        """Matcher → macro-mean F1 (input to the trade-off figures)."""
        return {r.matcher_name: r.mean_f1 for r in self.results}

    def per_dataset_table(self) -> dict[str, dict[str, float]]:
        """Matcher → dataset → mean F1 (input to the findings analyses)."""
        return {r.matcher_name: r.dataset_means() for r in self.results}


def run(
    config: StudyConfig | None = None,
    matcher_names: tuple[str, ...] | None = None,
    codes: tuple[str, ...] | None = None,
    dataset_seed: int = 7,
    executor: StudyExecutor | None = None,
    stats: RuntimeStats | None = None,
    use_cache: bool = False,
    journal=None,
) -> Table3Result:
    """Run the leave-one-dataset-out study for the requested matchers.

    ``matcher_names`` defaults to all 14 variants; restrict it to keep a
    run short (the trained matchers dominate the wall-clock cost).

    The grid of ``(matcher, target)`` cells is dispatched through
    ``executor`` (default: serial).  Cells are independent and fully
    seeded, so every backend returns bit-identical results.  With
    ``use_cache`` the cells answer repeated prompts from the process's
    active completion cache.  With ``journal`` (a
    :class:`~repro.runtime.journal.CellJournal`) attached, finished cells
    are replayed from disk and new ones journaled as they complete.
    """
    config = config or get_profile("default")
    matcher_names = matcher_names or ROSTER_ORDER
    executor = executor or SerialExecutor()

    datasets, world = grid.dataset_bundle(config.dataset_scale, dataset_seed)
    if codes:
        datasets = {c: datasets[c] for c in codes}
    # The runner is only consulted for the ordered code roster here; the
    # actual evaluation happens inside the grid cells.
    loop_codes = LeaveOneOutRunner(datasets, config, codes=codes).codes

    entries = build_roster(world, names=tuple(matcher_names))
    cells = [
        grid.GridCell(
            kind="table3",
            matcher_name=entry.name,
            target_code=code,
            config=config,
            codes=loop_codes,
            dataset_seed=dataset_seed,
            seen_in_training=code in entry.seen_datasets,
            use_cache=use_cache,
        )
        for entry in entries
        for code in loop_codes
    ]
    cell_results = grid.run_cells(
        cells, executor, stats=stats, phase="table3", journal=journal
    )
    results = grid.collect_rows(
        cells, cell_results, {entry.name: entry.params_millions for entry in entries}
    )
    return Table3Result(results, config.name, codes=tuple(codes or ()))
