"""Table 4 — demonstration strategies for the prompted GPT models."""

from __future__ import annotations

from dataclasses import dataclass

from ..config import StudyConfig, get_profile
from ..eval.loo import LeaveOneOutRunner, StudyResult
from ..eval.reporting import format_table3
from ..llm.profiles import get_profile as get_llm_profile
from ..llm.prompts import DemonstrationStrategy
from ..runtime import grid
from ..runtime.executor import SerialExecutor, StudyExecutor
from ..runtime.stats import RuntimeStats

__all__ = ["Table4Result", "run", "TABLE4_MODELS", "TABLE4_STRATEGIES"]

#: The three models and three strategies evaluated in Table 4.
TABLE4_MODELS: tuple[str, ...] = ("gpt-4o-mini", "gpt-3.5-turbo", "gpt-4")
TABLE4_STRATEGIES: tuple[DemonstrationStrategy, ...] = (
    DemonstrationStrategy.NONE,
    DemonstrationStrategy.HAND_PICKED,
    DemonstrationStrategy.RANDOM,
)


@dataclass
class Table4Result:
    """One StudyResult per (model, strategy) combination."""

    results: dict[tuple[str, str], StudyResult]

    def render(self) -> str:
        ordered = [
            self.results[(model, strategy.value)]
            for model in TABLE4_MODELS
            for strategy in TABLE4_STRATEGIES
            if (model, strategy.value) in self.results
        ]
        if not ordered:
            # Degraded run: every cell failed (see runtime.cell_failures).
            return "(no surviving Table-4 rows)"
        return format_table3(ordered)

    def mean_by_strategy(self, model: str) -> dict[str, float]:
        return {
            strategy.value: self.results[(model, strategy.value)].mean_f1
            for strategy in TABLE4_STRATEGIES
        }


def run(
    config: StudyConfig | None = None,
    models: tuple[str, ...] = TABLE4_MODELS,
    codes: tuple[str, ...] | None = None,
    dataset_seed: int = 7,
    llm_seed: int = 0,
    executor: StudyExecutor | None = None,
    stats: RuntimeStats | None = None,
    use_cache: bool = False,
    strategies: tuple[DemonstrationStrategy, ...] = TABLE4_STRATEGIES,
    journal=None,
) -> Table4Result:
    """Evaluate each model under the three demonstration strategies.

    Like Table 3, the ``(model, strategy, target)`` grid dispatches
    through the executor, and an attached ``journal`` replays finished
    cells.  With the completion cache enabled the ``none`` strategy is
    where hits concentrate: its prompts are byte-identical to the
    Table-3 MatchGPT prompts for the same model, seed and targets.
    """
    config = config or get_profile("default")
    executor = executor or SerialExecutor()

    datasets, _world = grid.dataset_bundle(config.dataset_scale, dataset_seed)
    if codes:
        datasets = {c: datasets[c] for c in codes}
    loop_codes = LeaveOneOutRunner(datasets, config, codes=codes).codes

    cells = []
    for model in models:
        profile = get_llm_profile(model)
        for strategy in strategies:
            for code in loop_codes:
                cells.append(
                    grid.GridCell(
                        kind="table4",
                        matcher_name=f"{profile.display_name} ({strategy.value})",
                        target_code=code,
                        config=config,
                        codes=loop_codes,
                        dataset_seed=dataset_seed,
                        llm_seed=llm_seed,
                        model=model,
                        strategy=strategy.value,
                        use_cache=use_cache,
                    )
                )
    cell_results = grid.run_cells(
        cells, executor, stats=stats, phase="table4", journal=journal
    )

    results: dict[tuple[str, str], StudyResult] = {}
    for cell, cell_result in zip(cells, cell_results):
        if isinstance(cell_result, grid.CellFailure):
            # Graceful degradation: the failed target is simply absent
            # from this row; the failure record lives in the stats.
            continue
        key = (cell.model, cell.strategy)
        row = results.get(key)
        if row is None:
            profile = get_llm_profile(cell.model)
            row = StudyResult(
                matcher_name=cell.matcher_name,
                params_millions=profile.params_millions,
            )
            results[key] = row
        row.per_dataset[cell.target_code] = cell_result.result
    return Table4Result(results)
