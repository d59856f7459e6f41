"""Grid-level crash containment and journal replay."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import get_profile
from repro.reliability import FaultPlan, faults
from repro.runtime import grid
from repro.runtime.executor import ProcessStudyExecutor, SerialExecutor
from repro.runtime.journal import CellJournal
from repro.runtime.stats import RuntimeStats

SMOKE = get_profile("smoke")
CODES = ("ABT", "BEER")


def _stringsim_cell(code: str) -> grid.GridCell:
    return grid.GridCell(
        kind="table3",
        matcher_name="StringSim",
        target_code=code,
        config=SMOKE,
        codes=CODES,
    )


def _matchgpt_cell(code: str, config=SMOKE) -> grid.GridCell:
    return grid.GridCell(
        kind="table4",
        matcher_name="GPT-3.5 Turbo (none)",
        target_code=code,
        config=config,
        codes=CODES,
        model="gpt-3.5-turbo",
        strategy="none",
    )


@pytest.fixture(autouse=True)
def _clean_crash_state():
    yield
    faults.reset_crash_state()


class TestWorkerDeathDegradation:
    def test_crashed_cell_degrades_and_others_complete(self):
        # The MatchGPT cell's config carries a crash-at-first-LLM-call
        # plan to its forked worker: its first completion kills the
        # worker.  The StringSim cells make no LLM calls and must
        # complete normally.
        crashing = replace(SMOKE, fault_plan=FaultPlan(crash_at=1))
        cells = [
            _matchgpt_cell("ABT", crashing),
            _stringsim_cell("ABT"),
            _stringsim_cell("BEER"),
        ]
        stats = RuntimeStats(workers=2, backend="process")
        with ProcessStudyExecutor(2) as executor:
            outcomes = grid.run_cells(cells, executor, stats=stats, phase="t")

        assert isinstance(outcomes[0], grid.CellFailure)
        assert outcomes[0].error_type == "WorkerCrashError"
        assert outcomes[0].retryable
        assert isinstance(outcomes[1], grid.CellResult)
        assert isinstance(outcomes[2], grid.CellResult)
        assert len(stats.cell_failures) == 1
        assert stats.cell_failures[0]["error_type"] == "WorkerCrashError"


class TestJournalReplay:
    def test_second_run_replays_without_executing(self, tmp_path):
        cells = [_stringsim_cell("ABT"), _stringsim_cell("BEER")]
        path = tmp_path / "cells.journal.jsonl"

        stats1 = RuntimeStats()
        with CellJournal(path, fresh=True) as journal:
            first = grid.run_cells(
                cells, SerialExecutor(), stats=stats1, phase="t", journal=journal
            )
        assert stats1.resume_counters["cells_computed"] == 2
        assert stats1.resume_counters["cells_replayed"] == 0

        class _ForbiddenExecutor(SerialExecutor):
            def map_tasks(self, fn, tasks, on_result=None, on_crash=None):
                assert not tasks, "replay must not re-execute journaled cells"
                return []

        stats2 = RuntimeStats()
        with CellJournal(path) as journal:
            second = grid.run_cells(
                cells, _ForbiddenExecutor(), stats=stats2, phase="t", journal=journal
            )
        assert second == first
        assert stats2.resume_counters["cells_replayed"] == 2
        assert stats2.resume_counters["cells_computed"] == 0
        assert stats2.journal_active
        assert "resume" in stats2.as_dict()

    def test_partial_journal_runs_only_remainder(self, tmp_path):
        cells = [_stringsim_cell("ABT"), _stringsim_cell("BEER")]
        path = tmp_path / "cells.journal.jsonl"

        with CellJournal(path, fresh=True) as journal:
            grid.run_cells(
                [cells[0]], SerialExecutor(), phase="t", journal=journal
            )

        executed = []

        class _CountingExecutor(SerialExecutor):
            def map_tasks(self, fn, tasks, on_result=None, on_crash=None):
                executed.extend(tasks)
                return super().map_tasks(fn, tasks, on_result, on_crash)

        with CellJournal(path) as journal:
            outcomes = grid.run_cells(
                cells, _CountingExecutor(), phase="t", journal=journal
            )
        assert [c.target_code for c in executed] == ["BEER"]
        assert [o.target_code for o in outcomes] == ["ABT", "BEER"]
        assert all(isinstance(o, grid.CellResult) for o in outcomes)
