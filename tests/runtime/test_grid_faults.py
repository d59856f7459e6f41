"""Fault-injected study runs: byte-identical tables, graceful degradation.

The acceptance property of the reliability layer: a seeded study run
under a 20% transient-error fault plan with the retry layer on produces
**byte-identical** tables to a fault-free run — across worker counts —
while the retry/fault counts show the layer actually worked.  With
retries disabled, the same faults degrade into structured
``CellFailure`` records instead of aborting (unless ``fail_fast``).

The plan and policy ride on the cells' ``StudyConfig``; each cell counts
into its own tally, so the per-cell counts partition the run's totals
on the thread backend too.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.config import StudyConfig, SurrogateScale
from repro.errors import CellExecutionError
from repro.reliability import FaultPlan, RetryPolicy
from repro.reliability.counters import COUNTER_KEYS
from repro.runtime import grid
from repro.runtime.cache import deactivate
from repro.runtime.executor import SerialExecutor, ThreadStudyExecutor
from repro.runtime.stats import RuntimeStats
from repro.study import table3

_CONFIG = StudyConfig(
    name="faults",
    seeds=(0, 1),
    test_fraction=0.2,
    train_pair_budget=120,
    epochs=2,
    dataset_scale=0.05,
    surrogate=SurrogateScale(
        d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=32, vocab_size=1024
    ),
)
#: Only the LLM-backed matcher: StringSim never issues a completion, so
#: faults cannot touch it.
_MATCHERS = ("MatchGPT[GPT-4o-Mini]",)
_CODES = ("ABT", "BEER")

#: 20% transient + assorted other faults; zero-length sleeps keep the
#: suite fast (the backoff *schedule* is pinned by tests/reliability).
_PLAN = FaultPlan(transient_rate=0.2, rate_limit_rate=0.03,
                  malformed_rate=0.02, retry_after_s=0.0, seed=3)
_POLICY = RetryPolicy(max_attempts=4, base_delay_s=0.0, max_delay_s=0.0)
_FAULTED = replace(_CONFIG, fault_plan=_PLAN, retry_policy=_POLICY)
_FRAGILE = replace(_CONFIG, fault_plan=_PLAN, retry_policy=_POLICY.without_retries())


@pytest.fixture(autouse=True)
def _no_active_cache():
    deactivate()
    yield
    deactivate()


def _table3_json(config, executor, stats=None) -> str:
    result = table3.run(
        config, _MATCHERS, codes=_CODES, executor=executor, stats=stats
    )
    return json.dumps(
        {
            "per_dataset": result.per_dataset_table(),
            "mean": result.quality_table(),
            "rendered": result.render(),
        },
        sort_keys=True,
    )


def _table4_cells(config) -> list[grid.GridCell]:
    """GPT-4o-Mini under the ``none`` and ``hand-picked`` strategies."""
    return [
        grid.GridCell(
            kind="table4",
            matcher_name=f"MatchGPT[GPT-4o-Mini] ({strategy})",
            target_code=code,
            config=config,
            codes=_CODES,
            model="gpt-4o-mini",
            strategy=strategy,
        )
        for strategy in ("none", "hand-picked")
        for code in _CODES
    ]


class TestFaultParity:
    def test_injected_faults_leave_tables_byte_identical(self):
        reference = _table3_json(_CONFIG, SerialExecutor())

        stats = RuntimeStats(workers=4, backend="thread")
        with ThreadStudyExecutor(4) as executor:
            faulted = _table3_json(_FAULTED, executor, stats=stats)

        assert faulted == reference
        # The layer provably did something: faults landed, retries absorbed.
        reported = stats.as_dict()["reliability"]
        assert reported["faults_injected"] > 0
        assert reported["transient_faults"] > 0
        assert reported["request_retries"] > 0
        assert reported["cell_failures"] == 0
        assert stats.reliability_active

    def test_serial_and_threaded_fault_runs_match(self):
        serial = _table3_json(_FAULTED, SerialExecutor())
        with ThreadStudyExecutor(4) as executor:
            threaded = _table3_json(_FAULTED, executor)
        assert threaded == serial


class TestCellTallies:
    def test_thread_cells_partition_the_totals(self):
        cells = _table4_cells(_FAULTED)
        serial_stats = RuntimeStats()
        serial = grid.run_cells(cells, SerialExecutor(), stats=serial_stats)
        thread_stats = RuntimeStats(workers=2, backend="thread")
        with ThreadStudyExecutor(2) as executor:
            threaded = grid.run_cells(cells, executor, stats=thread_stats)

        # Each cell counts only its own requests, whatever ran beside it.
        for serial_cell, thread_cell in zip(serial, threaded):
            assert isinstance(thread_cell, grid.CellResult)
            assert thread_cell.reliability_delta == serial_cell.reliability_delta
        assert all(o.reliability_delta["faults_injected"] > 0 for o in threaded)
        totals = thread_stats.as_dict()["reliability"]
        for key in COUNTER_KEYS:
            assert totals[key] == round(
                sum(o.reliability_delta[key] for o in threaded), 6
            )
        assert totals == serial_stats.as_dict()["reliability"]

    def test_failed_cell_carries_its_attempts(self):
        stats = RuntimeStats()
        [failure] = grid.run_cells(_table4_cells(_FRAGILE)[:1], SerialExecutor(), stats=stats)

        assert isinstance(failure, grid.CellFailure)
        assert failure.attempts == 2  # the whole-cell retry also ran
        # Each whole-cell attempt ends at its first injected error.
        counts = failure.reliability_delta
        assert counts["faults_injected"] == 2
        assert counts["request_retries"] == 0
        assert counts["attempts"] >= 2
        reported = stats.as_dict()["reliability"]
        assert reported["attempts"] == counts["attempts"]
        assert reported["faults_injected"] == 2
        assert reported["cell_retries"] == 1
        assert reported["cell_failures"] == 1


class TestGracefulDegradation:
    def test_disabled_retries_degrade_into_cell_failures(self):
        stats = RuntimeStats()
        result = table3.run(
            _FRAGILE, _MATCHERS, codes=_CODES, executor=SerialExecutor(),
            stats=stats,
        )
        # Every cell trips an injected fault early, fails, and is recorded
        # instead of aborting the run.
        assert result.results == [] or all(
            len(r.per_dataset) < len(_CODES) for r in result.results
        )
        assert stats.cell_failures
        failure = stats.cell_failures[0]
        assert failure["matcher"] == _MATCHERS[0]
        assert failure["target"] in _CODES
        assert failure["error_type"] == "RetryExhaustedError"
        assert failure["retryable"] is True
        assert failure["attempts"] >= 2  # the whole-cell retry also ran
        assert stats.reliability_counters["cell_failures"] == len(
            stats.cell_failures
        )
        block = stats.as_dict()
        assert block["cell_failures"] == stats.cell_failures

    def test_fail_fast_aborts_on_first_failure(self):
        with pytest.raises(CellExecutionError):
            table3.run(
                replace(_FRAGILE, fail_fast=True), _MATCHERS, codes=_CODES,
                executor=SerialExecutor(),
            )

    def test_collect_rows_skips_failures(self):
        cell = grid.GridCell(
            kind="table3", matcher_name="M", target_code="ABT",
            config=_CONFIG, codes=_CODES,
        )
        failure = grid.CellFailure(
            matcher_name="M", target_code="ABT",
            error_type="RetryExhaustedError", message="x", attempts=2,
            seconds=0.1, retryable=True,
        )
        assert grid.collect_rows([cell], [failure], {}) == []
        assert failure.as_dict()["seconds"] == 0.1
