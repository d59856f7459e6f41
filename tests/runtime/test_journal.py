"""Tests for the write-ahead cell journal."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import get_profile
from repro.errors import CorruptStateError
from repro.eval.loo import SeedScore, TargetResult
from repro.reliability import FaultPlan, RetryPolicy, faults
from repro.runtime.grid import CellFailure, CellResult, GridCell
from repro.runtime.journal import JOURNAL_VERSION, CellJournal, cell_key


@pytest.fixture(autouse=True)
def _clean_crash_state():
    yield
    faults.reset_crash_state()


def _cell(**overrides) -> GridCell:
    base = dict(
        kind="table3",
        matcher_name="StringSim",
        target_code="ABT",
        config=get_profile("smoke"),
        codes=("ABT", "BEER"),
        dataset_seed=7,
        seen_in_training=False,
    )
    base.update(overrides)
    return GridCell(**base)


def _result(cell: GridCell) -> CellResult:
    target = TargetResult(dataset=cell.target_code, seen_in_training=False)
    target.scores = [
        SeedScore(seed=0, f1=81.25, precision=77.5, recall=85.5),
        SeedScore(seed=1, f1=79.0, precision=76.25, recall=82.0),
    ]
    return CellResult(
        matcher_name=cell.matcher_name,
        target_code=cell.target_code,
        result=target,
        seconds=1.5,
        cache_delta={"hits": 3.0, "misses": 1.0},
        reliability_delta={"attempts": 4.0},
        retries=1,
    )


def _failure(cell: GridCell) -> CellFailure:
    return CellFailure(
        matcher_name=cell.matcher_name,
        target_code=cell.target_code,
        error_type="TransientLLMError",
        message="injected",
        attempts=3,
        seconds=0.4,
        retryable=True,
    )


class TestCellKey:
    def test_stable_across_processes_inputs(self):
        assert cell_key(_cell()) == cell_key(_cell())

    def test_sensitive_to_science_inputs(self):
        base = cell_key(_cell())
        assert cell_key(_cell(target_code="BEER")) != base
        assert cell_key(_cell(dataset_seed=8)) != base
        assert cell_key(_cell(config=get_profile("default"))) != base

    def test_key_is_pinned_so_existing_journals_resume(self):
        """The hex a journal stored for this cell before inference
        precision stopped being selectable: a changed key would make
        ``--resume`` recompute every journaled cell."""
        assert cell_key(_cell()) == (
            "68d4a368c21cccc0edb045c7e564212404c6be4f488ce635c8b048c1c78b1c4b"
        )

    def test_insensitive_to_runtime_knobs(self):
        smoke = get_profile("smoke")
        reconfigured = dataclasses.replace(
            smoke,
            fail_fast=True,
            retry_policy=RetryPolicy(max_attempts=7, seed=3),
            fault_plan=FaultPlan(transient_rate=0.2, seed=3),
        )
        assert cell_key(_cell()) == cell_key(_cell(config=reconfigured))


class TestRoundTrip:
    def test_result_replays_byte_identical(self, tmp_path):
        cell = _cell()
        with CellJournal(tmp_path / "j.jsonl", fresh=True) as journal:
            journal.record(cell, _result(cell), phase="table3")

        reopened = CellJournal(tmp_path / "j.jsonl")
        replayed = reopened.lookup(cell)
        assert replayed == _result(cell)
        assert reopened.records_loaded == 1
        assert cell in reopened
        reopened.close()

    def test_failure_replays(self, tmp_path):
        cell = _cell()
        with CellJournal(tmp_path / "j.jsonl", fresh=True) as journal:
            journal.record(cell, _failure(cell))
        reopened = CellJournal(tmp_path / "j.jsonl")
        assert reopened.lookup(cell) == _failure(cell)
        reopened.close()

    def test_unknown_cell_returns_none(self, tmp_path):
        journal = CellJournal(tmp_path / "j.jsonl", fresh=True)
        assert journal.lookup(_cell()) is None
        journal.close()

    def test_fresh_discards_existing_records(self, tmp_path):
        cell = _cell()
        with CellJournal(tmp_path / "j.jsonl", fresh=True) as journal:
            journal.record(cell, _result(cell))
        fresh = CellJournal(tmp_path / "j.jsonl", fresh=True)
        assert len(fresh) == 0
        fresh.close()

    def test_header_records_are_ignored_on_replay(self, tmp_path):
        cell = _cell()
        with CellJournal(tmp_path / "j.jsonl", fresh=True) as journal:
            journal.write_header({"profile": "smoke"})
            journal.record(cell, _result(cell))
        reopened = CellJournal(tmp_path / "j.jsonl")
        assert reopened.records_loaded == 1
        assert len(reopened) == 1
        reopened.close()


class TestDamageTolerance:
    def test_torn_final_line_is_expected_not_corruption(self, tmp_path):
        cell = _cell()
        path = tmp_path / "j.jsonl"
        with CellJournal(path, fresh=True) as journal:
            journal.record(cell, _result(cell))
        with open(path, "ab") as handle:
            handle.write(b'{"v": 1, "key": "abc", "kin')  # kill mid-append

        reopened = CellJournal(path)
        assert reopened.torn_tail_dropped
        assert reopened.quarantined == 0
        assert reopened.corruption_errors == []
        assert reopened.lookup(cell) is not None
        reopened.close()

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        cell = _cell()
        path = tmp_path / "j.jsonl"
        with CellJournal(path, fresh=True) as journal:
            journal.record(cell, _result(cell))
        tampered = path.read_text().replace("81.25", "99.99")
        assert tampered != path.read_text()
        path.write_text(tampered)

        reopened = CellJournal(path)
        assert reopened.lookup(cell) is None
        assert reopened.quarantined == 1
        assert isinstance(reopened.corruption_errors[0], CorruptStateError)
        assert "checksum" in str(reopened.corruption_errors[0])
        assert list(tmp_path.glob("j.jsonl.corrupt-*"))
        reopened.close()

    def test_mid_file_garbage_is_quarantined_not_torn(self, tmp_path):
        cell = _cell()
        path = tmp_path / "j.jsonl"
        with CellJournal(path, fresh=True) as journal:
            journal.record(cell, _result(cell))
        healthy = path.read_text()
        path.write_text("complete garbage line\n" + healthy)

        reopened = CellJournal(path)
        assert not reopened.torn_tail_dropped
        assert reopened.quarantined == 1
        assert reopened.lookup(cell) is not None
        reopened.close()

    def test_wrong_version_is_quarantined(self, tmp_path):
        cell = _cell()
        path = tmp_path / "j.jsonl"
        with CellJournal(path, fresh=True) as journal:
            journal.record(cell, _result(cell))
        bumped = path.read_text().replace(
            f'"v": {JOURNAL_VERSION}', f'"v": {JOURNAL_VERSION + 1}'
        )
        path.write_text(bumped)
        reopened = CellJournal(path)
        assert reopened.records_loaded == 0
        assert reopened.quarantined == 1
        reopened.close()


class TestTornWriteHook:
    def test_registered_hook_writes_torn_tail(self, tmp_path):
        cell = _cell()
        path = tmp_path / "j.jsonl"
        journal = CellJournal(path, fresh=True)
        journal.record(cell, _result(cell))
        # Fire the crash hooks the way an injected crash would, without
        # actually exiting the interpreter.
        for hook in list(faults._crash_hooks.values()):
            hook()
        journal.close()

        assert not path.read_text().endswith("\n")
        reopened = CellJournal(path)
        assert reopened.torn_tail_dropped
        assert reopened.lookup(cell) is not None
        reopened.close()

    def test_close_unregisters_hook(self, tmp_path):
        before = dict(faults._crash_hooks)
        journal = CellJournal(tmp_path / "j.jsonl", fresh=True)
        assert len(faults._crash_hooks) == len(before) + 1
        journal.close()
        assert faults._crash_hooks == before
