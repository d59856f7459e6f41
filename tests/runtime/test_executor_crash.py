"""Tests for worker-death and hang containment in the pool executors."""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import WorkerCrashError
from repro.runtime.executor import (
    ProcessStudyExecutor,
    SerialExecutor,
    ThreadStudyExecutor,
)

_CRASH_INPUT = 13


def _double_or_die(x: int) -> int:
    """Module-level (picklable) worker that kills its process on 13."""
    if x == _CRASH_INPUT:
        os._exit(1)
    return x * 2


class TestProcessWorkerDeath:
    def test_crash_converts_via_on_crash(self):
        with ProcessStudyExecutor(2) as executor:
            out = executor.map_tasks(
                _double_or_die,
                [1, _CRASH_INPUT, 3],
                on_crash=lambda task, error: ("crashed", task),
            )
            assert out == [2, ("crashed", _CRASH_INPUT), 6]
            # One rebuild after the batch broke, one after the isolation
            # re-run reproduced the crash.
            assert executor.pool_rebuilds == 2

    def test_crash_raises_without_on_crash(self):
        with ProcessStudyExecutor(2) as executor:
            with pytest.raises(WorkerCrashError, match="died"):
                executor.map_tasks(_double_or_die, [1, _CRASH_INPUT])

    def test_innocent_bystanders_complete(self):
        # Tasks sharing the pool with the culprit are re-run in isolation
        # and must all produce their real results.
        with ProcessStudyExecutor(2) as executor:
            tasks = [1, 2, _CRASH_INPUT, 4, 5, 6]
            out = executor.map_tasks(
                _double_or_die, tasks, on_crash=lambda task, error: None
            )
            assert out == [2, 4, None, 8, 10, 12]

    def test_pool_usable_after_crash(self):
        with ProcessStudyExecutor(2) as executor:
            executor.map_tasks(
                _double_or_die, [_CRASH_INPUT], on_crash=lambda task, error: None
            )
            assert executor.map_tasks(_double_or_die, [10, 20]) == [20, 40]

    def test_on_result_fires_for_crash_substitutes(self):
        seen: list[tuple[int, object]] = []
        with ProcessStudyExecutor(2) as executor:
            executor.map_tasks(
                _double_or_die,
                [1, _CRASH_INPUT],
                on_result=lambda index, value: seen.append((index, value)),
                on_crash=lambda task, error: ("crashed", task),
            )
        assert sorted(seen) == [(0, 2), (1, ("crashed", _CRASH_INPUT))]


class TestHangWatchdog:
    def test_hung_task_degrades_and_others_complete(self):
        release = threading.Event()

        def maybe_hang(x: int) -> int:
            if x == 1:
                release.wait(timeout=30)
            return x * 2

        executor = ThreadStudyExecutor(2, cell_timeout_s=0.2)
        try:
            out = executor.map_tasks(
                maybe_hang,
                [0, 1, 2],
                on_crash=lambda task, error: ("hung", task),
            )
            assert out == [0, ("hung", 1), 4]
            assert executor.pool_rebuilds == 1
        finally:
            release.set()
            executor.close()

    def test_hung_task_raises_without_on_crash(self):
        release = threading.Event()
        executor = ThreadStudyExecutor(2, cell_timeout_s=0.2)
        try:
            with pytest.raises(WorkerCrashError, match="timeout"):
                executor.map_tasks(lambda x: release.wait(timeout=30), [0])
        finally:
            release.set()
            executor.close()

    def test_fast_tasks_unaffected_by_watchdog(self):
        with ThreadStudyExecutor(2, cell_timeout_s=5.0) as executor:
            assert executor.map_tasks(lambda x: x + 1, list(range(6))) == [
                1, 2, 3, 4, 5, 6,
            ]


class TestSerialCallbacks:
    def test_on_result_fires_in_order(self):
        seen = []
        out = SerialExecutor().map_tasks(
            lambda x: x * 10, [1, 2, 3], on_result=lambda i, v: seen.append((i, v))
        )
        assert out == [10, 20, 30]
        assert seen == [(0, 10), (1, 20), (2, 30)]

