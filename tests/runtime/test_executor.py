"""Tests for the worker-pool executors and how make_executor picks one."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.runtime.executor import (
    ProcessStudyExecutor,
    SerialExecutor,
    ThreadStudyExecutor,
    make_executor,
    resolve_backend,
)


def _square(x: int) -> int:
    return x * x


class TestMapTasks:
    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), ThreadStudyExecutor(3), ProcessStudyExecutor(2)],
        ids=["serial", "thread", "process"],
    )
    def test_submission_order_preserved(self, executor):
        with executor:
            assert executor.map_tasks(_square, list(range(17))) == [
                i * i for i in range(17)
            ]

    def test_pool_reused_across_calls(self):
        with ThreadStudyExecutor(2) as executor:
            executor.map_tasks(_square, [1, 2])
            pool = executor._pool
            executor.map_tasks(_square, [3, 4])
            assert executor._pool is pool

    def test_worker_exception_propagates(self):
        def boom(_x):
            raise ValueError("task failed")

        with ThreadStudyExecutor(2) as executor:
            with pytest.raises(ValueError, match="task failed"):
                executor.map_tasks(boom, [1])

    def test_invalid_worker_count_raises(self):
        with pytest.raises(ConfigurationError):
            ThreadStudyExecutor(0)


class TestResolution:
    def test_backend_auto_depends_on_workers(self):
        assert resolve_backend("auto", workers=1) == "serial"
        assert resolve_backend("auto", workers=4) == "thread"
        assert resolve_backend("process", workers=4) == "process"

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("gpu")


class TestMakeExecutor:
    def test_single_worker_collapses_to_serial(self):
        assert isinstance(make_executor(workers=1, backend="thread"), SerialExecutor)
        assert isinstance(make_executor(), SerialExecutor)

    def test_arguments_select_pool(self):
        thread = make_executor(workers=3)
        assert isinstance(thread, ThreadStudyExecutor)
        assert thread.workers == 3
        assert isinstance(make_executor(workers=2, backend="process"), ProcessStudyExecutor)

    def test_zero_workers_and_timeout_rejected(self):
        # On every backend, the serial one included.
        for backend in ("auto", "serial", "thread", "process"):
            with pytest.raises(ConfigurationError):
                make_executor(workers=0, backend=backend)
            with pytest.raises(ConfigurationError):
                make_executor(workers=1, backend=backend, cell_timeout_s=0)
            with pytest.raises(ConfigurationError):
                make_executor(workers=2, backend=backend, cell_timeout_s=-1.0)
