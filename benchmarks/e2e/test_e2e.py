"""Smoke test of the end-to-end benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Not part of tier-1: it runs real studies and servers, about two minutes
on two cores (plus the one-time fixture export).  ``study_trained`` runs
one trained matcher and each server answers 200 timed requests after its
warm-up; every workload runs traced and untraced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str) -> dict:
    if workload == "study_trained":
        return run.run_study(workload, seed=0, trace=True, matchers=("Ditto",))
    if workload == "study_prompted":
        return run.run_study(workload, seed=0, trace=True)
    return run.run_serving(workload, seed=0, seconds=60, trace=True, max_requests=200)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_checks_pass_and_prints_every_metric(workload, capsys):
    assert workload in {entry["name"] for entry in SPEC["workloads"]}
    run.WORK.mkdir(parents=True, exist_ok=True)
    result = _run(workload)
    # The traced rerun is checked against the same pins and references
    # as the untraced run, so passing both means their outputs agree.
    assert result["problems"] == []
    assert result["correct"]
    assert result["attempted"] > 0
    assert result["failed"] == 0
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        capsys.readouterr()
        metrics = run.report(result, SPEC, trace)
        printed = capsys.readouterr().out
        assert set(metrics) == {entry["name"] for entry in SPEC[section]}
        for entry in SPEC[section]:
            assert metrics[entry["name"]]["unit"] == entry["unit"]
            assert f"{workload} {entry['name']} = " in printed
            line = next(x for x in printed.splitlines() if f" {entry['name']} = " in x)
            assert line.endswith(f" {entry['unit']}")
    assert result["e2e"]["latency_p95_ms"] >= result["e2e"]["latency_p50_ms"] > 0


def test_serving_metrics_read_the_best_window():
    """A slow stretch of the load does not move the serving metrics,
    and a last, partial window is not read."""
    n = run.WINDOW_REPLIES
    slow = [(i * 0.004, 0.010) for i in range(n)]
    fast = [(2.0 + i * 0.002, 0.005) for i in range(n)]
    partial = [(3.0 + i * 0.001, 0.001) for i in range(10)]
    e2e = run._serving_e2e({"samples": slow + fast + partial,
                            "setup_samples": [1.0], "rss_mb": 1.0})
    assert e2e["latency_p50_ms"] == e2e["latency_p95_ms"] == pytest.approx(5.0)
    assert e2e["ops_per_s"] == pytest.approx(500.0)


def test_exits_nonzero_without_the_program(tmp_path):
    """A checkout holding only the benchmark fails without printing a result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve_match",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
