"""A study run takes its settings from its own arguments and leaves no
process state behind.

Runs a sequence of tiny studies in one process.  A faulted, cached,
fail-fast run must not change what a later plain run injects, retries,
caches or aborts on: the retry policy, fault plan and fail-fast switch
ride on each run's ``StudyConfig``, and the completion cache a run
installed is uninstalled when it ends, whether it finishes or raises.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.config import StudyConfig, SurrogateScale
from repro.errors import CellExecutionError
from repro.reliability import RetryPolicy
from repro.runtime import cache as cache_mod
from repro.study.full_run import run_study

_CONFIG = StudyConfig(
    name="isolation",
    seeds=(0, 1),
    test_fraction=0.2,
    train_pair_budget=120,
    epochs=2,
    dataset_scale=0.05,
    surrogate=SurrogateScale(
        d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=32, vocab_size=1024
    ),
)
_CODES = ("ABT", "BEER")
_MATCHERS = ("MatchGPT[GPT-4o-Mini]",)
#: Zero-length backoff keeps the retried run fast; ``--retries N`` would
#: build the same policy with the default (sleeping) backoff curve.
_FAST_RETRIES = RetryPolicy(max_attempts=4, base_delay_s=0.0, max_delay_s=0.0)
#: Fails every Table-3 cell of this roster at ``retries=0``.
_FATAL_FAULTS = "transient=0.3,seed=5"


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The run sequence; every run is checked to leave no state behind."""
    directory = tmp_path_factory.mktemp("isolation")
    cache_mod.deactivate()
    environment = dict(os.environ)
    documents: dict = {}

    def run(label: str, config: StudyConfig = _CONFIG, **settings) -> None:
        try:
            documents[label] = run_study(
                config, directory / f"{label}.json",
                codes=_CODES, matchers=_MATCHERS, **settings,
            )
        except CellExecutionError as error:
            documents[label] = error
        documents[f"{label}.left_cache"] = cache_mod.active_cache()
        documents[f"{label}.environ_changed"] = dict(os.environ) != environment

    run("faulted", replace(_CONFIG, retry_policy=_FAST_RETRIES),
        faults="transient=0.2,seed=3", use_cache=True, fail_fast=True)
    run("aborted", retries=0, faults=_FATAL_FAULTS, use_cache=True,
        fail_fast=True)
    run("plain")
    run("degraded", retries=0, faults=_FATAL_FAULTS)
    cache_mod.deactivate()
    return documents


def test_faulted_cached_run_did_retry_and_cache(runs):
    runtime = runs["faulted"]["runtime"]
    assert runtime["reliability"]["faults_injected"] > 0
    assert runtime["reliability"]["request_retries"] > 0
    assert runtime["cache"]["hits"] > 0
    assert "cell_failures" not in runtime


def test_fail_fast_run_raises(runs):
    assert isinstance(runs["aborted"], CellExecutionError)


def test_plain_run_inherits_no_settings(runs):
    runtime = runs["plain"]["runtime"]
    assert all(value == 0 for value in runtime["reliability"].values())
    assert runtime["cache"]["hits"] == 0
    assert runtime["cache"]["misses"] == 0
    assert "cell_failures" not in runtime


def test_unretried_faults_degrade_instead_of_aborting(runs):
    """``retries=0`` under faults, without fail-fast: failures are recorded.

    Every Table-3 cell fails, so the figures are empty, and the run still
    computes Table 4 (whose cells fail the same way) and finishes the
    document.
    """
    document = runs["degraded"]
    failures = document["runtime"]["cell_failures"]
    assert {f["matcher"] for f in failures} >= {
        *_MATCHERS, "MatchGPT[GPT-4o-Mini] (none)"
    }
    assert document["table3"]["mean"] == {}
    assert document["figure3"] == []
    assert document["figure3_front"] == []
    assert document["figure4"] == []
    assert document["table4"]["rendered"] == "(no surviving Table-4 rows)"
    assert document["runtime"]["phases"]["table4"]["tasks"] == 18
    assert "table5" in document and "wall_clock_seconds" in document


@pytest.mark.parametrize("label", ["faulted", "aborted", "plain", "degraded"])
def test_run_leaves_no_process_state(runs, label):
    assert runs[f"{label}.left_cache"] is None
    assert runs[f"{label}.environ_changed"] is False
