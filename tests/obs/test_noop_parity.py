"""Observability must be invisible when off and result-neutral when on.

Runs a deliberately tiny full study three times in-process: twice with
observability disabled (the documents must be byte-identical modulo the
volatile timing blocks, with no ``observability`` key at all) and once
with tracing enabled (every table must match the untraced runs exactly,
the ``observability`` block must appear, and the trace file must parse
and verify through ``scripts/trace_report.py``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.config import StudyConfig, SurrogateScale
from repro.reliability import RetryPolicy
from repro.runtime.persist import canonical_json
from repro.study.full_run import run_study

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

import trace_report  # noqa: E402

#: Keys that legitimately differ between two identical runs (timings and
#: the integrity footer over them) — same contract as the crash-resume
#: harness.  ``observability`` is deliberately NOT volatile: its absence
#: when disabled is part of what this module asserts.
VOLATILE_KEYS = {"runtime", "wall_clock_seconds", "_integrity"}

_CODES = ("ABT", "BEER")


def _tiny_config() -> StudyConfig:
    # The retry layer is on for ALL runs (identically, so parity still
    # holds) because ``llm.request`` spans live inside the retrying
    # client — without it the traced run could not demonstrate the
    # cell -> retry -> batch -> infer coverage this module pins.
    return StudyConfig(
        name="obs-parity",
        seeds=(0,),
        test_fraction=0.2,
        train_pair_budget=120,
        epochs=1,
        dataset_scale=0.05,
        surrogate=SurrogateScale(
            d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=32, vocab_size=1024
        ),
        retry_policy=RetryPolicy(max_attempts=1),
    )


def _stable(document: dict) -> dict:
    return {k: v for k, v in document.items() if k not in VOLATILE_KEYS}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two untraced runs and one traced run of the same tiny study."""
    directory = tmp_path_factory.mktemp("obs_parity")
    config = _tiny_config()
    documents = {}
    for label in ("plain_a", "plain_b"):
        out = directory / f"{label}.json"
        run_study(config, out, codes=_CODES)
        documents[label] = json.loads(out.read_text())
    trace = directory / "traced.trace.jsonl"
    out = directory / "traced.json"
    run_study(config, out, codes=_CODES, trace_path=trace)
    documents["traced"] = json.loads(out.read_text())
    documents["trace_path"] = trace
    return documents


class TestDisabled:
    def test_no_observability_key(self, runs):
        assert "observability" not in runs["plain_a"]
        assert "observability" not in runs["plain_b"]

    def test_repeat_runs_byte_identical_modulo_timing(self, runs):
        assert canonical_json(_stable(runs["plain_a"])) == canonical_json(
            _stable(runs["plain_b"])
        )


class TestEnabled:
    def test_tables_unchanged_by_tracing(self, runs):
        traced = _stable(runs["traced"])
        traced.pop("observability")
        assert canonical_json(traced) == canonical_json(_stable(runs["plain_a"]))

    def test_observability_block_shape(self, runs):
        block = runs["traced"]["observability"]
        assert block["enabled"] is True
        assert block["trace_path"] == str(runs["trace_path"])
        assert block["spans_recorded"] > 0
        metrics = block["metrics"]
        assert any(
            c["name"] == "spans_total" for c in metrics["counters"]
        )
        assert any(
            h["name"] == "span_seconds" for h in metrics["histograms"]
        )

    def test_trace_file_verifies_and_covers_the_stages(self, runs):
        spans, problems = trace_report.load_trace(runs["trace_path"])
        assert problems == []
        report = trace_report.summarize(spans)
        stage_names = set(report["stages"])
        # The acceptance coverage: cell -> retry -> batch -> infer.
        assert {"grid.cell", "llm.request", "batch.process", "infer.logits"} <= stage_names
        assert report["spans"] == runs["traced"]["observability"]["spans_recorded"]
