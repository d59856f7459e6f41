"""A crashed run's persisted completion cache warms the retry run.

``run_study`` saves the active completion cache in its ``finally`` block
precisely so that a run which *crashes* partway still leaves every
completed prompt on disk.  Because entries are content-addressed
(``sha256(model || salt || strategy || prompt)``), the partial file is
valid regardless of where the crash happened: a retry pointed at the
same ``--cache-path`` answers the already-completed prompts from memory
and recomputes only the tail.  This pins that behaviour end to end —
the stale comment this file is referenced from (``study/full_run.py``)
claimed it without a test.
"""

from __future__ import annotations

import json

import pytest

from repro.config import StudyConfig, SurrogateScale
from repro.runtime import cache as cache_mod
from repro.study import full_run, roster

_CONFIG = StudyConfig(
    name="warmretry",
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


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    # The run must issue LLM completions for the cache to matter, so keep
    # exactly one LLM-backed row (full_run reads ROSTER_ORDER lazily).
    monkeypatch.setattr(roster, "ROSTER_ORDER", ("MatchGPT[GPT-4o-Mini]",))
    cache_mod.deactivate()
    yield
    cache_mod.deactivate()


def _checkpointed_cache(out_path) -> dict:
    """The ``runtime.cache`` block of the last checkpoint."""
    return json.loads(out_path.read_text())["runtime"]["cache"]


def test_crashed_runs_persisted_cache_warms_the_retry(monkeypatch, tmp_path, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("simulated crash after the Table-3 phase")

    monkeypatch.setattr(full_run.table4, "run", crash)
    cache_path = tmp_path / "completions.jsonl"
    out_path = tmp_path / "study.json"

    # Run 1: completes Table 3, crashes in Table 4.
    with pytest.raises(RuntimeError, match="simulated crash"):
        full_run.run_study(
            _CONFIG, out_path, codes=_CODES, use_cache=True,
            cache_path=str(cache_path),
        )
    first = _checkpointed_cache(out_path)
    assert first["misses"] > 0 and first["hits"] == 0
    # The finally-block persisted the partial cache despite the crash,
    # and uninstalled it.
    assert cache_mod.active_cache() is None
    n_completed = len(cache_path.read_text().splitlines())
    assert n_completed > 0
    first_table3 = json.loads(out_path.read_text())["table3"]

    # Run 2 (the retry, a fresh process in real life): same cache path.
    with pytest.raises(RuntimeError, match="simulated crash"):
        full_run.run_study(
            _CONFIG, out_path, codes=_CODES, use_cache=True,
            cache_path=str(cache_path),
        )
    warmed = _checkpointed_cache(out_path)
    # Every Table-3 completion was answered from the persisted file:
    # nothing recomputed, and the table values are byte-identical.
    assert warmed["misses"] == 0
    assert warmed["hits"] >= n_completed
    assert json.loads(out_path.read_text())["table3"] == first_table3
