"""``run_study`` measures elapsed time through its injectable clock.

The run footer used to read ``time.time()`` directly, so nothing could
pin the reported ``wall_clock_seconds`` — and the only clock a test
could inject stopped at the study driver's door.  With the clock
threaded through, a :class:`~repro.reliability.clock.FakeClock` that
never advances yields an exact zero, proving no hidden wall-clock read
remains on the path.
"""

from __future__ import annotations

import json

import pytest

from repro.config import StudyConfig, SurrogateScale
from repro.reliability.clock import FakeClock
from repro.study import full_run, roster

_CONFIG = StudyConfig(
    name="clockrun",
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
def _one_cheap_row(monkeypatch):
    # One simulated-LLM row keeps the run fast while staying in the cost
    # table Figure 3 needs; full_run reads ROSTER_ORDER lazily.
    monkeypatch.setattr(roster, "ROSTER_ORDER", ("MatchGPT[GPT-4o-Mini]",))


def test_wall_clock_seconds_comes_from_the_injected_clock(tmp_path):
    out_path = tmp_path / "study.json"
    clock = FakeClock(1000.0)
    document = full_run.run_study(
        _CONFIG, out_path, codes=_CODES, use_cache=False, clock=clock
    )
    # The fake clock never advanced, so the run provably measured its
    # elapsed time through it — any leftover time.time() bypass would
    # report the real (nonzero) duration instead.
    assert document["wall_clock_seconds"] == 0.0
    assert json.loads(out_path.read_text())["wall_clock_seconds"] == 0.0
