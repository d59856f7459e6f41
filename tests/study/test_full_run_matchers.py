"""``run_study``'s roster subsetting (the ``--matchers`` flag).

The verify-smoke CI job depends on two-matcher studies being first-class
(no monkeypatching), so the restriction and its validation get their own
regression tests.
"""

from __future__ import annotations

import pytest

from repro.config import StudyConfig, SurrogateScale
from repro.errors import ConfigurationError
from repro.study import full_run

_CONFIG = StudyConfig(
    name="matcherrun",
    seeds=(0, 1),
    test_fraction=0.2,
    train_pair_budget=120,
    epochs=1,
    dataset_scale=0.05,
    surrogate=SurrogateScale(
        d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=32, vocab_size=1024
    ),
)
_CODES = ("ABT", "BEER")


def test_matchers_restricts_the_table3_roster(tmp_path):
    document = full_run.run_study(
        _CONFIG,
        tmp_path / "study.json",
        codes=_CODES,
        matchers=("StringSim", "MatchGPT[GPT-4o-Mini]"),
        use_cache=False,
    )
    assert sorted(document["table3"]["mean"]) == [
        "MatchGPT[GPT-4o-Mini]", "StringSim",
    ]


def test_unknown_matcher_is_a_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match="NoSuchMatcher"):
        full_run.run_study(
            _CONFIG,
            tmp_path / "study.json",
            codes=_CODES,
            matchers=("NoSuchMatcher",),
            use_cache=False,
        )


def test_cli_parses_the_matchers_flag(tmp_path, monkeypatch):
    seen = {}

    def fake_run_study(config, out_path, **kwargs):
        seen.update(kwargs)
        return {}

    monkeypatch.setattr(full_run, "run_study", fake_run_study)
    full_run.main([
        "--profile", "smoke", "--out", str(tmp_path / "s.json"),
        "--matchers", "StringSim,MatchGPT[GPT-4o-Mini]",
    ])
    assert seen["matchers"] == ("StringSim", "MatchGPT[GPT-4o-Mini]")
