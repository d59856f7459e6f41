"""Study tables are invariant under the inference fast path.

Runs a deliberately small Table-3 / Table-4 slice twice — once with the
matchers' ``predict_proba`` binding swapped for the float64 autograd
reference (:func:`tests.conftest.reference_proba`), once on the shipped
path (fused kernels, float32 weights, length bucketing) — and asserts
the rendered tables are character-identical.  ``Ditto`` exercises the
fused surrogate kernels end to end.
"""

from __future__ import annotations

import pytest

from repro.config import StudyConfig, SurrogateScale
from repro.study import table3, table4
from tests.conftest import reference_proba

_CODES = ("ABT", "DBAC", "BEER")

#: Every module that binds ``predict_proba`` by name.
_BINDINGS = ("repro.matchers.ditto", "repro.matchers.unicorn", "repro.matchers.anymatch")


@pytest.fixture(scope="module")
def config() -> StudyConfig:
    return StudyConfig(
        name="test-fastpath", seeds=(0,), test_fraction=0.5, train_pair_budget=100,
        epochs=1, dataset_scale=0.05,
        surrogate=SurrogateScale(d_model=16, n_layers=1, n_heads=2, d_ff=32,
                                 max_len=32, vocab_size=1024),
    )


def _on_reference(monkeypatch, calls: list) -> None:
    """Route every matcher's ``predict_proba`` to the float64 reference."""
    def reference(model, data):
        calls.append(len(data))
        return reference_proba(model, data)

    for module in _BINDINGS:
        monkeypatch.setattr(f"{module}.predict_proba", reference)


def test_table3_rendered_output_unchanged(config, monkeypatch):
    fast = table3.run(config, matcher_names=("Ditto",), codes=_CODES, use_cache=False)
    calls: list = []
    with monkeypatch.context() as patched:
        _on_reference(patched, calls)
        reference = table3.run(
            config, matcher_names=("Ditto",), codes=_CODES, use_cache=False
        )
    assert calls, "the reference binding was never reached"
    assert fast.render() == reference.render()
    for got, expected in zip(fast.results, reference.results):
        assert got.matcher_name == expected.matcher_name
        assert got.per_dataset.keys() == expected.per_dataset.keys()
        for code in expected.per_dataset:
            assert got.per_dataset[code].mean_f1 == expected.per_dataset[code].mean_f1


def test_table4_rendered_output_unchanged(config, monkeypatch):
    """Table 4 prompts LLMs only: no cell reaches a surrogate model."""
    fast = table4.run(config, models=("gpt-3.5-turbo",), codes=_CODES, use_cache=False)
    calls: list = []
    with monkeypatch.context() as patched:
        _on_reference(patched, calls)
        reference = table4.run(
            config, models=("gpt-3.5-turbo",), codes=_CODES, use_cache=False
        )
    assert calls == []
    assert fast.render() == reference.render()
