"""Tests for the ZeroER matcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PROFILES
from repro.data import build_dataset, get_spec
from repro.data.record import AttributeKind
from repro.errors import MatcherError
from repro.eval.loo import LeaveOneOutRunner
from repro.eval.metrics import f1_score
from repro.matchers import ZeroERMatcher

from ..conftest import make_pair


class TestValidation:
    def test_needs_column_kinds(self):
        with pytest.raises(MatcherError):
            ZeroERMatcher(())

    def test_batch_only(self):
        matcher = ZeroERMatcher((AttributeKind.NAME,))
        with pytest.raises(MatcherError):
            matcher.predict([make_pair(("a",), ("b",), 0)])

    def test_arity_mismatch_raises(self, abt_dataset):
        matcher = ZeroERMatcher((AttributeKind.NAME,))  # wrong arity for ABT
        with pytest.raises(MatcherError):
            matcher.predict(abt_dataset.pairs)


class TestBehaviour:
    def test_deterministic_across_serialization_seeds(self, abt_dataset):
        """ZeroER works on typed columns: 0.0 std in Table 3.

        Two fresh matchers, so both predictions are computed rather than
        one read back from the kept posterior.
        """
        kinds = get_spec("ABT").attribute_kinds
        a = ZeroERMatcher(kinds).predict(abt_dataset.pairs, serialization_seed=0)
        b = ZeroERMatcher(kinds).predict(abt_dataset.pairs, serialization_seed=99)
        np.testing.assert_array_equal(a, b)

    def test_strong_on_well_structured_dataset(self):
        dataset, _world = build_dataset("FOZA", scale=0.3, seed=7)
        matcher = ZeroERMatcher(get_spec("FOZA").attribute_kinds)
        predictions = matcher.predict(dataset.pairs)
        assert f1_score(dataset.labels(), predictions) > 80.0

    def test_weak_on_free_text_dataset(self):
        dataset, _world = build_dataset("AMGO", scale=0.2, seed=7)
        matcher = ZeroERMatcher(get_spec("AMGO").attribute_kinds)
        predictions = matcher.predict(dataset.pairs)
        assert f1_score(dataset.labels(), predictions) < 50.0

    def test_match_scores_are_probabilities(self, abt_dataset):
        matcher = ZeroERMatcher(get_spec("ABT").attribute_kinds)
        scores = matcher.match_scores(list(abt_dataset.pairs))
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_jointly_missing_column_neutral(self):
        features = ZeroERMatcher._column_features("", "", AttributeKind.TEXT, None)
        assert features == (0.5, 0.5)

    def test_phone_features(self):
        from repro.text.tfidf import TfIdfModel

        exact = ZeroERMatcher._column_features(
            "310-246-1501", "(310) 246-1501", AttributeKind.PHONE, TfIdfModel()
        )
        assert exact[1] == 1.0  # same digits despite formatting


def _count_features(monkeypatch) -> list[int]:
    """Spy on ``ZeroERMatcher._features``; returns the sizes it was called on."""
    calls: list[int] = []
    original = ZeroERMatcher._features

    def spy(self, pairs):
        calls.append(len(pairs))
        return original(self, pairs)

    monkeypatch.setattr(ZeroERMatcher, "_features", spy)
    return calls


class TestCandidateSetReuse:
    def test_run_target_scores_once_across_seeds(
        self, monkeypatch, small_datasets, tiny_config
    ):
        seeds = PROFILES["default"].seeds
        assert len(seeds) == 3
        runner = LeaveOneOutRunner(small_datasets, tiny_config.with_seeds(seeds))
        calls = _count_features(monkeypatch)
        result = runner.run_target(
            lambda code: ZeroERMatcher(get_spec(code).attribute_kinds), "ABT"
        )
        assert calls == [len(runner.test_set("ABT"))]
        assert [s.seed for s in result.scores] == list(seeds)
        assert len({(s.f1, s.precision, s.recall) for s in result.scores}) == 1

    def test_equal_set_reuses_posterior(self, monkeypatch, abt_dataset):
        matcher = ZeroERMatcher(get_spec("ABT").attribute_kinds)
        calls = _count_features(monkeypatch)
        first = matcher.match_scores(list(abt_dataset.pairs))
        again = matcher.match_scores(list(abt_dataset.pairs), serialization_seed=5)
        assert len(calls) == 1
        assert again is first
        assert not first.flags.writeable  # callers cannot corrupt the kept copy

    def test_different_set_recomputed(self, monkeypatch, abt_dataset):
        kinds = get_spec("ABT").attribute_kinds
        pairs = list(abt_dataset.pairs)
        rotated = pairs[1:] + pairs[:1]  # the same pairs in another order
        expected = ZeroERMatcher(kinds).predict(rotated)
        matcher = ZeroERMatcher(kinds)
        calls = _count_features(monkeypatch)
        matcher.predict(pairs)
        np.testing.assert_array_equal(matcher.predict(rotated), expected)
        matcher.predict(pairs[:-1])
        assert calls == [len(pairs), len(pairs), len(pairs) - 1]
