"""Tests for MatchRouter: bands, budgets, determinism, introspection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.matchers.base import Matcher
from repro.matchers.string_sim import StringSimMatcher
from repro.reliability.clock import FakeClock
from repro.routing import (
    MatchRouter,
    RoutedBackend,
    SpendLedger,
    request_tokens,
)
from tests.conftest import make_pair


class _FixedScoreMatcher(Matcher):
    """Scores each pair by a number parsed out of its pair_id suffix."""

    name = "fixed"
    display_name = "Fixed"

    def _predict(self, pairs, serialization_seed):
        return (self.match_scores(pairs, serialization_seed) >= 0.5).astype(np.int64)

    def match_scores(self, pairs, serialization_seed=None):
        return np.array([float(p.pair_id.split(":")[1]) for p in pairs])


class _ConstantMatcher(Matcher):
    """Always answers the same label; counts how many pairs it saw."""

    name = "constant"
    display_name = "Constant"

    def __init__(self, label: int) -> None:
        super().__init__()
        self.label = label
        self.pairs_seen = 0

    def _predict(self, pairs, serialization_seed):
        self.pairs_seen += len(pairs)
        return np.full(len(pairs), self.label, dtype=np.int64)


def _scored_pair(score: float, index: int = 0):
    return make_pair(
        ("alpha beta gamma",), ("alpha beta delta",), label=1,
        pair_id=f"p{index}:{score}",
    )


def _two_rungs(low=0.3, high=0.7, price=0.015, **router_kwargs) -> MatchRouter:
    return MatchRouter(
        backends=[
            RoutedBackend(name="cheap", matcher=_FixedScoreMatcher(), low=low, high=high),
            RoutedBackend(
                name="expensive", matcher=_ConstantMatcher(1),
                price_per_1k_tokens=price,
            ),
        ],
        **router_kwargs,
    )


class TestValidation:
    def test_needs_at_least_one_backend(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            MatchRouter([])

    def test_unique_names(self):
        with pytest.raises(ConfigurationError, match="unique"):
            MatchRouter([
                RoutedBackend(name="x", matcher=_FixedScoreMatcher(), low=0.2, high=0.8),
                RoutedBackend(name="x", matcher=_ConstantMatcher(1)),
            ])

    def test_non_final_rung_must_be_banded(self):
        with pytest.raises(ConfigurationError, match="confidence band"):
            MatchRouter([
                RoutedBackend(name="a", matcher=_FixedScoreMatcher()),
                RoutedBackend(name="b", matcher=_ConstantMatcher(1)),
            ])

    def test_non_final_rung_needs_match_scores(self):
        with pytest.raises(ConfigurationError, match="match_scores"):
            MatchRouter([
                RoutedBackend(name="a", matcher=_ConstantMatcher(0), low=0.2, high=0.8),
                RoutedBackend(name="b", matcher=_ConstantMatcher(1)),
            ])

    def test_band_validation(self):
        with pytest.raises(ConfigurationError, match="low and high"):
            RoutedBackend(name="a", matcher=_FixedScoreMatcher(), low=0.2)
        with pytest.raises(ConfigurationError, match="0 <= low < high <= 1"):
            RoutedBackend(name="a", matcher=_FixedScoreMatcher(), low=0.8, high=0.2)
        with pytest.raises(ConfigurationError, match="price"):
            RoutedBackend(name="a", matcher=_FixedScoreMatcher(), price_per_1k_tokens=-1)

    def test_per_request_budget_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            _two_rungs(per_request_budget_usd=0.0)


class TestDecisions:
    def test_band_splits_decide_and_escalate(self):
        router = _two_rungs()
        pairs = [_scored_pair(s, i) for i, s in enumerate([0.1, 0.3, 0.5, 0.7, 0.9])]
        decisions = router.route(pairs)
        assert [d.label for d in decisions] == [0, 0, 1, 1, 1]
        # 0.5 is strictly inside (0.3, 0.7): only it escalates.
        assert [d.escalated for d in decisions] == [False, False, True, False, False]
        assert [d.backend for d in decisions] == [
            "cheap", "cheap", "expensive", "cheap", "cheap"
        ]
        assert decisions[2].spend_usd > 0
        assert all(d.spend_usd == 0.0 for i, d in enumerate(decisions) if i != 2)

    def test_counters_and_state(self):
        router = _two_rungs()
        pairs = [_scored_pair(s, i) for i, s in enumerate([0.1, 0.5, 0.9])]
        router.route(pairs)
        state = router.state()
        assert state["counters"]["requests"] == 3
        assert state["counters"]["escalations"] == 1
        assert state["counters"]["spend_usd"] > 0
        by_name = {b["name"]: b for b in state["backends"]}
        assert by_name["cheap"]["decided"] == 2
        assert by_name["expensive"]["decided"] == 1
        assert by_name["cheap"]["band"] == [0.3, 0.7]
        assert by_name["expensive"]["band"] is None

    def test_empty_route(self):
        assert _two_rungs().route([]) == []

    def test_predict_facade(self):
        router = _two_rungs()
        pairs = [_scored_pair(s, i) for i, s in enumerate([0.1, 0.5, 0.9])]
        labels = router.predict(pairs)
        assert labels.dtype == np.int64
        assert labels.tolist() == [0, 1, 1]

    def test_one_rung_ladder_decides_everything_with_predict(self):
        only = _ConstantMatcher(1)
        router = MatchRouter([RoutedBackend(name="only", matcher=only)])
        decisions = router.route([_scored_pair(s, i) for i, s in enumerate([0.1, 0.9])])
        assert [(d.label, d.backend, d.escalated, d.spend_usd) for d in decisions] == [
            (1, "only", False, 0.0), (1, "only", False, 0.0)
        ]
        assert only.pairs_seen == 2

    def test_request_tokens_positive_and_stable(self):
        pair = _scored_pair(0.5)
        assert request_tokens(pair) > 0
        assert request_tokens(pair) == request_tokens(pair)


class TestBudgets:
    def test_per_request_budget_blocks_escalation(self):
        router = _two_rungs(per_request_budget_usd=1e-9)
        decisions = router.route([_scored_pair(0.6)])
        (decision,) = decisions
        assert decision.budget_limited
        assert decision.backend == "cheap"
        # Midpoint of (0.3, 0.7) is 0.5; score 0.6 decides match.
        assert decision.label == 1
        assert decision.spend_usd == 0.0

    def test_ledger_exhaustion_degrades_not_fails(self):
        clock = FakeClock()
        pair = _scored_pair(0.5)
        one_escalation = 0.015 * request_tokens(pair) / 1000.0
        ledger = SpendLedger(budget_usd=one_escalation * 1.5, window_s=60.0, clock=clock)
        router = _two_rungs(ledger=ledger, clock=clock)
        pairs = [_scored_pair(0.5, i) for i in range(3)]
        decisions = router.route(pairs)
        assert [d.escalated for d in decisions] == [True, False, False]
        assert [d.budget_limited for d in decisions] == [False, True, True]
        # Band midpoint decides the frustrated pairs: 0.5 >= 0.5 -> match.
        assert [d.label for d in decisions] == [1, 1, 1]
        assert ledger.denials == 2

    def test_ledger_window_refills(self):
        clock = FakeClock()
        ledger = SpendLedger(budget_usd=0.01, window_s=10.0, clock=clock)
        assert ledger.try_charge(0.01)
        assert not ledger.try_charge(0.01)
        clock.advance(11.0)
        assert ledger.try_charge(0.01)
        assert ledger.total_spend_usd == pytest.approx(0.02)
        assert ledger.denials == 1

    def test_ledger_validation(self):
        with pytest.raises(ConfigurationError):
            SpendLedger(budget_usd=0.0)
        with pytest.raises(ConfigurationError):
            SpendLedger(budget_usd=1.0, window_s=-1.0)


class TestDeterminism:
    def test_same_trace_same_decisions(self):
        pairs = [
            _scored_pair(s, i)
            for i, s in enumerate([0.1, 0.42, 0.5, 0.58, 0.9, 0.31, 0.69])
        ]
        runs = []
        for _ in range(2):
            clock = FakeClock()
            ledger = SpendLedger(budget_usd=0.001, window_s=60.0, clock=clock)
            router = _two_rungs(ledger=ledger, clock=clock)
            decisions = router.route(pairs)
            runs.append(([tuple(vars(d).items()) for d in decisions], router.state()))
        assert runs[0] == runs[1]


class _ScoreSpyMatcher(_ConstantMatcher):
    """A final-rung matcher that also exposes ``match_scores`` — and counts calls."""

    def __init__(self, label: int) -> None:
        super().__init__(label)
        self.score_calls = 0

    def match_scores(self, pairs, serialization_seed=None):
        self.score_calls += 1
        return np.full(len(pairs), float(self.label))


class TestNoUnreadWork:
    """The router tokenizes and scores only what a decision reads."""

    @pytest.fixture
    def token_calls(self, monkeypatch):
        import repro.routing.policy as policy

        calls = []

        def spy(pair):
            calls.append(pair.pair_id)
            return request_tokens(pair)

        monkeypatch.setattr(policy, "request_tokens", spy)
        return calls

    def test_unpriced_ladder_never_counts_tokens(self, token_calls):
        router = _two_rungs(price=0.0)
        decisions = router.route(
            [_scored_pair(s, i) for i, s in enumerate([0.1, 0.5, 0.6, 0.9])]
        )
        assert sum(d.escalated for d in decisions) == 2
        assert token_calls == []

    def test_priced_final_rung_counts_each_escalated_pair_once(self, token_calls):
        router = _two_rungs(price=0.015)
        pairs = [_scored_pair(s, i) for i, s in enumerate([0.1, 0.5, 0.6, 0.9])]
        decisions = router.route(pairs)
        escalated = [p.pair_id for p, d in zip(pairs, decisions) if d.escalated]
        assert escalated == ["p1:0.5", "p2:0.6"]
        assert token_calls == escalated

    def test_final_rung_match_scores_is_never_called(self):
        for backends in (
            lambda final: [RoutedBackend(name="only", matcher=final)],
            lambda final: [
                RoutedBackend(
                    name="cheap", matcher=_FixedScoreMatcher(), low=0.3, high=0.7
                ),
                RoutedBackend(name="final", matcher=final),
            ],
        ):
            final = _ScoreSpyMatcher(1)
            MatchRouter(backends(final)).route(
                [_scored_pair(s, i) for i, s in enumerate([0.1, 0.5, 0.9])]
            )
            assert final.pairs_seen > 0
            assert final.score_calls == 0
