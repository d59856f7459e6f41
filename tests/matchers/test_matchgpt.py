"""Tests for the MatchGPT and Jellyfish prompted matchers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import build_dataset
from repro.data.serialize import serialize_record
from repro.errors import MatcherError
from repro.llm import (
    Demonstration,
    DemonstrationStrategy,
    EchoClient,
    SimulatedLLM,
    UsageMeter,
    build_match_prompt,
    get_profile,
)
from repro.matchers import JellyfishMatcher, MatchGPTMatcher
from repro.matchers.encoding import pair_text

from ..conftest import make_pair


def _reference_select_random(transfer, rng, n_demos=3):
    """Random demonstrations drawn by flattening ``transfer`` on every call.

    The reference for the pool ``MatchGPTMatcher`` builds once per fit: the
    same ``rng.choice`` over the same pair order.
    """
    pool = [p for ds in transfer for p in ds.pairs]
    picked = [pool[int(i)] for i in rng.choice(len(pool), size=n_demos, replace=False)]
    return tuple(
        Demonstration(serialize_record(p.left), serialize_record(p.right), p.label)
        for p in picked
    )


@pytest.fixture(scope="module")
def abt():
    return build_dataset("ABT", scale=0.05, seed=7)


@pytest.fixture(scope="module")
def transfer():
    return [build_dataset(c, scale=0.05, seed=7)[0] for c in ("DBAC", "BEER")]


class TestMatchGPT:
    def test_parses_client_answers(self, tiny_config):
        matcher = MatchGPTMatcher(EchoClient("Yes")).fit([], tiny_config)
        predictions = matcher.predict([make_pair(("a",), ("b",), 0)])
        assert predictions.tolist() == [1]

    def test_meter_accounts_tokens(self, tiny_config, abt):
        dataset, world = abt
        meter = UsageMeter(price_per_1k_tokens=0.015)
        client = SimulatedLLM(get_profile("gpt-4"), world, seed=0)
        matcher = MatchGPTMatcher(client, meter=meter).fit([], tiny_config)
        matcher.predict(dataset.pairs[:10], serialization_seed=0)
        assert meter.n_requests == 10
        assert meter.dollars_spent > 0

    def test_prompt_contains_no_demos_by_default(self, tiny_config, abt):
        dataset, world = abt
        client = SimulatedLLM(get_profile("gpt-4"), world, seed=0)
        matcher = MatchGPTMatcher(client).fit([], tiny_config)
        prompt = matcher.prompt_for(dataset.pairs[0])
        assert prompt.count("Answer:") == 1

    def test_hand_picked_demos_fixed(self, tiny_config, abt, transfer):
        dataset, world = abt
        client = SimulatedLLM(get_profile("gpt-4"), world, seed=0)
        matcher = MatchGPTMatcher(
            client, demo_strategy=DemonstrationStrategy.HAND_PICKED
        ).fit(transfer, tiny_config)
        p1 = matcher.prompt_for(dataset.pairs[0])
        p2 = matcher.prompt_for(dataset.pairs[1])
        assert p1.count("Answer:") == 4  # 3 demos + query
        demo_block_1 = p1[: p1.rfind("Entity 1")]
        demo_block_2 = p2[: p2.rfind("Entity 1")]
        assert demo_block_1 == demo_block_2  # fixed across queries

    def test_random_demos_vary(self, tiny_config, abt, transfer):
        dataset, world = abt
        client = SimulatedLLM(get_profile("gpt-4"), world, seed=0)
        matcher = MatchGPTMatcher(
            client, demo_strategy=DemonstrationStrategy.RANDOM
        ).fit(transfer, tiny_config)
        p1 = matcher.prompt_for(dataset.pairs[0])
        p2 = matcher.prompt_for(dataset.pairs[0])
        assert p1 != p2  # per-call random selection

    def test_random_demos_equal_per_call_flattening(self, tiny_config, abt):
        dataset, _world = abt
        transfer = [
            build_dataset(c, scale=0.05, seed=7)[0] for c in ("BEER", "FOZA", "DBAC")
        ]
        assert len({len(ds) for ds in transfer}) == 3
        matcher = MatchGPTMatcher(
            EchoClient("No"), demo_strategy=DemonstrationStrategy.RANDOM
        ).fit(transfer, tiny_config, seed=4)
        reference_rng = np.random.default_rng(4)
        for i, pair in enumerate(dataset.pairs[:60]):
            left, right = pair_text(pair, i % 3)
            demos = _reference_select_random(transfer, reference_rng)
            assert matcher.prompt_for(pair, i % 3) == build_match_prompt(left, right, demos)

    def test_hand_picked_without_transfer_raises(self, tiny_config):
        client = EchoClient("No")
        matcher = MatchGPTMatcher(client, demo_strategy=DemonstrationStrategy.HAND_PICKED)
        with pytest.raises(MatcherError):
            matcher.fit([], tiny_config)

    def test_random_without_transfer_raises(self, tiny_config):
        client = EchoClient("No")
        matcher = MatchGPTMatcher(client, demo_strategy=DemonstrationStrategy.RANDOM)
        with pytest.raises(MatcherError):
            matcher.fit([], tiny_config)

    def test_display_name_defaults_to_model(self):
        assert MatchGPTMatcher(EchoClient("No", model_name="gpt-x")).display_name == (
            "MatchGPT[gpt-x]"
        )


class TestJellyfish:
    def test_no_fit_needed(self, abt):
        dataset, world = abt
        client = SimulatedLLM(get_profile("jellyfish-13b"), world, seed=0)
        matcher = JellyfishMatcher(client)
        predictions = matcher.predict(dataset.pairs[:20], serialization_seed=0)
        assert len(predictions) == 20

    def test_seen_datasets_flagged(self):
        assert "DBAC" in JellyfishMatcher.seen_datasets
        assert "ABT" not in JellyfishMatcher.seen_datasets
        assert len(JellyfishMatcher.seen_datasets) == 6

    def test_instruction_prefix_in_prompt(self, abt):
        dataset, world = abt
        captured = {}

        class Capture(EchoClient):
            def complete(self, request):
                captured["prompt"] = request.prompt
                return super().complete(request)

        matcher = JellyfishMatcher(Capture("No"))
        matcher.predict(dataset.pairs[:1], serialization_seed=0)
        assert "expert in data preprocessing" in captured["prompt"]
