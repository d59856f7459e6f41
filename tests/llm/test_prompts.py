"""Tests for prompt building, parsing and demonstration selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import build_dataset
from repro.errors import PromptError
from repro.llm.prompts import (
    Demonstration,
    build_match_prompt,
    parse_answer,
    parse_match_prompt,
    select_hand_picked,
    select_random,
)


class TestBuildAndParse:
    def test_roundtrip_no_demos(self):
        prompt = build_match_prompt("val sony mdr", "val sony wh")
        parsed = parse_match_prompt(prompt)
        assert parsed.query_left == "val sony mdr"
        assert parsed.query_right == "val sony wh"
        assert parsed.demonstrations == ()

    def test_roundtrip_with_demos(self):
        demos = (
            Demonstration("val a", "val b", 1),
            Demonstration("val c", "val d", 0),
        )
        prompt = build_match_prompt("val q1", "val q2", demos)
        parsed = parse_match_prompt(prompt)
        assert parsed.demonstrations == demos
        assert parsed.query_left == "val q1"

    def test_header_present(self):
        prompt = build_match_prompt("val x", "val y")
        assert "same real-world entity" in prompt
        assert prompt.endswith("Answer:")

    def test_multiline_record_raises(self):
        with pytest.raises(PromptError):
            build_match_prompt("line\nbreak", "val y")

    def test_prompt_without_query_raises(self):
        with pytest.raises(PromptError):
            parse_match_prompt("no entities here")

    def test_double_query_raises(self):
        block = "Entity 1: 'a'\nEntity 2: 'b'\nAnswer:"
        with pytest.raises(PromptError):
            parse_match_prompt(block + "\n\n" + block)


class TestParseAnswer:
    @pytest.mark.parametrize(
        "text,expected",
        [("Yes", 1), ("no", 0), ("Yes.", 1), ("  NO  ", 0),
         ("I think the answer is yes", 1), ("Answer: no, they differ", 0)],
    )
    def test_robust_parsing(self, text, expected):
        assert parse_answer(text) == expected

    def test_garbage_raises(self):
        with pytest.raises(PromptError):
            parse_answer("maybe")


@pytest.fixture(scope="module")
def transfer():
    return [build_dataset(code, scale=0.05, seed=7)[0] for code in ("DBAC", "BEER")]


class TestHandPicked:
    def test_one_match_two_nonmatches(self, transfer):
        demos = select_hand_picked(transfer)
        assert len(demos) == 3
        assert sum(d.label for d in demos) == 1

    def test_deterministic(self, transfer):
        assert select_hand_picked(transfer) == select_hand_picked(transfer)

    def test_source_is_alphabetically_first(self, transfer):
        demos = select_hand_picked(transfer)
        # BEER < DBAC alphabetically; beer demos mention breweries.
        text = " ".join(d.left_text for d in demos)
        assert any(word in text for word in ("brewing", "brewery", "ales", "beer"))

    def test_empty_transfer_raises(self):
        with pytest.raises(PromptError):
            select_hand_picked([])


@pytest.fixture(scope="module")
def pool(transfer):
    return [p for ds in transfer for p in ds.pairs]


class TestRandom:
    def test_count_and_origin(self, pool):
        rng = np.random.default_rng(0)
        demos = select_random(pool, rng)
        assert len(demos) == 3

    def test_seeded_reproducible(self, pool):
        a = select_random(pool, np.random.default_rng(5))
        b = select_random(pool, np.random.default_rng(5))
        assert a == b

    def test_varies_across_draws(self, pool):
        rng = np.random.default_rng(0)
        draws = {select_random(pool, rng) for _ in range(5)}
        assert len(draws) > 1

    def test_insufficient_pool_raises(self, pool):
        with pytest.raises(PromptError):
            select_random(pool, np.random.default_rng(0), n_demos=10**9)
