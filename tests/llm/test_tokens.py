"""Tests for the deterministic token counter."""

from __future__ import annotations

import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import get_profile
from repro.data import build_dataset
from repro.llm import DemonstrationStrategy, EchoClient
from repro.llm.tokens import count_tokens
from repro.matchers import MatchGPTMatcher

_PIECE_RE = re.compile(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]")


def _reference_count(text: str) -> int:
    """The regex piece counter ``count_tokens`` must equal for every string."""
    total = 0
    for piece in _PIECE_RE.findall(text):
        total += 1 + (len(piece) - 1) // 6
    return total


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_words_and_punct(self):
        assert count_tokens("Yes.") == 2

    def test_long_words_split(self):
        assert count_tokens("internationalisation") > 1

    def test_monotone_under_concatenation(self):
        a, b = "entity one", "entity two"
        assert count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)

    @given(st.text(max_size=200))
    @settings(max_examples=50)
    def test_non_negative_and_bounded(self, text):
        n = count_tokens(text)
        assert 0 <= n <= max(1, len(text))

    def test_deterministic(self):
        prompt = "Do the two entities match? Entity 1: 'sony mdr'"
        assert count_tokens(prompt) == count_tokens(prompt)


class TestReferenceParity:
    """``count_tokens`` equals the regex piece counter on every input."""

    @given(st.text(max_size=300))
    @settings(max_examples=600)
    def test_any_unicode_text(self, text):
        assert count_tokens(text) == _reference_count(text)

    @pytest.mark.parametrize("length", [*range(1, 14), 36])
    @pytest.mark.parametrize("alphabet", ["a", "Z", "7", "aZ7"])
    def test_run_lengths(self, length, alphabet):
        run = (alphabet * length)[:length]
        for text in (run, f" {run} ", f".{run}.", f"{run} {run}", f"{run}-{run}"):
            assert count_tokens(text) == _reference_count(text), text

    @pytest.mark.parametrize("code", range(128))
    def test_each_ascii_character(self, code):
        char = chr(code)
        for text in (char, f"ab{char}cd", f"abcdef{char}ghijklm"):
            assert count_tokens(text) == _reference_count(text), repr(text)

    @pytest.mark.parametrize(
        "space", ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u3000"]
    )
    def test_unicode_whitespace_beyond_ascii(self, space):
        # Whitespace that \s accepts beyond " \t\n\r\f\v" costs nothing.
        text = f"abc{space}defghij{space}{space}."
        assert count_tokens(space) == _reference_count(space) == 0
        assert count_tokens(text) == _reference_count(text) == 4

    @pytest.mark.parametrize("char", ["é", "٣", "日", "\U0001f600"])
    def test_non_ascii_character_splits_a_run(self, char):
        # Letters and digits outside ASCII cost one token each and end the
        # ASCII run they sit in.
        text = f"abcdefg{char}hijklmn"
        assert count_tokens(text) == _reference_count(text) == 5
        assert count_tokens(char * 3) == _reference_count(char * 3) == 3

    @pytest.fixture(scope="class")
    def smoke_target(self):
        scale = get_profile("smoke").dataset_scale
        target = build_dataset("ABT", scale=scale, seed=7)[0]
        transfer = [build_dataset(c, scale=scale, seed=7)[0] for c in ("BEER", "FOZA")]
        return target, transfer

    @pytest.mark.parametrize(
        "strategy",
        [
            DemonstrationStrategy.NONE,
            DemonstrationStrategy.HAND_PICKED,
            DemonstrationStrategy.RANDOM,
        ],
    )
    def test_every_matchgpt_prompt(self, smoke_target, tiny_config, strategy):
        target, transfer = smoke_target
        matcher = MatchGPTMatcher(EchoClient("No"), demo_strategy=strategy)
        matcher.fit(transfer, tiny_config)
        for seed in get_profile("smoke").seeds:
            for pair in target.pairs:
                prompt = matcher.prompt_for(pair, serialization_seed=seed)
                assert count_tokens(prompt) == _reference_count(prompt)

    def test_stated_piece_rule(self):
        # The rule the docstrings state: ceil(len / 6) per ASCII run, one per
        # other non-whitespace character, nothing for whitespace.
        for text, expected in (
            ("abcdef abcdefg", 1 + 2),
            (string.punctuation, len(string.punctuation)),
            (" \t\n\r\f\v", 0),
        ):
            assert count_tokens(text) == _reference_count(text) == expected
