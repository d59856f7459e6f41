"""Token-cost behaviour of the prompt formats (feeds the RQ3 analysis)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import build_dataset
from repro.llm import (
    Demonstration,
    build_match_prompt,
    count_tokens,
    select_random,
)


@pytest.fixture(scope="module")
def transfer():
    return [build_dataset(c, scale=0.05, seed=7)[0] for c in ("WDC", "DBAC")]


class TestPromptCosts:
    def test_demonstrations_multiply_prompt_length(self, transfer):
        pool = [p for ds in transfer for p in ds.pairs]
        demos = select_random(pool, np.random.default_rng(0))
        bare = build_match_prompt("val sony mdr", "val sony mdr v2")
        with_demos = build_match_prompt("val sony mdr", "val sony mdr v2", demos)
        assert count_tokens(with_demos) > 2 * count_tokens(bare)

    def test_header_cost_is_fixed(self):
        a = build_match_prompt("val x", "val y")
        b = build_match_prompt("val xx", "val yy")
        # Longer records -> proportionally more tokens, same header.
        assert count_tokens(b) >= count_tokens(a)

    def test_output_is_one_word(self):
        """The study's cost model assumes single-word outputs (Sec 2.3)."""
        for answer in ("Yes", "No"):
            assert count_tokens(answer) == 1

    def test_typical_pair_prompt_budget(self, transfer):
        """Serialised pair prompts stay in the low hundreds of tokens."""
        pair = transfer[0].pairs[0]
        from repro.data.serialize import serialize_record

        prompt = build_match_prompt(
            serialize_record(pair.left), serialize_record(pair.right)
        )
        assert 30 < count_tokens(prompt) < 400


class TestDemonstrationRendering:
    def test_answer_matches_label(self):
        assert Demonstration("val a", "val b", 1).render().endswith("Answer: Yes")
        assert Demonstration("val a", "val b", 0).render().endswith("Answer: No")
