"""Jellyfish: instruction-tuned 13B data-preprocessing model (Section 3.3).

Jellyfish is a LLaMA2-13B pair instruction-tuned on data-preparation
tasks.  The weights are not runnable in this environment, so the matcher
runs over the simulated LLM service with the ``jellyfish-13b`` behaviour
profile, using Jellyfish's own instruction prompt format.

Six of the eleven benchmarks were part of Jellyfish's multi-task training
(:data:`repro.data.registry.JELLYFISH_SEEN`); the evaluation layer
brackets those scores exactly as the paper does.
"""

from __future__ import annotations

import numpy as np

from ..config import StudyConfig
from ..data.pairs import EMDataset, RecordPair
from ..data.registry import JELLYFISH_SEEN
from ..llm.client import LLMClient, LLMRequest
from ..llm.prompts import build_match_prompt, parse_answer
from .base import Matcher
from .encoding import pair_text

__all__ = ["JellyfishMatcher"]

#: Jellyfish's instruction preamble (condensed from the released prompt).
_INSTRUCTION = (
    "You are an expert in data preprocessing. Decide whether the two records "
    "describe the same real-world entity."
)


class JellyfishMatcher(Matcher):
    """Instruction-prompted matcher over the Jellyfish model."""

    name = "jellyfish"
    display_name = "Jellyfish"
    params_millions = 13_000
    requires_fit = False

    #: Datasets whose scores must be bracketed (seen during training).
    seen_datasets = JELLYFISH_SEEN

    def __init__(self, client: LLMClient) -> None:
        """Prompt ``client``, one pair at a time."""
        super().__init__()
        self.client = client

    def _fit(self, transfer: list[EMDataset], config: StudyConfig, seed: int) -> None:
        """Jellyfish arrives pre-instruction-tuned; nothing to fit."""

    def _predict(self, pairs: list[RecordPair], serialization_seed: int | None) -> np.ndarray:
        prompts = []
        for pair in pairs:
            left, right = pair_text(pair, serialization_seed)
            prompts.append(f"{_INSTRUCTION}\n\n{build_match_prompt(left, right)}")
        # One call per prompt, in input order; a typed LLM error propagates
        # for retry classification upstream.
        predictions = np.zeros(len(prompts), dtype=np.int64)
        for index, prompt in enumerate(prompts):
            response = self.client.complete(LLMRequest(prompt=prompt))
            predictions[index] = parse_answer(response.text)
        return predictions
