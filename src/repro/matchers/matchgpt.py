"""MatchGPT: prompting large language models for EM (Section 3.4).

Builds general-complex-force prompts over any :class:`~repro.llm.client.LLMClient`,
optionally with demonstrations drawn from the *transfer* datasets
(Table 4's three strategies), parses the yes/no completions, and accounts
token usage so the cost analysis can price a full run.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..config import StudyConfig
from ..data.pairs import EMDataset, RecordPair
from ..errors import MatcherError
from ..llm.batching import BatchJob
from ..llm.client import LLMClient, UsageMeter
from ..llm.prompts import (
    Demonstration,
    DemonstrationRetriever,
    DemonstrationStrategy,
    build_match_prompt,
    parse_answer,
    select_hand_picked,
    select_random,
)
from .base import Matcher
from .encoding import pair_text

__all__ = ["MatchGPTMatcher"]


@lru_cache(maxsize=65536)
def _zero_shot_prompt(pair: RecordPair, serialization_seed: int | None) -> str:
    """The demonstration-free prompt for one pair.

    A pure function of the (frozen, hashable) pair and the serialisation
    seed — and identical for every model — so it is memoised module-wide.
    The study grid prompts each candidate pair once per model, and without
    the memo prompt construction dominates cache-hit passes.
    """
    left, right = pair_text(pair, serialization_seed)
    return build_match_prompt(left, right, ())


class MatchGPTMatcher(Matcher):
    """Prompt-based matcher over an LLM client."""

    name = "matchgpt"
    requires_fit = True  # needs the transfer datasets when demos are enabled

    def __init__(
        self,
        client: LLMClient,
        demo_strategy: DemonstrationStrategy = DemonstrationStrategy.NONE,
        meter: UsageMeter | None = None,
        display_name: str | None = None,
        params_millions: float = 0.0,
    ) -> None:
        """Prompt ``client`` for yes/no match decisions.

        ``demo_strategy`` chooses Table 4's in-context examples (none by
        default).  ``meter`` accounts token usage; when ``None`` each
        ``predict`` meters into a fresh one.  ``display_name`` is the
        table label (``MatchGPT[<model>]`` by default) and
        ``params_millions`` the nominal model size reported beside it.
        """
        super().__init__()
        self.client = client
        self.demo_strategy = demo_strategy
        self.meter = meter
        self.display_name = display_name or f"MatchGPT[{client.model_name}]"
        self.name = f"matchgpt-{client.model_name}"
        self.params_millions = params_millions
        self._pool: tuple[RecordPair, ...] = ()
        self._fixed_demos: tuple[Demonstration, ...] = ()
        self._demo_rng: np.random.Generator | None = None
        self._retriever: DemonstrationRetriever | None = None

    def _fit(self, transfer: list[EMDataset], config: StudyConfig, seed: int) -> None:
        """No fine-tuning; only demonstration sources are prepared.

        Each source is built once per fit: the hand-picked triple, the
        retrieval index, or the random strategy's pool, which is every
        transfer pair flattened in dataset order.  Each random request
        then only draws its indices from the pool.  A strategy that needs
        transfer pairs and gets none raises ``MatcherError`` here, not at
        the first ``predict``.
        """
        self._demo_rng = np.random.default_rng(seed)
        if self.demo_strategy is DemonstrationStrategy.HAND_PICKED:
            if not transfer:
                raise MatcherError("hand-picked demonstrations need transfer datasets")
            self._fixed_demos = select_hand_picked(transfer)
        elif self.demo_strategy is DemonstrationStrategy.RETRIEVED:
            if not transfer:
                raise MatcherError("retrieved demonstrations need transfer datasets")
            self._retriever = DemonstrationRetriever(transfer)
        elif self.demo_strategy is DemonstrationStrategy.RANDOM:
            pool = tuple(p for ds in transfer for p in ds.pairs)
            if not pool:
                raise MatcherError("random demonstrations need transfer datasets")
            self._pool = pool

    def _demos_for(
        self, _pair: RecordPair, left_text: str, right_text: str
    ) -> tuple[Demonstration, ...]:
        if self.demo_strategy is DemonstrationStrategy.NONE:
            return ()
        if self.demo_strategy is DemonstrationStrategy.HAND_PICKED:
            return self._fixed_demos
        if self.demo_strategy is DemonstrationStrategy.RETRIEVED:
            return self._retriever.retrieve(left_text, right_text)
        return select_random(self._pool, self._demo_rng)

    def prompt_for(self, pair: RecordPair, serialization_seed: int | None = None) -> str:
        """The exact prompt sent for one candidate pair (useful for debugging)."""
        if self.demo_strategy is DemonstrationStrategy.NONE:
            return _zero_shot_prompt(pair, serialization_seed)
        left, right = pair_text(pair, serialization_seed)
        return build_match_prompt(left, right, self._demos_for(pair, left, right))

    def _predict(self, pairs: list[RecordPair], serialization_seed: int | None) -> np.ndarray:
        # The paper prices MatchGPT inference through the Batch API
        # (Table 6), so prediction goes through BatchJob in the same
        # submit-then-collect shape.  ``fail_fast`` preserves the old
        # inline-loop semantics exactly: requests complete and are
        # metered in submission order, and the first typed error
        # (retry-exhausted, budget, deadline) propagates unchanged.
        job = BatchJob(
            self.client,
            meter=self.meter if self.meter is not None else UsageMeter(),
        )
        for pair in pairs:
            job.submit(
                self.prompt_for(pair, serialization_seed),
                metadata={"demo_strategy": self.demo_strategy.value},
            )
        job.process(fail_fast=True)
        return np.array(
            [parse_answer(text) for text in job.texts()], dtype=np.int64
        )
