"""Prompt construction and parsing for LLM-based matching.

Implements the *general-complex-force* prompt format that MatchGPT found
strongest without domain-specific information (Section 4.1), plus the
three demonstration strategies of Table 4: none, hand-picked, and
random-selected — with demonstrations drawn from the *transfer* datasets,
never the target (the cross-dataset constraint).
"""

from __future__ import annotations

import enum
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..data.pairs import EMDataset, RecordPair
from ..data.serialize import serialize_record
from ..errors import PromptError
from ..text.tfidf import TfIdfModel

__all__ = [
    "DemonstrationStrategy",
    "Demonstration",
    "DemonstrationRetriever",
    "ParsedPrompt",
    "build_match_prompt",
    "parse_match_prompt",
    "parse_answer",
    "select_hand_picked",
    "select_random",
]

TASK_HEADER = (
    "Do the two entity descriptions refer to the same real-world entity? "
    "Answer with 'Yes' if they do and with 'No' if they do not."
)

_BLOCK_RE = re.compile(
    r"Entity 1: '(?P<left>[^\n]*)'\nEntity 2: '(?P<right>[^\n]*)'\nAnswer:(?P<answer>[^\n]*)"
)


class DemonstrationStrategy(enum.Enum):
    """How in-context examples are chosen.

    ``NONE``/``HAND_PICKED``/``RANDOM`` are the paper's Table-4
    strategies; ``RETRIEVED`` implements the retrieval-augmented
    selection the paper names as future work (Section 5.1).
    """

    NONE = "none"
    HAND_PICKED = "hand-picked"
    RANDOM = "random-selected"
    RETRIEVED = "retrieved"


@dataclass(frozen=True)
class Demonstration:
    """One in-context example: two serialised records and the gold answer."""

    left_text: str
    right_text: str
    label: int

    def render(self) -> str:
        """The demonstration as prompt text with its gold answer."""
        answer = "Yes" if self.label == 1 else "No"
        return (
            f"Entity 1: '{self.left_text}'\n"
            f"Entity 2: '{self.right_text}'\n"
            f"Answer: {answer}"
        )


@dataclass(frozen=True)
class ParsedPrompt:
    """Structure recovered from a match prompt."""

    query_left: str
    query_right: str
    demonstrations: tuple[Demonstration, ...]


def build_match_prompt(
    left_text: str,
    right_text: str,
    demonstrations: tuple[Demonstration, ...] = (),
) -> str:
    """Assemble a general-complex-force prompt."""
    if "\n" in left_text or "\n" in right_text:
        raise PromptError("serialised records must be single-line")
    sections = [TASK_HEADER]
    sections.extend(demo.render() for demo in demonstrations)
    sections.append(f"Entity 1: '{left_text}'\nEntity 2: '{right_text}'\nAnswer:")
    return "\n\n".join(sections)


def parse_match_prompt(prompt: str) -> ParsedPrompt:
    """Recover the query pair and the demonstrations from a prompt.

    The query is the (unique) block whose answer slot is empty; every
    answered block is a demonstration.
    """
    demos: list[Demonstration] = []
    query: tuple[str, str] | None = None
    for match in _BLOCK_RE.finditer(prompt):
        answer = match.group("answer").strip().lower()
        left, right = match.group("left"), match.group("right")
        if not answer:
            if query is not None:
                raise PromptError("prompt contains more than one query block")
            query = (left, right)
        elif answer in ("yes", "no"):
            demos.append(Demonstration(left, right, 1 if answer == "yes" else 0))
        else:
            raise PromptError(f"unparseable demonstration answer {answer!r}")
    if query is None:
        raise PromptError("prompt contains no query block")
    return ParsedPrompt(query[0], query[1], tuple(demos))


def parse_answer(text: str) -> int:
    """Map a model completion to a binary label (robust to chatter)."""
    lowered = text.strip().lower()
    if lowered.startswith("yes"):
        return 1
    if lowered.startswith("no"):
        return 0
    # Fall back to the first standalone yes/no anywhere in the completion.
    match = re.search(r"\b(yes|no)\b", lowered)
    if match is None:
        raise PromptError(f"completion is not a yes/no answer: {text[:60]!r}")
    return 1 if match.group(1) == "yes" else 0


def _demo_from_pair(pair: RecordPair) -> Demonstration:
    return Demonstration(
        left_text=serialize_record(pair.left),
        right_text=serialize_record(pair.right),
        label=pair.label,
    )


def select_hand_picked(transfer_datasets: list[EMDataset]) -> tuple[Demonstration, ...]:
    """A fixed expert-style selection: one match and two non-matches.

    Mirrors the paper's second variant ("three manually selected
    examples"): the choice is deterministic given the transfer datasets —
    the most prototypical match (median hardness) and one hard plus one
    easy non-match, all from the alphabetically first transfer dataset.
    """
    if not transfer_datasets:
        raise PromptError("hand-picked selection needs at least one transfer dataset")
    source = min(transfer_datasets, key=lambda d: d.name)
    positives = sorted((p for p in source.pairs if p.label == 1), key=lambda p: p.hardness)
    negatives = sorted((p for p in source.pairs if p.label == 0), key=lambda p: p.hardness)
    if not positives or len(negatives) < 2:
        raise PromptError(f"dataset {source.name} too small for hand-picked demos")
    chosen = (
        negatives[-1],                      # the hard non-match
        positives[len(positives) // 2],     # the prototypical match
        negatives[0],                       # the easy non-match
    )
    return tuple(_demo_from_pair(pair) for pair in chosen)


def select_random(
    pool: Sequence[RecordPair],
    rng: np.random.Generator,
    n_demos: int = 3,
) -> tuple[Demonstration, ...]:
    """Uniformly sample ``n_demos`` distinct labelled pairs from ``pool``.

    ``pool`` is the transfer datasets' pairs flattened in dataset order,
    built once per fit by the caller: it is fixed for a fit, and only the
    ``n_demos``-index draw belongs to each request.
    """
    if len(pool) < n_demos:
        raise PromptError("not enough transfer pairs for random demonstrations")
    idx = rng.choice(len(pool), size=n_demos, replace=False)
    return tuple(_demo_from_pair(pool[int(i)]) for i in idx)


class DemonstrationRetriever:
    """Retrieval-augmented demonstration selection (RAG, Section 5.1).

    The paper's future-work hypothesis: demonstrations *relevant to the
    query pair* — retrieved from the transfer data rather than picked
    blindly — might recover the in-distribution benefit Narayan et al.
    observed for same-dataset demonstrations.  This retriever indexes the
    serialised transfer pairs with TF-IDF and returns the ``n_demos``
    most similar ones, forcing label diversity when available.
    """

    #: Candidates scored exactly per query (prefiltered by shared tokens).
    _MAX_CANDIDATES = 200

    def __init__(self, transfer_datasets: list[EMDataset], n_demos: int = 3) -> None:
        """Index the transfer pairs to retrieve ``n_demos`` per query."""
        if not transfer_datasets:
            raise PromptError("retrieval needs at least one transfer dataset")
        self.n_demos = n_demos
        self._pairs: list[RecordPair] = [
            p for ds in transfer_datasets for p in ds.pairs
        ]
        if len(self._pairs) < n_demos:
            raise PromptError("not enough transfer pairs to retrieve from")
        self._texts = [
            f"{serialize_record(p.left)} {serialize_record(p.right)}" for p in self._pairs
        ]
        self._model = TfIdfModel().fit(self._texts)
        # Inverted index over discriminative tokens: exact cosine scoring
        # of the whole pool per query would be quadratic in corpus size.
        from ..text.similarity import tokenize_words

        self._tokenize = tokenize_words
        self._index: dict[str, list[int]] = {}
        for i, text in enumerate(self._texts):
            for token in set(tokenize_words(text)):
                self._index.setdefault(token, []).append(i)
        stop_df = max(20, len(self._texts) // 20)
        self._index = {
            token: ids for token, ids in self._index.items() if len(ids) <= stop_df
        }

    def _candidates(self, query: str) -> list[int]:
        """Pool indices sharing at least one discriminative token."""
        from collections import Counter

        counts: Counter[int] = Counter()
        for token in set(self._tokenize(query)):
            for i in self._index.get(token, ()):
                counts[i] += 1
        ranked = [i for i, _n in counts.most_common(self._MAX_CANDIDATES)]
        if len(ranked) < self._MAX_CANDIDATES:
            # Pad with the head of the pool so scoring always has options.
            seen = set(ranked)
            for i in range(len(self._texts)):
                if i not in seen:
                    ranked.append(i)
                if len(ranked) >= self._MAX_CANDIDATES:
                    break
        return ranked

    def retrieve(self, query_left: str, query_right: str) -> tuple[Demonstration, ...]:
        """Top-``n_demos`` transfer pairs by TF-IDF similarity to the query."""
        query = f"{query_left} {query_right}"
        scored = sorted(
            self._candidates(query),
            key=lambda i: self._model.cosine(query, self._texts[i]),
            reverse=True,
        )
        chosen = list(scored[: self.n_demos])
        labels = {self._pairs[i].label for i in chosen}
        if labels != {0, 1}:
            # Swap the least relevant pick for the best one of the
            # missing label so the context shows both outcomes.
            missing = ({0, 1} - labels).pop()
            replacement = next(
                (i for i in scored if self._pairs[i].label == missing), None
            )
            if replacement is not None:
                chosen[-1] = replacement
        return tuple(_demo_from_pair(self._pairs[i]) for i in chosen)
