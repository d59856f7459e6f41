"""Ditto: fine-tuned encoder with a prediction head (Section 3.2).

The model-aware baseline: a BERT-style encoder plus a separate prediction
head, fine-tuned on serialised pairs.  The two Ditto optimisations the
paper keeps in the cross-dataset setting are reproduced:

* **Data augmentation** — training pairs are duplicated with a column
  dropped or a token span deleted, teaching the model robustness against
  exactly the corruption the unseen target exhibits.
* **Summarisation** — a TF-IDF summariser trims long values so serialised
  pairs fit the encoder's context window.

The "domain knowledge" injection is omitted, as in the paper, because no
domain information is available for an unseen target dataset.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..config import StudyConfig
from ..data.pairs import EMDataset, RecordPair
from ..models.encoder import EncoderClassifier
from ..models.training import predict_proba, train_classifier
from ..text.tfidf import TfIdfModel, TfIdfSummarizer
from .base import Matcher, balance_labels, collect_transfer_pairs
from .encoding import build_vocabulary, encode_pairs

__all__ = ["DittoMatcher"]


class DittoMatcher(Matcher):
    """Encoder + head, with Ditto's augmentation and summarisation."""

    name = "ditto"
    display_name = "Ditto"
    params_millions = 110  # nominal BERT-base (the training surrogate is scaled down)
    requires_fit = True

    def __init__(self, augment: bool = True, summarize: bool = True) -> None:
        super().__init__()
        self.augment = augment
        self.summarize = summarize
        self._model: EncoderClassifier | None = None
        self._vocab = None
        self._summarizer: TfIdfSummarizer | None = None
        self._max_len = 0

    # -- data augmentation ----------------------------------------------------

    def _augmented(self, pairs: list[RecordPair], rng: np.random.Generator) -> list[RecordPair]:
        """Ditto's augmentation: column drops and token-span deletions."""
        augmented: list[RecordPair] = []
        for pair in pairs:
            if rng.random() < 0.5:
                continue  # augment roughly half the sample
            if rng.random() < 0.5 and pair.n_attributes > 1:
                drop = int(rng.integers(0, pair.n_attributes))
                left = replace(
                    pair.left,
                    values=tuple(
                        "" if i == drop else v for i, v in enumerate(pair.left.values)
                    ),
                )
                augmented.append(replace(pair, pair_id=f"{pair.pair_id}+cd", left=left))
            else:
                col = int(rng.integers(0, pair.n_attributes))
                tokens = pair.right.values[col].split()
                if len(tokens) > 2:
                    start = int(rng.integers(0, len(tokens) - 1))
                    span = 1 + int(rng.integers(0, min(3, len(tokens) - start)))
                    kept = tokens[:start] + tokens[start + span:]
                    right = replace(
                        pair.right,
                        values=tuple(
                            " ".join(kept) if i == col else v
                            for i, v in enumerate(pair.right.values)
                        ),
                    )
                    augmented.append(replace(pair, pair_id=f"{pair.pair_id}+sd", right=right))
        return augmented

    # -- fitting -------------------------------------------------------------

    def _fit(self, transfer: list[EMDataset], config: StudyConfig, seed: int) -> None:
        rng = np.random.default_rng(seed)
        scale = config.surrogate
        self._max_len = scale.max_len
        self._vocab = build_vocabulary(transfer, size=scale.vocab_size)
        if self.summarize:
            corpus = (
                " ".join(record.values)
                for ds in transfer
                for pair in ds.pairs
                for record in (pair.left, pair.right)
            )
            model = TfIdfModel().fit(corpus)
            self._summarizer = TfIdfSummarizer(model, max_tokens=scale.max_len // 2 - 2)

        pairs = collect_transfer_pairs(transfer, config.train_pair_budget, rng)
        # The pretrained BERT the real Ditto fine-tunes copes with the raw
        # 1:9 skew; the from-scratch surrogate collapses to the majority
        # class without a mildly rebalanced sample (weaker than the
        # explicit 1:2 balancing of the data-centric matchers).
        pairs = balance_labels(pairs, rng, max_ratio=3)
        if self.augment:
            pairs = pairs + self._augmented(pairs, rng)
        train_seed = int(rng.integers(0, 2**31))
        data = encode_pairs(
            pairs, self._vocab, self._max_len,
            serialization_seed=train_seed, summarizer=self._summarizer,
        )
        self._model = EncoderClassifier(
            vocab_size=scale.vocab_size,
            dim=scale.d_model,
            n_layers=scale.n_layers,
            n_heads=scale.n_heads,
            d_ff=scale.d_ff,
            max_len=scale.max_len,
            rng=rng,
        )
        train_classifier(self._model, data, config, rng)

    # -- prediction ----------------------------------------------------------

    def match_scores(
        self, pairs: list[RecordPair], serialization_seed: int | None = None
    ) -> np.ndarray:
        """Match probabilities from :func:`~repro.models.training.predict_proba`.

        The fused no-grad kernels run in float32 over length-sorted
        batches; scores agree with the float64 autograd forward within
        ``FLOAT32_RTOL``/``FLOAT32_ATOL`` (see :mod:`repro.nn.fastpath`).
        """
        data = encode_pairs(
            pairs, self._vocab, self._max_len,
            serialization_seed=serialization_seed,
            summarizer=self._summarizer, with_labels=False,
        )
        return predict_proba(self._model, data)

    def _predict(self, pairs: list[RecordPair], serialization_seed: int | None) -> np.ndarray:
        return (self.match_scores(pairs, serialization_seed) > 0.5).astype(np.int64)
