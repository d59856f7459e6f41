"""Unicorn: unified multi-task mixture-of-experts matcher (Section 3.2).

Unicorn encodes serialised inputs with a PLM, routes the pooled
representation through a multi-gate mixture of experts and feeds the
merged embedding into a matching module.  Its generalisation comes from
multi-task training: besides record-pair matching, it learns from other
matching-flavoured tasks.  The reproduction trains on two tasks drawn
from the transfer data — record-pair EM and weakly-labelled
attribute-value matching — sharing the MoE backbone, mirroring the
multi-task recipe at reproduction scale.
"""

from __future__ import annotations

import numpy as np

from ..config import StudyConfig
from ..data.pairs import EMDataset, RecordPair
from ..models.moe import MoEClassifier
from ..models.training import EncodedPairs, predict_proba, train_classifier
from .base import Matcher, balance_labels, collect_transfer_pairs
from .encoding import build_vocabulary, encode_pairs, encode_texts

__all__ = ["UnicornMatcher"]


class UnicornMatcher(Matcher):
    """Encoder → gated mixture of experts → matching module."""

    name = "unicorn"
    display_name = "Unicorn"
    params_millions = 143  # nominal DeBERTa (surrogate is scaled down)
    requires_fit = True

    def __init__(self, n_experts: int = 4, multi_task: bool = True) -> None:
        super().__init__()
        self.n_experts = n_experts
        self.multi_task = multi_task
        self._model: MoEClassifier | None = None
        self._vocab = None
        self._max_len = 0

    # -- auxiliary task --------------------------------------------------------

    @staticmethod
    def _attribute_task(
        transfer: list[EMDataset],
        n_samples: int,
        rng: np.random.Generator,
    ) -> tuple[list[str], np.ndarray]:
        """Weakly-labelled attribute-value matching samples.

        Positive: the same attribute of the two records of a matching
        pair.  Negative: attribute values from two unrelated records.
        """
        texts: list[str] = []
        labels: list[int] = []
        pool = [p for ds in transfer for p in ds.pairs]
        if not pool:
            return texts, np.zeros(0, dtype=np.int64)
        matches = [p for p in pool if p.label == 1]
        for _ in range(n_samples):
            if rng.random() < 0.5 and matches:
                pair = matches[int(rng.integers(0, len(matches)))]
                col = int(rng.integers(0, pair.n_attributes))
                left, right = pair.left.values[col], pair.right.values[col]
                label = 1
            else:
                pa = pool[int(rng.integers(0, len(pool)))]
                pb = pool[int(rng.integers(0, len(pool)))]
                left = pa.left.values[int(rng.integers(0, pa.n_attributes))]
                right = pb.right.values[int(rng.integers(0, pb.n_attributes))]
                label = 0
            texts.append(f"val {left} <sep> val {right}")
            labels.append(label)
        return texts, np.array(labels, dtype=np.int64)

    @staticmethod
    def _schema_task(
        transfer: list[EMDataset],
        n_samples: int,
        rng: np.random.Generator,
    ) -> tuple[list[str], np.ndarray]:
        """Weakly-labelled column-alignment samples (Section 5.1 future work).

        The paper suggests schema-matching/column-alignment data could
        substitute when task-specific EM data is missing.  Positive: two
        value samples drawn from the *same attribute* of one dataset.
        Negative: value samples from two different attributes.
        """
        texts: list[str] = []
        labels: list[int] = []
        usable = [ds for ds in transfer if len(ds.pairs) >= 6]
        if not usable:
            return texts, np.zeros(0, dtype=np.int64)
        for _ in range(n_samples):
            ds = usable[int(rng.integers(0, len(usable)))]
            records = [p.left for p in ds.pairs]
            col_a = int(rng.integers(0, ds.n_attributes))
            if rng.random() < 0.5:
                col_b, label = col_a, 1
            else:
                col_b = int(rng.integers(0, ds.n_attributes))
                if ds.n_attributes > 1:
                    while col_b == col_a:
                        col_b = int(rng.integers(0, ds.n_attributes))
                label = int(col_b == col_a)
            def sample(col: int) -> str:
                return " ; ".join(
                    records[int(rng.integers(0, len(records)))].values[col]
                    for _ in range(3)
                )

            texts.append(f"val {sample(col_a)} <sep> val {sample(col_b)}")
            labels.append(label)
        return texts, np.array(labels, dtype=np.int64)

    # -- fitting ------------------------------------------------------------------

    def _fit(self, transfer: list[EMDataset], config: StudyConfig, seed: int) -> None:
        rng = np.random.default_rng(seed)
        scale = config.surrogate
        self._max_len = scale.max_len
        self._vocab = build_vocabulary(transfer, size=scale.vocab_size)

        pairs = collect_transfer_pairs(transfer, config.train_pair_budget, rng)
        # Unicorn trains on >1M multi-task samples where matches are not a
        # vanishing minority; the reproduction-scale sample is rebalanced
        # so the surrogate sees the same regime.
        pairs = balance_labels(pairs, rng)
        train_seed = int(rng.integers(0, 2**31))
        em_data = encode_pairs(pairs, self._vocab, self._max_len, serialization_seed=train_seed)
        if self.multi_task:
            aux_texts, aux_labels = self._attribute_task(
                transfer, n_samples=len(pairs) // 3, rng=rng
            )
            schema_texts, schema_labels = self._schema_task(
                transfer, n_samples=len(pairs) // 4, rng=rng
            )
            aux_texts = aux_texts + schema_texts
            aux_labels = np.concatenate([aux_labels, schema_labels])
            aux_data = encode_texts(aux_texts, self._vocab, self._max_len, aux_labels)
            data = EncodedPairs(
                ids=np.concatenate([em_data.ids, aux_data.ids]),
                pad_mask=np.concatenate([em_data.pad_mask, aux_data.pad_mask]),
                labels=np.concatenate([em_data.labels, aux_data.labels]),
                shared=np.concatenate([em_data.shared, aux_data.shared]),
            )
        else:
            data = em_data

        self._model = MoEClassifier(
            vocab_size=scale.vocab_size,
            dim=scale.d_model,
            n_layers=scale.n_layers,
            n_heads=scale.n_heads,
            d_ff=scale.d_ff,
            max_len=scale.max_len,
            n_experts=self.n_experts,
            rng=rng,
        )
        train_classifier(self._model, data, config, rng)

    # -- prediction -----------------------------------------------------------

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
            serialization_seed=serialization_seed, with_labels=False,
        )
        return predict_proba(self._model, data)

    def _predict(self, pairs: list[RecordPair], serialization_seed: int | None) -> np.ndarray:
        return (self.match_scores(pairs, serialization_seed) > 0.5).astype(np.int64)
