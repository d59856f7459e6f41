"""ZeroER: zero-labelled-example entity resolution (Section 3.1).

Builds per-attribute similarity feature vectors — choosing similarity
functions by *column type*, which is why ZeroER partially violates
cross-dataset Restriction 2 — and fits a two-component Gaussian mixture on
the unlabelled candidate set.  Matches are the rows whose posterior under
the match component exceeds 0.5.

As in the original system the matcher is batch-only: single pairs cannot
be classified in isolation because the mixture is estimated from the full
candidate set (the paper lists this as one of ZeroER's drawbacks).
"""

from __future__ import annotations

import numpy as np

from ..data.pairs import RecordPair
from ..data.record import AttributeKind
from ..errors import MatcherError
from ..text.similarity import (
    jaccard,
    jaro_winkler,
    levenshtein_similarity,
    monge_elkan,
    numeric_similarity,
)
from ..text.tfidf import TfIdfModel
from .base import Matcher
from .gmm import TwoComponentGMM

__all__ = ["ZeroERMatcher"]

#: Fraction of the candidate set assumed matchable when seeding EM.
_INIT_MATCH_QUANTILE = 0.90


def _digits(text: str) -> str:
    return "".join(ch for ch in text if ch.isdigit())


class ZeroERMatcher(Matcher):
    """Similarity features + unsupervised 2-component GMM."""

    name = "zeroer"
    display_name = "ZeroER"
    params_millions = 0.0
    requires_fit = False  # unsupervised; needs no transfer data

    def __init__(
        self,
        attribute_kinds: tuple[AttributeKind, ...],
        reg: float = 1e-3,
        min_pairs: int = 8,
    ) -> None:
        """Score pairs whose columns have the types ``attribute_kinds``.

        ``reg`` is the covariance regularisation added to each mixture
        component, and ``min_pairs`` the smallest candidate set the
        mixture is estimated from.
        """
        super().__init__()
        if not attribute_kinds:
            raise MatcherError("ZeroER needs the column types of the target relations")
        self.attribute_kinds = attribute_kinds
        self.reg = reg
        self.min_pairs = min_pairs
        #: The last candidate set scored and its (read-only) posterior.
        self._scored: tuple[tuple[RecordPair, ...], np.ndarray] | None = None

    # -- feature construction --------------------------------------------------

    def _features(self, pairs: list[RecordPair]) -> np.ndarray:
        tfidf = TfIdfModel()
        text_columns = [
            i for i, kind in enumerate(self.attribute_kinds) if kind is AttributeKind.TEXT
        ]
        if text_columns:
            corpus = (
                record.values[i]
                for pair in pairs
                for record in (pair.left, pair.right)
                for i in text_columns
            )
            tfidf.fit(corpus)

        rows = []
        for pair in pairs:
            if pair.n_attributes != len(self.attribute_kinds):
                raise MatcherError(
                    f"pair {pair.pair_id} arity {pair.n_attributes} does not match "
                    f"the configured {len(self.attribute_kinds)} column types"
                )
            row: list[float] = []
            for i, kind in enumerate(self.attribute_kinds):
                a, b = pair.left.values[i], pair.right.values[i]
                row.extend(self._column_features(a, b, kind, tfidf))
            rows.append(row)
        return np.array(rows, dtype=np.float64)

    @staticmethod
    def _column_features(a: str, b: str, kind: AttributeKind, tfidf: TfIdfModel) -> tuple[float, float]:
        if not a and not b:
            return (0.5, 0.5)  # jointly missing: uninformative
        if kind is AttributeKind.NAME:
            return (jaro_winkler(a, b), monge_elkan(a, b))
        if kind is AttributeKind.TEXT:
            return (jaccard(a, b), tfidf.cosine(a, b))
        if kind is AttributeKind.CATEGORY:
            return (float(a.strip().lower() == b.strip().lower()), jaccard(a, b))
        if kind is AttributeKind.NUMERIC:
            return (numeric_similarity(a, b), float(a.strip() == b.strip()))
        # PHONE
        da, db = _digits(a), _digits(b)
        exact = float(bool(da) and da == db)
        return (levenshtein_similarity(da, db), exact)

    # -- prediction --------------------------------------------------------------

    def match_scores(
        self, pairs: list[RecordPair], serialization_seed: int | None = None
    ) -> np.ndarray:
        """Posterior match probabilities for the whole candidate set.

        ``serialization_seed`` is accepted for interface uniformity and
        ignored — ZeroER works on typed columns, not serialised text.
        The posterior of the last candidate set is kept, and a set equal
        to it pair by pair gets it back (read-only) without recomputing:
        the leave-one-out runner scores one test set once per seed, so
        features, TF-IDF and the mixture then run once per target.
        """
        if len(pairs) < self.min_pairs:
            raise MatcherError(
                f"ZeroER is batch-only and needs >= {self.min_pairs} candidate pairs"
            )
        key = tuple(pairs)
        if self._scored is not None and self._scored[0] == key:
            return self._scored[1]
        X = self._features(pairs)
        aggregate = X.mean(axis=1)
        threshold = np.quantile(aggregate, _INIT_MATCH_QUANTILE)
        init_resp = np.where(aggregate >= threshold, 0.95, 0.05)
        gmm = TwoComponentGMM(reg=self.reg).fit(X, init_resp)
        posterior = gmm.match_posterior(X)
        # EM may swap components on degenerate data; re-anchor the match
        # component to the one with higher aggregate similarity.
        high = aggregate >= threshold
        if high.any() and posterior[high].mean() < 0.5:
            posterior = 1.0 - posterior
        posterior.flags.writeable = False
        self._scored = (key, posterior)
        return posterior

    def _predict(self, pairs: list[RecordPair], serialization_seed: int | None) -> np.ndarray:
        # Deterministic: ZeroER never sees a serialised column order, it
        # works on typed columns directly (hence its 0.0 std in Table 3).
        return (self.match_scores(pairs) > 0.5).astype(np.int64)
