"""AnyMatch: the model-agnostic, data-centric matcher (Section 3.2).

AnyMatch never modifies the base model; all effort goes into the
fine-tuning data:

* **Label balancing** — the minority class is upsampled towards parity so
  matches are adequately represented (kept for all base models).
* **Difficulty boosting** — pairs a cheap weak learner misclassifies are
  oversampled (GPT-2 / T5 variants only, as in the paper).
* **Attribute-pair augmentation** — weakly-labelled single-attribute
  pairs are added (GPT-2 / T5 variants only).

The base model answers through its own language-model head via the
``yes`` / ``no`` verbaliser tokens, so swapping GPT-2 for T5 or LLaMA3.2
changes nothing but the backbone — the property that defines a
model-agnostic matcher.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..config import StudyConfig, SurrogateScale
from dataclasses import replace as _dc_replace
from ..data.pairs import EMDataset, RecordPair
from ..errors import ConfigurationError
from ..models.decoder import CausalLMClassifier
from ..models.seq2seq import Seq2SeqClassifier
from ..models.training import predict_proba, train_classifier
from .base import Matcher, balance_labels, collect_transfer_pairs
from .boosting import find_difficult_pairs
from .encoding import build_vocabulary, encode_pairs

__all__ = ["AnyMatchMatcher", "ANYMATCH_BASES"]


@dataclass(frozen=True)
class _BaseSpec:
    display: str
    params_millions: float
    architecture: str           # "decoder" or "seq2seq"
    width_factor: float         # scales the surrogate dims
    lr_factor: float            # the LLaMA variant trains with a lower LR
    #: Causal/seq2seq surrogates aggregate evidence only at the answer
    #: slot and converge slower than bidirectional encoders; AnyMatch's
    #: recipe fine-tunes them for proportionally more steps.
    epoch_factor: float
    boosting: bool
    attribute_augmentation: bool


ANYMATCH_BASES: dict[str, _BaseSpec] = {
    "gpt2": _BaseSpec("AnyMatch[GPT-2]", 124, "decoder", 1.0, 1.0, 1.5, True, True),
    "t5": _BaseSpec("AnyMatch[T5]", 220, "seq2seq", 1.0, 1.0, 1.5, True, True),
    # The paper's strongest variant: bigger backbone, lower learning rate,
    # no boosting or attribute augmentation, balancing retained.
    "llama3.2": _BaseSpec("AnyMatch[LLaMA3.2]", 1_300, "decoder", 2.0, 0.5, 1.5, False, False),
}


class AnyMatchMatcher(Matcher):
    """Data-centric fine-tuning of an unmodified language model."""

    name = "anymatch"
    requires_fit = True

    def __init__(self, base: str = "gpt2") -> None:
        super().__init__()
        if base not in ANYMATCH_BASES:
            known = ", ".join(sorted(ANYMATCH_BASES))
            raise ConfigurationError(f"unknown AnyMatch base {base!r}; known: {known}")
        self.base = base
        spec = ANYMATCH_BASES[base]
        self.name = f"anymatch-{base}"
        self.display_name = spec.display
        self.params_millions = spec.params_millions
        self._spec = spec
        self._model = None
        self._vocab = None
        self._max_len = 0
        #: The scaled surrogate dimensions the fitted model was built with;
        #: recorded so :mod:`repro.serving.artifacts` can reconstruct the
        #: exact architecture before loading the checkpoint weights.
        self._scale: SurrogateScale | None = None

    # -- the data-centric pipeline ------------------------------------------

    @staticmethod
    def _attribute_pairs(
        pairs: list[RecordPair], n_samples: int, rng: np.random.Generator
    ) -> list[RecordPair]:
        """Weakly-labelled single-attribute training pairs."""
        out: list[RecordPair] = []
        matches = [p for p in pairs if p.label == 1]
        if not matches or not pairs:
            return out
        for k in range(n_samples):
            if rng.random() < 0.5:
                pair = matches[int(rng.integers(0, len(matches)))]
                col = int(rng.integers(0, pair.n_attributes))
                label = 1
                left_value = pair.left.values[col]
                right_value = pair.right.values[col]
            else:
                pa = pairs[int(rng.integers(0, len(pairs)))]
                pb = pairs[int(rng.integers(0, len(pairs)))]
                label = 0
                left_value = pa.left.values[int(rng.integers(0, pa.n_attributes))]
                right_value = pb.right.values[int(rng.integers(0, pb.n_attributes))]
            template = pairs[0]
            out.append(
                RecordPair(
                    pair_id=f"attr-{k}",
                    left=replace(template.left, record_id=f"attr-{k}-l",
                                 values=(left_value,)),
                    right=replace(template.right, record_id=f"attr-{k}-r",
                                  values=(right_value,)),
                    label=label,
                    hardness=0.5,
                )
            )
        return out

    def prepare_training_pairs(
        self,
        transfer: list[EMDataset],
        config: StudyConfig,
        rng: np.random.Generator,
    ) -> list[RecordPair]:
        """Run the full data-selection pipeline (public for the ablations)."""
        pairs = collect_transfer_pairs(transfer, config.train_pair_budget, rng)
        if self._spec.boosting:
            difficult = find_difficult_pairs(pairs)
            pairs = pairs + difficult  # oversample what the weak learner misses
        pairs = balance_labels(pairs, rng)
        if self._spec.attribute_augmentation:
            pairs = pairs + self._attribute_pairs(pairs, len(pairs) // 4, rng)
        return pairs

    # -- fitting ----------------------------------------------------------------

    def _scaled(self, scale: SurrogateScale) -> SurrogateScale:
        factor = self._spec.width_factor
        if factor == 1.0:
            return scale
        n_heads = max(2, int(scale.n_heads * factor) // 2 * 2)
        d_model = int(scale.d_model * factor)
        d_model -= d_model % n_heads
        return SurrogateScale(
            d_model=d_model,
            n_layers=scale.n_layers + 1,
            n_heads=n_heads,
            d_ff=int(scale.d_ff * factor),
            max_len=scale.max_len,
            vocab_size=scale.vocab_size,
        )

    def _fit(self, transfer: list[EMDataset], config: StudyConfig, seed: int) -> None:
        rng = np.random.default_rng(seed)
        scale = self._scaled(config.surrogate)
        self._scale = scale
        self._max_len = scale.max_len
        self._vocab = build_vocabulary(transfer, size=scale.vocab_size)
        yes_id = self._vocab.id_of("yes")
        no_id = self._vocab.id_of("no")

        pairs = self.prepare_training_pairs(transfer, config, rng)
        train_seed = int(rng.integers(0, 2**31))
        data = encode_pairs(pairs, self._vocab, self._max_len, serialization_seed=train_seed)
        config = replace_config_epochs(config, self._spec.epoch_factor)

        if self._spec.architecture == "decoder":
            self._model = CausalLMClassifier(
                vocab_size=scale.vocab_size, dim=scale.d_model,
                n_layers=scale.n_layers, n_heads=scale.n_heads, d_ff=scale.d_ff,
                max_len=scale.max_len, yes_id=yes_id, no_id=no_id, rng=rng,
            )
        else:
            self._model = Seq2SeqClassifier(
                vocab_size=scale.vocab_size, dim=scale.d_model,
                n_layers=scale.n_layers, n_heads=scale.n_heads, d_ff=scale.d_ff,
                max_len=scale.max_len, yes_id=yes_id, no_id=no_id,
                start_id=self._vocab.cls_id, rng=rng,
            )
        train_classifier(
            self._model, data, config, rng,
            learning_rate=config.learning_rate * self._spec.lr_factor,
        )

    # -- prediction ----------------------------------------------------------------

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


def replace_config_epochs(config: StudyConfig, factor: float) -> StudyConfig:
    """A config copy with epochs scaled by the base model's recipe factor."""
    if factor == 1.0:
        return config
    return _dc_replace(config, epochs=max(1, int(round(config.epochs * factor))))
