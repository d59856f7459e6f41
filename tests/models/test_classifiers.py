"""Tests for the surrogate pair classifiers and the shared trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import StudyConfig, SurrogateScale
from repro.errors import ConfigurationError, MatcherError
from repro.models import (
    CausalLMClassifier,
    EncodedPairs,
    EncoderClassifier,
    MoEClassifier,
    Seq2SeqClassifier,
    predict_proba,
    train_classifier,
)

_VOCAB = 64
_YES, _NO, _START = 5, 6, 2


def _model(kind: str, rng):
    common = dict(vocab_size=_VOCAB, dim=16, n_layers=1, n_heads=2, d_ff=32,
                  max_len=12, rng=rng)
    if kind == "encoder":
        return EncoderClassifier(**common)
    if kind == "moe":
        return MoEClassifier(n_experts=2, **common)
    if kind == "decoder":
        return CausalLMClassifier(yes_id=_YES, no_id=_NO, **common)
    return Seq2SeqClassifier(yes_id=_YES, no_id=_NO, start_id=_START, **common)


def _toy_task(rng, n=80):
    """Label 1 iff the rare marker token 60 appears twice."""
    ids = rng.integers(10, 50, size=(n, 12))
    labels = rng.integers(0, 2, size=n)
    ids[labels == 1, 2] = 60
    ids[labels == 1, 8] = 60
    pad_mask = np.zeros_like(ids, dtype=bool)
    shared = np.zeros_like(ids)
    shared[labels == 1, 2] = 2
    shared[labels == 1, 8] = 2
    return EncodedPairs(ids, pad_mask, labels.astype(np.int64), shared)


@pytest.mark.parametrize("kind", ["encoder", "moe", "decoder", "seq2seq"])
class TestClassifiers:
    def test_logit_shape(self, kind):
        rng = np.random.default_rng(0)
        model = _model(kind, rng)
        logits = model(rng.integers(0, _VOCAB, size=(4, 12)))
        assert logits.shape == (4, 2)

    def test_learns_toy_task(self, kind):
        rng = np.random.default_rng(0)
        model = _model(kind, rng)
        data = _toy_task(np.random.default_rng(1))
        config = StudyConfig(
            name="t", seeds=(0,), train_pair_budget=100, epochs=8, batch_size=16,
            learning_rate=5e-3,
            surrogate=SurrogateScale(d_model=16, n_layers=1, n_heads=2, d_ff=32,
                                     max_len=12, vocab_size=_VOCAB),
        )
        train_classifier(model, data, config, np.random.default_rng(2))
        probs = predict_proba(model, data)
        accuracy = ((probs > 0.5).astype(int) == data.labels).mean()
        assert accuracy > 0.85, kind


class TestDecoderSpecifics:
    def test_answer_slot_respects_padding(self):
        rng = np.random.default_rng(0)
        model = _model("decoder", rng)
        model.eval()  # deterministic: dropout off
        ids = rng.integers(10, 50, size=(2, 12))
        pad_mask = np.zeros_like(ids, dtype=bool)
        pad_mask[0, 6:] = True
        base = model(ids, pad_mask).numpy()
        # Changing padded positions must not change the row-0 logits.
        perturbed = ids.copy()
        perturbed[0, 9] = 33
        out = model(perturbed, pad_mask).numpy()
        np.testing.assert_allclose(base[0], out[0], atol=1e-10)

    def test_same_verbaliser_ids_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            CausalLMClassifier(_VOCAB, 16, 1, 2, 32, 12, yes_id=3, no_id=3, rng=rng)


class TestSeq2SeqSpecifics:
    def test_distinct_special_ids_required(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            Seq2SeqClassifier(_VOCAB, 16, 1, 2, 32, 12, yes_id=3, no_id=3,
                              start_id=2, rng=rng)


class TestMoESpecifics:
    def test_needs_two_experts(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            MoEClassifier(_VOCAB, 16, 1, 2, 32, 12, n_experts=1, rng=rng)

    def test_moe_representation_shape(self):
        rng = np.random.default_rng(0)
        model = _model("moe", rng)
        rep = model.moe_representation(rng.integers(0, _VOCAB, size=(3, 12)))
        assert rep.shape == (3, 16)


class TestTrainer:
    def test_empty_data_raises(self):
        rng = np.random.default_rng(0)
        model = _model("encoder", rng)
        data = EncodedPairs(
            np.zeros((0, 12), dtype=np.int64), np.zeros((0, 12), dtype=bool),
            np.zeros(0, dtype=np.int64),
        )
        config = StudyConfig(name="t", seeds=(0,))
        with pytest.raises(MatcherError):
            train_classifier(model, data, config, rng)

    def test_unlabelled_data_raises(self):
        rng = np.random.default_rng(0)
        model = _model("encoder", rng)
        data = EncodedPairs(
            np.zeros((4, 12), dtype=np.int64), np.zeros((4, 12), dtype=bool),
            np.zeros(0, dtype=np.int64),
        )
        config = StudyConfig(name="t", seeds=(0,))
        with pytest.raises(MatcherError):
            train_classifier(model, data, config, rng)

    def test_loss_decreases(self):
        rng = np.random.default_rng(0)
        model = _model("encoder", rng)
        data = _toy_task(np.random.default_rng(1))
        config = StudyConfig(
            name="t", seeds=(0,), epochs=6, batch_size=16, learning_rate=5e-3,
        )
        losses = train_classifier(model, data, config, np.random.default_rng(2))
        assert losses[-1] < losses[0]

    def test_model_left_in_eval_mode(self):
        rng = np.random.default_rng(0)
        model = _model("encoder", rng)
        data = _toy_task(np.random.default_rng(1))
        config = StudyConfig(name="t", seeds=(0,), epochs=1)
        train_classifier(model, data, config, rng)
        assert not model.training

    def test_explicit_zero_learning_rate_is_refused(self):
        # 0.0 is a rate, not "use the config's": the optimizer must refuse it.
        rng = np.random.default_rng(0)
        model = _model("encoder", rng)
        data = _toy_task(np.random.default_rng(1))
        config = StudyConfig(name="t", seeds=(0,), epochs=1)
        with pytest.raises(ConfigurationError, match="learning rate must be positive"):
            train_classifier(model, data, config, rng, learning_rate=0.0)

    def test_learning_rate_defaults_to_config(self):
        data = _toy_task(np.random.default_rng(1))
        config = StudyConfig(name="t", seeds=(0,), epochs=1, learning_rate=5e-3)
        trained = []
        for rate in (None, 5e-3):
            model = _model("encoder", np.random.default_rng(0))
            train_classifier(model, data, config, np.random.default_rng(2), learning_rate=rate)
            trained.append(model.state_dict())
        for name, weights in trained[0].items():
            assert np.array_equal(weights, trained[1][name]), name

    def test_predict_proba_range(self):
        rng = np.random.default_rng(0)
        model = _model("encoder", rng)
        data = _toy_task(np.random.default_rng(1))
        probs = predict_proba(model, data)
        assert ((probs >= 0) & (probs <= 1)).all()
        assert probs.shape == (len(data),)
