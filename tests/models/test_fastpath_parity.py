"""Fast-path vs reference-path parity across every surrogate family.

Pins the contract documented in :mod:`repro.nn.fastpath`: at float64 the
fused kernels reproduce the autograd ``Tensor`` forward byte for byte; at
float32 they stay within the documented tolerance; and ``predict_proba``'s
length-bucketed batching returns results in the caller's original order.
The reference is the float64 autograd forward over fixed batches
(:func:`tests.conftest.reference_proba`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import (
    CausalLMClassifier,
    EncodedPairs,
    EncoderClassifier,
    MoEClassifier,
    Seq2SeqClassifier,
    predict_proba,
)
from repro.nn import fastpath, no_grad
from repro.nn.fastpath import FLOAT32_ATOL, FLOAT32_RTOL
from tests.conftest import reference_proba

_VOCAB = 64
_MAX_LEN = 12
_YES, _NO, _START = 5, 6, 2

_FAMILIES = ("encoder", "moe", "decoder", "seq2seq")
_SEEDS = (0, 1, 2)


def _model(kind: str, rng):
    common = dict(vocab_size=_VOCAB, dim=16, n_layers=1, n_heads=2, d_ff=32,
                  max_len=_MAX_LEN, rng=rng)
    if kind == "encoder":
        return EncoderClassifier(**common)
    if kind == "moe":
        return MoEClassifier(n_experts=2, **common)
    if kind == "decoder":
        return CausalLMClassifier(yes_id=_YES, no_id=_NO, **common)
    return Seq2SeqClassifier(yes_id=_YES, no_id=_NO, start_id=_START, **common)


def _workload(rng, n=24):
    """Variable-length ids + pad mask + flag channel."""
    ids = rng.integers(0, _VOCAB, size=(n, _MAX_LEN))
    lengths = rng.integers(2, _MAX_LEN + 1, size=n)
    pad_mask = np.arange(_MAX_LEN)[None, :] >= lengths[:, None]
    flags = rng.integers(0, 3, size=(n, _MAX_LEN))
    return ids, pad_mask, flags


@pytest.mark.parametrize("kind", _FAMILIES)
@pytest.mark.parametrize("seed", _SEEDS)
class TestLogitParity:
    def test_float64_logits_byte_identical(self, kind, seed):
        rng = np.random.default_rng(seed)
        model = _model(kind, rng)
        model.eval()
        ids, pad_mask, flags = _workload(np.random.default_rng(seed + 100))
        with no_grad():
            expected = model(ids, pad_mask, flags).numpy()
        got = model.infer_logits(ids, pad_mask, flags, dtype=np.float64)
        assert np.array_equal(got, expected), (
            f"{kind}/seed={seed}: float64 fast path lost bit-parity"
        )

    def test_float32_logits_within_tolerance(self, kind, seed):
        rng = np.random.default_rng(seed)
        model = _model(kind, rng)
        model.eval()
        ids, pad_mask, flags = _workload(np.random.default_rng(seed + 100))
        with no_grad():
            expected = model(ids, pad_mask, flags).numpy()
        got = model.infer_logits(ids, pad_mask, flags, dtype=np.float32)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, expected, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)


@pytest.mark.parametrize("kind", _FAMILIES)
class TestPredictProbaParity:
    def _data(self, seed=7, n=24):
        ids, pad_mask, flags = _workload(np.random.default_rng(seed), n=n)
        return EncodedPairs(ids, pad_mask, np.zeros(0, dtype=np.int64), flags)

    def test_float64_fast_path_byte_identical(self, kind):
        """float64 kernels and the in-place softmax reproduce the reference
        probabilities bit for bit over the same fixed batches."""
        model = _model(kind, np.random.default_rng(0))
        data = self._data()
        reference = reference_proba(model, data, batch_size=8)
        batches = [data.take(np.arange(start, start + 8)) for start in range(0, len(data), 8)]
        fast = np.concatenate([
            fastpath.softmax_(model.infer_logits(
                batch.ids, batch.pad_mask, batch.shared, dtype=np.float64
            ))[:, 1]
            for batch in batches
        ])
        assert np.array_equal(fast, reference)

    def test_bucketing_restores_input_order(self, kind):
        """Variable-length inputs out of length order come back in order."""
        model = _model(kind, np.random.default_rng(0))
        data = self._data()
        lengths = (~data.pad_mask).sum(axis=1)
        assert np.any(np.diff(lengths) < 0)  # bucketing has to reorder
        reference = reference_proba(model, data, batch_size=8)
        got = predict_proba(model, data, batch_size=8)
        # Every probability sits at its submitter's index: the float32
        # drift is far below the gaps between different rows' scores.
        np.testing.assert_allclose(got, reference, rtol=1e-5, atol=1e-6)
        assert np.array_equal(got > 0.5, reference > 0.5)

    def test_bucketing_is_a_permutation_of_unbucketed_batches(self, kind):
        """Reversing the workload reverses the output: order is positional."""
        model = _model(kind, np.random.default_rng(0))
        data = self._data()
        flipped = EncodedPairs(
            data.ids[::-1].copy(), data.pad_mask[::-1].copy(),
            np.zeros(0, dtype=np.int64), data.shared[::-1].copy(),
        )
        forward = predict_proba(model, data, batch_size=8)
        backward = predict_proba(model, flipped, batch_size=8)
        np.testing.assert_allclose(backward[::-1], forward, rtol=1e-5, atol=1e-6)

    def test_float32_fast_path_within_tolerance(self, kind):
        model = _model(kind, np.random.default_rng(0))
        data = self._data()
        reference = reference_proba(model, data, batch_size=8)
        fast = predict_proba(model, data, batch_size=8)
        np.testing.assert_allclose(fast, reference, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)
        assert fast.dtype == np.float64  # probabilities surface as float64

    def test_training_mode_refused(self, kind):
        model = _model(kind, np.random.default_rng(0))
        model.train()
        ids, pad_mask, flags = _workload(np.random.default_rng(1), n=4)
        with pytest.raises(ConfigurationError, match="requires eval mode"):
            model.infer_logits(ids, pad_mask, flags)
