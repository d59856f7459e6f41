"""Central-difference checks of every Module parameter's gradient.

``tests/nn/test_tensor.check_gradient`` covers single ops on their input;
this file covers the parameters of whole modules, where a backward that
scatters or sums a gradient twice still trains but drifts.  Each check
runs the module in eval mode (no dropout), backpropagates a fixed random
projection of its output, and compares sampled entries of every
parameter's gradient with ``(f(w + eps) - f(w - eps)) / 2 eps`` at the
tolerance of ``check_gradient``.  Samples favour entries with a non-zero
gradient (the rows a batch touched), plus a few anywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    CausalLMClassifier,
    EncoderClassifier,
    MoEClassifier,
    Seq2SeqClassifier,
)
from repro.nn import FeedForward, LayerNorm, Module, MultiHeadAttention
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.nn.transformer import _EmbeddingStem

from .test_tensor import check_gradient

EPS, ATOL, RTOL = 1e-6, 1e-6, 1e-4
BATCH, LENGTH, DIM, HEADS, VOCAB = 3, 6, 8, 2, 40


def _sampled_entries(grad: np.ndarray, rng: np.random.Generator, n: int = 6) -> np.ndarray:
    nonzero = np.flatnonzero(grad)
    picks = rng.choice(nonzero, size=min(n, nonzero.size), replace=False)
    anywhere = rng.choice(grad.size, size=min(2, grad.size), replace=False)
    return np.unique(np.concatenate([picks, anywhere]))


def check_parameter_gradients(module: Module, loss, seed: int = 0) -> None:
    """Every parameter of ``module``: analytic vs central-difference gradient."""
    rng = np.random.default_rng(seed)
    module.eval()
    module.zero_grad()
    loss().backward()
    checked = 0
    for name, param in module.named_parameters():
        # A parameter the loss never reads keeps grad None: its numeric
        # gradient must then be zero.
        analytic = param.grad if param.grad is not None else np.zeros_like(param.data)
        entries = _sampled_entries(analytic, rng)
        flat = param.data.reshape(-1)
        numeric = []
        for i in entries:
            original = flat[i]
            flat[i] = original + EPS
            up = loss().item()
            flat[i] = original - EPS
            down = loss().item()
            flat[i] = original
            numeric.append((up - down) / (2 * EPS))
        np.testing.assert_allclose(
            analytic.reshape(-1)[entries], numeric, atol=ATOL, rtol=RTOL, err_msg=name
        )
        checked += 1
    assert checked == len(module.parameters())


def _projection(shape, seed=1):
    """A fixed random linear read-out, so every output entry matters."""
    return np.random.default_rng(seed).normal(size=shape)


def _padding(rng, batch=BATCH, length=LENGTH):
    lengths = rng.integers(2, length + 1, size=batch)
    lengths[0] = length - 1
    return np.arange(length)[None, :] >= lengths[:, None]


class TestLayers:
    def test_embedding_stem_tokens_positions_flags(self):
        rng = np.random.default_rng(0)
        # Repeated token ids, and a position table longer than the batch.
        stem = _EmbeddingStem(VOCAB, DIM, LENGTH + 4, rng, dropout=0.0)
        ids = rng.integers(0, 5, size=(BATCH, LENGTH))
        flags = rng.integers(0, 3, size=(BATCH, LENGTH))
        proj = _projection((BATCH, LENGTH, DIM))
        check_parameter_gradients(stem, lambda: (stem(ids, flags) * proj).sum())

    def test_layer_norm(self):
        rng = np.random.default_rng(1)
        norm = LayerNorm(DIM)
        norm.gain.data = rng.normal(size=DIM)
        norm.bias.data = rng.normal(size=DIM)
        x = Tensor(rng.normal(1.0, 2.0, size=(BATCH, LENGTH, DIM)))
        proj = _projection(x.shape)
        check_parameter_gradients(norm, lambda: (norm(x) * proj).sum())
        check_gradient(lambda t: (norm(t) * proj).sum(), x.data.copy())

    @pytest.mark.parametrize("kind", ["causal", "key_padding", "cross"])
    def test_multi_head_attention(self, kind):
        rng = np.random.default_rng(2)
        attn = MultiHeadAttention(DIM, HEADS, rng, causal=kind == "causal")
        x = Tensor(rng.normal(size=(BATCH, LENGTH, DIM)))
        kv = Tensor(rng.normal(size=(BATCH, LENGTH + 2, DIM))) if kind == "cross" else None
        k_len = LENGTH + 2 if kind == "cross" else LENGTH
        pad = _padding(rng, length=k_len) if kind != "causal" else None
        proj = _projection((BATCH, LENGTH, DIM))

        def loss():
            return (attn(x, kv=kv, key_padding_mask=pad) * proj).sum()

        check_parameter_gradients(attn, loss)
        check_gradient(lambda t: (attn(t, kv=kv, key_padding_mask=pad) * proj).sum(),
                       x.data.copy())
        if kv is not None:
            check_gradient(lambda t: (attn(x, kv=t, key_padding_mask=pad) * proj).sum(),
                           kv.data.copy())

    def test_feed_forward(self):
        rng = np.random.default_rng(3)
        ffn = FeedForward(DIM, 2 * DIM, rng)
        x = Tensor(rng.normal(size=(BATCH, LENGTH, DIM)))
        proj = _projection(x.shape)
        check_parameter_gradients(ffn, lambda: (ffn(x) * proj).sum())
        check_gradient(lambda t: (ffn(t) * proj).sum(), x.data.copy())


def _classifier(kind: str):
    rng = np.random.default_rng(4)
    common = dict(vocab_size=VOCAB, dim=DIM, n_layers=2, n_heads=HEADS, d_ff=2 * DIM,
                  max_len=LENGTH + 2, rng=rng)
    if kind == "encoder":
        return EncoderClassifier(**common)
    if kind == "moe":
        return MoEClassifier(n_experts=2, **common)
    if kind == "decoder":
        return CausalLMClassifier(yes_id=5, no_id=6, **common)
    return Seq2SeqClassifier(yes_id=5, no_id=6, start_id=2, **common)


@pytest.mark.parametrize("kind", ["encoder", "moe", "decoder", "seq2seq"])
def test_classifier_parameters(kind):
    model = _classifier(kind)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 12, size=(BATCH, LENGTH))
    pad = _padding(rng)
    flags = rng.integers(0, 3, size=(BATCH, LENGTH))
    labels = np.array([0, 1, 1])
    check_parameter_gradients(model, lambda: F.cross_entropy(model(ids, pad, flags), labels))
