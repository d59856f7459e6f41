"""Fused training ops against the composite ``Tensor`` chains they replaced.

Each ``_composite_*`` / ``_Reference*`` below is the earlier implementation
of a layer, kept here only as a test reference: ``Linear``, ``LayerNorm``
and ``MultiHeadAttention`` as chains of small ``Tensor`` ops, GELU with its
cube through ``pow``, the embedding stem and slice gradients through a dense
``np.add.at``, and ``AdamW``/``clip_grad_norm`` allocating per op.  They run
on random float64 inputs at the training shapes of the smoke profile
(batch 32, length 48, width 32, two heads).

Two tiers, as documented in :mod:`repro.nn.fastpath`:

* ``np.array_equal``: the attention core (forward and every gradient),
  ``layer_norm`` forward and gain/bias gradients, ``linear`` forward and
  input/bias gradients on 3-D inputs, the scatter rewrites, ``AdamW.step``
  and ``clip_grad_norm``;
* ``assert_allclose(rtol=1e-10, atol=1e-12)``: ``layer_norm``'s input
  gradient, ``linear``'s weight gradient, GELU, and every parameter after
  five optimizer steps of each classifier family from one init.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.models.training as training
from repro.config import StudyConfig, SurrogateScale
from repro.models import (
    CausalLMClassifier,
    EncodedPairs,
    EncoderClassifier,
    MoEClassifier,
    Seq2SeqClassifier,
    train_classifier,
)
from repro.nn import AdamW, LayerNorm, Linear, MultiHeadAttention, Parameter, clip_grad_norm
from repro.nn import functional as F
from repro.nn.fastpath import MASK_VALUE, PreparedPaddingMask, causal_mask
from repro.nn.tensor import Tensor
from repro.nn.transformer import _EmbeddingStem

RTOL, ATOL = 1e-10, 1e-12
BATCH, LENGTH, DIM, HEADS = 32, 48, 32, 2
_GELU_C = float(np.sqrt(2.0 / np.pi))


# -- the composite references -------------------------------------------------


def _composite_linear(self, x: Tensor) -> Tensor:
    return x @ self.weight + self.bias


def _composite_layer_norm(self, x: Tensor) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered * (var + self.eps) ** -0.5
    return normed * self.gain + self.bias


def _composite_core(q, k, v, n_heads, masks):
    """Scale, mask, softmax and context as separate ``Tensor`` ops."""
    batch, q_len, dim = q.shape
    head_dim = dim // n_heads

    def split(t):
        return t.reshape(batch, t.shape[1], n_heads, head_dim).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q), split(k), split(v)
    scores = (qh @ kh.swapaxes(-1, -2)) * (1.0 / np.sqrt(head_dim))
    for mask in masks:
        scores = scores.masked_fill(mask, MASK_VALUE)
    context = F.softmax(scores, axis=-1) @ vh
    return context.transpose(0, 2, 1, 3).reshape(batch, q_len, dim)


def _composite_attention(self, x, kv=None, key_padding_mask=None):
    source = kv if kv is not None else x
    masks = []
    if self.causal:
        masks.append(causal_mask(x.shape[1], source.shape[1]))
    if key_padding_mask is not None:
        masks.append(
            PreparedPaddingMask.prepare(key_padding_mask, x.shape[0], source.shape[1]).mask
        )
    context = _composite_core(
        self.q_proj(x), self.k_proj(source), self.v_proj(source), self.n_heads, masks
    )
    return self.out_proj(context)


def _pow_gelu(x: Tensor) -> Tensor:
    """GELU with the cube through ``pow``."""
    inner = _GELU_C * (x.data + 0.044715 * x.data ** 3)
    tanh_inner = np.tanh(inner)
    out_data = 0.5 * x.data * (1.0 + tanh_inner)

    def backward(grad):
        sech2 = 1.0 - tanh_inner ** 2
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x.data ** 2)
        x._accumulate(grad * (0.5 * (1.0 + tanh_inner) + 0.5 * x.data * sech2 * d_inner))

    return x._make(out_data, (x,), backward)


def _add_at_getitem(self, index):
    """Every index, slices included, scattered through a dense ``np.add.at``."""
    out_data = self.data[index]

    def backward(grad):
        full = np.zeros_like(self.data)
        np.add.at(full, index, grad)
        self._accumulate(full)

    return self._make(np.asarray(out_data), (self,), backward)


def _composite_stem(self, ids, flags=None):
    ids = np.asarray(ids, dtype=np.int64)
    positions = np.broadcast_to(np.arange(ids.shape[1]), ids.shape)
    x = self.tokens(ids) + self.positions(positions)
    if flags is not None:
        x = x + self.flags(np.asarray(flags, dtype=np.int64))
    return self.drop(x)


def _reference_clip_grad_norm(parameters, max_norm):
    total = 0.0
    for p in parameters:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm > 0.0:
        scale = max_norm / (norm + 1e-12)
        for p in parameters:
            if p.grad is not None:
                p.grad *= scale
    return norm


class _ReferenceAdamW:
    """AdamW allocating a fresh array per op, decay loop then Adam loop."""

    def __init__(self, parameters, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def zero_grad(self):
        for p in self.parameters:
            p.grad = None

    def step(self):
        if self.weight_decay > 0.0:
            for p in self.parameters:
                if p.grad is not None:
                    p.data -= self.lr * self.weight_decay * p.data
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@pytest.fixture
def composite(monkeypatch):
    """Swap every fused layer, scatter and optimizer for its reference."""
    monkeypatch.setattr(Linear, "forward", _composite_linear)
    monkeypatch.setattr(LayerNorm, "forward", _composite_layer_norm)
    monkeypatch.setattr(MultiHeadAttention, "forward", _composite_attention)
    monkeypatch.setattr(F, "gelu", _pow_gelu)
    monkeypatch.setattr(Tensor, "__getitem__", _add_at_getitem)
    monkeypatch.setattr(_EmbeddingStem, "forward", _composite_stem)
    monkeypatch.setattr(training, "AdamW", _ReferenceAdamW)
    monkeypatch.setattr(training, "clip_grad_norm", _reference_clip_grad_norm)


# -- helpers ------------------------------------------------------------------


def _leaf(array):
    return Tensor(array.copy(), requires_grad=True)


def _grads(fn, arrays, upstream):
    """Output and input gradients of ``fn`` under the upstream gradient."""
    leaves = [_leaf(a) for a in arrays]
    out = fn(*leaves)
    out.backward(upstream)
    return out.numpy(), [leaf.grad for leaf in leaves]


def _padding(rng, batch, length):
    lengths = rng.integers(length // 2, length + 1, size=batch)
    return np.arange(length)[None, :] >= lengths[:, None]


# -- per-op parity ------------------------------------------------------------


class TestAttentionCore:
    @pytest.mark.parametrize("kind", ["padded", "causal", "cross", "cross_query_1"])
    def test_forward_and_every_gradient_bit_identical(self, kind):
        rng = np.random.default_rng(0)
        k_len = {"cross": 40, "cross_query_1": 40}.get(kind, LENGTH)
        q_len = 1 if kind == "cross_query_1" else LENGTH
        q = rng.normal(size=(BATCH, q_len, DIM))
        k = rng.normal(size=(BATCH, k_len, DIM))
        v = rng.normal(size=(BATCH, k_len, DIM))
        masks = [PreparedPaddingMask.prepare(_padding(rng, BATCH, k_len), BATCH, k_len).mask]
        if kind == "causal":
            masks.insert(0, causal_mask(q_len, k_len))
        upstream = rng.normal(size=(BATCH, q_len, DIM))

        joined = masks[0] if len(masks) == 1 else masks[0] | masks[1]
        fused = _grads(lambda a, b, c: F.attention(a, b, c, HEADS, joined), (q, k, v), upstream)
        reference = _grads(
            lambda a, b, c: _composite_core(a, b, c, HEADS, masks), (q, k, v), upstream
        )
        assert np.array_equal(fused[0], reference[0])
        for got, want in zip(fused[1], reference[1]):
            assert np.array_equal(got, want)


class TestLayerNorm:
    def test_tiers(self):
        rng = np.random.default_rng(1)
        norm = LayerNorm(DIM)
        gain, bias = rng.normal(size=DIM), rng.normal(size=DIM)
        x = rng.normal(2.0, 3.0, size=(BATCH, LENGTH, DIM))
        upstream = rng.normal(size=x.shape)

        def run(forward):
            norm.gain, norm.bias = Parameter(gain.copy()), Parameter(bias.copy())
            out, (grad_x,) = _grads(lambda t: forward(norm, t), (x,), upstream)
            return out, grad_x, norm.gain.grad, norm.bias.grad

        fused, reference = run(LayerNorm.forward), run(_composite_layer_norm)
        assert np.array_equal(fused[0], reference[0])
        assert np.array_equal(fused[2], reference[2])
        assert np.array_equal(fused[3], reference[3])
        np.testing.assert_allclose(fused[1], reference[1], rtol=RTOL, atol=ATOL)


class TestLinear:
    @pytest.mark.parametrize("shape", [(BATCH, LENGTH, DIM), (BATCH, DIM)])
    def test_tiers(self, shape):
        rng = np.random.default_rng(2)
        layer = Linear(DIM, 64, rng)
        weight, bias = layer.weight.data.copy(), rng.normal(size=64)
        x = rng.normal(size=shape)
        upstream = rng.normal(size=shape[:-1] + (64,))

        def run(forward):
            layer.weight, layer.bias = Parameter(weight.copy()), Parameter(bias.copy())
            out, (grad_x,) = _grads(lambda t: forward(layer, t), (x,), upstream)
            return out, grad_x, layer.weight.grad, layer.bias.grad

        fused, reference = run(Linear.forward), run(_composite_linear)
        assert np.array_equal(fused[0], reference[0])
        assert np.array_equal(fused[1], reference[1])
        assert np.array_equal(fused[3], reference[3])
        np.testing.assert_allclose(fused[2], reference[2], rtol=RTOL, atol=ATOL)


class TestGelu:
    def test_within_tolerance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(scale=3.0, size=(BATCH, LENGTH, 64))
        upstream = rng.normal(size=x.shape)
        fused = _grads(F.gelu, (x,), upstream)
        reference = _grads(_pow_gelu, (x,), upstream)
        np.testing.assert_allclose(fused[0], reference[0], rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(fused[1][0], reference[1][0], rtol=RTOL, atol=ATOL)


class TestScatterRewrites:
    def test_stem_table_gradients_bit_identical(self, monkeypatch):
        """The position table's batch sum and slice assignment vs add.at."""
        ids = np.random.default_rng(4).integers(0, 64, size=(BATCH, LENGTH))
        flags = np.random.default_rng(5).integers(0, 3, size=(BATCH, LENGTH))
        upstream = np.random.default_rng(6).normal(size=(BATCH, LENGTH, DIM))

        def run():
            stem = _EmbeddingStem(64, DIM, LENGTH + 8, np.random.default_rng(7), dropout=0.0)
            out = stem(ids, flags)
            out.backward(upstream)
            return out.numpy(), [p.grad for p in stem.parameters()]

        fused = run()
        monkeypatch.setattr(_EmbeddingStem, "forward", _composite_stem)
        reference = run()
        assert np.array_equal(fused[0], reference[0])
        for got, want in zip(fused[1], reference[1]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "index", [(slice(None), 0, slice(None)), (Ellipsis, 3), (slice(2, 9),), 5]
    )
    def test_slice_gradient_bit_identical(self, index):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(BATCH, LENGTH, DIM))
        upstream = rng.normal(size=x[index].shape)
        fused = _grads(lambda t: t[index], (x,), upstream)
        reference = _grads(lambda t: _add_at_getitem(t, index), (x,), upstream)
        assert np.array_equal(fused[1][0], reference[1][0])


class TestOptimizer:
    def _params(self, rng):
        shapes = [(4096, DIM), (48, DIM), (DIM, DIM), (DIM,), (3, DIM)]
        return [rng.normal(size=shape) for shape in shapes]

    def test_adamw_steps_bit_identical(self):
        rng = np.random.default_rng(9)
        init = self._params(rng)
        grads = [[rng.normal(size=a.shape) for a in init] for _ in range(6)]
        grads[2][1] = None  # a parameter that got no gradient this step
        fused = [Parameter(a.copy()) for a in init]
        reference = [Parameter(a.copy()) for a in init]
        opt, ref_opt = AdamW(fused, lr=3e-3), _ReferenceAdamW(reference, lr=3e-3)
        for step_grads in grads:
            for params, optimizer in ((fused, opt), (reference, ref_opt)):
                for p, g in zip(params, step_grads):
                    p.grad = None if g is None else g.copy()
                optimizer.step()
                optimizer.lr *= 0.5
        for got, want in zip(fused, reference):
            assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("max_norm", [1.0, 1e6])
    def test_clip_grad_norm_bit_identical(self, max_norm):
        rng = np.random.default_rng(10)
        grads = [g * 5.0 for g in self._params(rng)]
        fused = [Parameter(np.zeros(g.shape)) for g in grads]
        reference = [Parameter(np.zeros(g.shape)) for g in grads]
        for p, q, g in zip(fused, reference, grads):
            p.grad, q.grad = g.copy(), g.copy()
        assert clip_grad_norm(fused, max_norm) == _reference_clip_grad_norm(reference, max_norm)
        for p, q in zip(fused, reference):
            assert np.array_equal(p.grad, q.grad)


# -- five optimizer steps per classifier family --------------------------------

_SCALE = SurrogateScale(d_model=DIM, n_layers=2, n_heads=HEADS, d_ff=64, max_len=LENGTH,
                        vocab_size=256)


def _classifier(kind: str):
    rng = np.random.default_rng(11)
    common = dict(vocab_size=_SCALE.vocab_size, dim=_SCALE.d_model,
                  n_layers=_SCALE.n_layers, n_heads=_SCALE.n_heads, d_ff=_SCALE.d_ff,
                  max_len=_SCALE.max_len, rng=rng)
    if kind == "encoder":
        return EncoderClassifier(**common)
    if kind == "moe":
        return MoEClassifier(n_experts=3, **common)
    if kind == "decoder":
        return CausalLMClassifier(yes_id=5, no_id=6, **common)
    return Seq2SeqClassifier(yes_id=5, no_id=6, start_id=2, **common)


def _five_steps(kind: str) -> dict[str, np.ndarray]:
    """Train one classifier for exactly five steps; return its weights."""
    rng = np.random.default_rng(12)
    n = 5 * 8
    ids = rng.integers(0, _SCALE.vocab_size, size=(n, LENGTH))
    pad_mask = _padding(rng, n, LENGTH)
    shared = rng.integers(0, 3, size=(n, LENGTH))
    data = EncodedPairs(ids, pad_mask, rng.integers(0, 2, size=n), shared)
    config = StudyConfig(name="parity", seeds=(0,), epochs=1, batch_size=8,
                         learning_rate=3e-3, surrogate=_SCALE)
    model = _classifier(kind)
    train_classifier(model, data, config, np.random.default_rng(13))
    return model.state_dict()


_FAMILIES = ("encoder", "moe", "decoder", "seq2seq")


@pytest.fixture(scope="module")
def fused_weights():
    return {kind: _five_steps(kind) for kind in _FAMILIES}


@pytest.mark.parametrize("kind", _FAMILIES)
def test_five_steps_match_the_composite_path(kind, fused_weights, composite):
    reference = _five_steps(kind)
    fused = fused_weights[kind]
    assert fused.keys() == reference.keys()
    for name, want in reference.items():
        np.testing.assert_allclose(fused[name], want, rtol=RTOL, atol=ATOL, err_msg=name)
