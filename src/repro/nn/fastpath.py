"""Fused kernels over raw numpy arrays, shared by training and inference.

The autograd :class:`~repro.nn.tensor.Tensor` pays, on every op, for a
``Tensor`` allocation, a backward closure and a parents tuple.  This
module holds the forward arithmetic of the :mod:`repro.nn` layers as
fused ndarray kernels with in-place temporaries where safe, plus the
shared mask caches.  Both execution paths run them:

* **training** — the fused autograd ops of :mod:`repro.nn.functional`
  (``linear``, ``layer_norm``, ``attention``, ``gelu``, ``softmax``)
  compute their forward with the kernels here and add one hand-written
  backward each, so every transformer sub-layer is one graph node;
* **inference** — the no-grad entry points below (``encoder_forward``,
  ``decoder_forward``, and each classifier's ``infer_logits``) chain the
  same kernels with no graph at all.

Parity tiers (pinned by ``tests/nn/test_fastpath.py``,
``tests/models/test_fastpath_parity.py`` and
``tests/nn/test_train_parity.py``, which keeps the earlier composite
``Tensor`` chains as test-only references):

* **float64 inference equals the training forward bit for bit.**  Both
  paths call the same kernels, so ``infer_logits`` at ``np.float64``
  equals the ``Tensor`` forward to the last bit.
* **Fused op vs the composite chain it replaced, per op:**

  - attention core (scale, mask, softmax, context): forward and the
    ``q``/``k``/``v`` gradients bit-identical.  Causal and padding masks
    are joined into one boolean mask; hiding a key twice or once gives
    the same scores;
  - ``layer_norm``: forward and the gain/bias gradients bit-identical;
    the input gradient (one closed form instead of a chain) within
    ``rtol=1e-10``;
  - ``linear``: all leading dims collapse into one GEMM.  At the
    training lengths (48 and 64) the forward and the input/bias
    gradients are bit-identical to the batched ``@``, and the weight
    gradient (one GEMM over every row instead of a per-batch sum) is
    within ``rtol=1e-10``.  BLAS picks its kernel by matrix shape, so
    for short sequences, the seq2seq decoder's single start token among
    them, the collapsed and batched GEMMs can differ in the last bit.
    float64 inference collapses the same way; float32 inference keeps
    the batched ``@`` (see :func:`linear`);
  - ``gelu``: the cube is ``x*x*x`` instead of libm ``pow`` (1 ulp), so
    forward and gradient are within ``rtol=1e-10``;
  - ``softmax``: unchanged, bit-identical;
  - position-table and slice gradients: bit-identical.  The position
    table gets the batch sum of one broadcast slice, and a slice's
    gradient is assigned instead of scattered; the token and flag tables
    keep ``np.add.at``.

* **float32 parity is documented, not exact.**  Weights are cast once
  per parameter (cached; see below) and the whole forward runs in
  single precision.  Logits agree with the float64 path within
  ``FLOAT32_RTOL``/``FLOAT32_ATOL``; at the surrogate scales in
  :mod:`repro.config` the resulting match *predictions* are unchanged.
* **Eval mode only** for the no-grad entry points.  They skip dropout
  unconditionally, so they refuse modules left in training mode.

Weight-cast caching: the float32 copies are memoised per module under
the :data:`CAST_CACHE_ATTR` attribute and invalidated whenever the
module re-enters training mode (``Module.train``) or loads a state dict
— the only two ways this codebase mutates fitted weights between
evaluations.

Mask caching: causal masks are memoised per ``(q_len, k_len)`` shape in
:func:`causal_mask` (shared across every layer of every stack), and key
padding masks are validated/broadcast **once per stack forward** into a
:class:`PreparedPaddingMask` instead of once per attention call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "MASK_VALUE",
    "FLOAT32_RTOL",
    "FLOAT32_ATOL",
    "CAST_CACHE_ATTR",
    "causal_mask",
    "PreparedPaddingMask",
    "cast_param",
    "invalidate_casts",
    "softmax",
    "softmax_",
    "gelu_tanh",
    "gelu_",
    "normalize",
    "layer_norm",
    "affine",
    "linear",
    "split_heads",
    "merge_heads",
    "attention_mask",
    "attention_weights",
    "attention",
    "check_length",
    "stem",
    "encoder_forward",
    "decoder_forward",
]

#: Large negative logit used to mask out attention positions (the single
#: source; :mod:`repro.nn.attention` imports it from here).
MASK_VALUE = -1e9

#: Documented float32-vs-float64 logit tolerance (see module docstring).
FLOAT32_RTOL = 1e-3
FLOAT32_ATOL = 1e-3

#: Module attribute under which per-dtype weight casts are memoised.
CAST_CACHE_ATTR = "_fp_cast_cache"


# -- shared mask caches -------------------------------------------------------


@lru_cache(maxsize=256)
def causal_mask(q_len: int, k_len: int) -> np.ndarray:
    """The ``(1, 1, q_len, k_len)`` upper-triangular mask, memoised.

    Read-only: the array is shared across every causal attention call of
    the process (all layers of all decoder stacks hit the same shapes).
    """
    mask = np.triu(np.ones((q_len, k_len), dtype=bool), k=1)[None, None, :, :]
    mask.setflags(write=False)
    return mask


class PreparedPaddingMask:
    """A key-padding mask validated and broadcast once per stack forward.

    Attention stacks re-apply the *same* ``(batch, k_len)`` mask in every
    layer; preparing it once saves the per-call validation, dtype
    conversion and ``(batch, 1, 1, k_len)`` broadcast.  Attention calls
    receiving a prepared mask only cheaply re-check that its shape still
    matches theirs.
    """

    __slots__ = ("mask", "batch", "k_len")

    def __init__(self, mask: np.ndarray, batch: int, k_len: int) -> None:
        """Wrap an already-broadcast ``(batch, 1, 1, k_len)`` bool mask."""
        self.mask = mask
        self.batch = batch
        self.k_len = k_len

    @classmethod
    def prepare(cls, raw: "np.ndarray | PreparedPaddingMask", batch: int, k_len: int) -> "PreparedPaddingMask":
        """Validate a raw ``(batch, k_len)`` mask and broadcast it for scores."""
        if isinstance(raw, PreparedPaddingMask):
            raw.check(batch, k_len)
            return raw
        arr = np.asarray(raw, dtype=bool)
        if arr.shape != (batch, k_len):
            raise ConfigurationError(
                f"key_padding_mask shape {arr.shape} != ({batch}, {k_len})"
            )
        return cls(arr[:, None, None, :], batch, k_len)

    def check(self, batch: int, k_len: int) -> None:
        """Assert this mask was prepared for the caller's shape."""
        if self.batch != batch or self.k_len != k_len:
            raise ConfigurationError(
                f"prepared padding mask is ({self.batch}, {self.k_len}); "
                f"attention needs ({batch}, {k_len})"
            )


# -- weight casts -------------------------------------------------------------


def cast_param(module: object, name: str, dtype: np.dtype) -> np.ndarray:
    """``module.<name>.data`` cast to ``dtype``, memoised on the module.

    float64 (the storage dtype) is returned as-is.  Casts are cached
    under :data:`CAST_CACHE_ATTR` and dropped by ``Module.train()`` /
    ``load_state_dict()`` — the points where weights may change.
    """
    data = getattr(module, name).data
    if dtype == np.float64:
        return data
    cache = module.__dict__.setdefault(CAST_CACHE_ATTR, {})
    hit = cache.get(name)
    if hit is None or hit.dtype != dtype:
        hit = data.astype(dtype)
        cache[name] = hit
    return hit


def invalidate_casts(module: object) -> None:
    """Drop every memoised weight cast of ``module`` and its submodules."""
    for sub in module.modules():
        sub.__dict__.pop(CAST_CACHE_ATTR, None)


# -- fused elementwise kernels ------------------------------------------------


def softmax_(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """In-place softmax along ``axis`` (the caller must own ``x``)."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` into a fresh array (input untouched)."""
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """``tanh(c (x + 0.044715 x^3))``, GELU's inner term, as a fresh array.

    The cube is ``x*x*x``: libm ``pow`` costs about a hundred times more
    per element and differs from it by at most an ulp.
    """
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _GELU_C
    np.tanh(inner, out=inner)
    return inner


def gelu_(x: np.ndarray) -> np.ndarray:
    """Fused tanh-approximation GELU into one fresh array (``x`` is read only).

    Bit-identical to :func:`repro.nn.functional.gelu`'s forward, which
    finishes the same :func:`gelu_tanh` with the same three ops.
    """
    out = gelu_tanh(x)
    out += 1.0
    out *= x
    out *= 0.5
    return out


def normalize(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """``(x - mean) / sqrt(var + eps)`` over the last axis.

    Returns the normalised array and the reciprocal standard deviation
    (shape ``(..., 1)``), which the layer-norm backward reuses.
    """
    dim = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True)
    mu *= 1.0 / dim
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True)
    var *= 1.0 / dim
    var += eps
    np.power(var, -0.5, out=var)
    centered *= var
    return centered, var


def layer_norm(module: object, x: np.ndarray) -> np.ndarray:
    """LayerNorm over the last axis, mirroring ``LayerNorm.forward``."""
    normed, _rstd = normalize(x, module.eps)
    normed *= cast_param(module, "gain", x.dtype)
    normed += cast_param(module, "bias", x.dtype)
    return normed


def affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``x @ weight + bias`` with every leading dim of ``x`` in one GEMM."""
    out = x.reshape(-1, x.shape[-1]) @ weight
    out += bias
    return out.reshape(x.shape[:-1] + weight.shape[1:])


def linear(module: object, x: np.ndarray) -> np.ndarray:
    """Affine map ``x W + b`` with weights cast to ``x``'s dtype.

    float64 runs :func:`affine`, the training forward, so the two stay
    bit-identical.  float32 only promises a tolerance and keeps the
    batched ``@``: one GEMM over a 128-pair batch crosses OpenBLAS's
    threading threshold and wakes a second BLAS thread, which raised a
    routed server's peak memory by ~3.5% and bought no measured speed.
    """
    weight = cast_param(module, "weight", x.dtype)
    bias = cast_param(module, "bias", x.dtype)
    if x.dtype == np.float64:
        return affine(x, weight, bias)
    out = x @ weight
    out += bias
    return out


# -- attention ----------------------------------------------------------------


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """``(B, T, D)`` -> a ``(B, H, T, D / H)`` view."""
    batch, length, dim = x.shape
    return x.reshape(batch, length, n_heads, dim // n_heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """``(B, H, T, d)`` -> ``(B, T, H * d)``, C-contiguous."""
    batch, n_heads, length, head_dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, length, n_heads * head_dim)


def attention_mask(
    attn: object,
    batch: int,
    q_len: int,
    k_len: int,
    key_padding_mask: "np.ndarray | PreparedPaddingMask | None",
) -> np.ndarray | None:
    """The boolean mask of keys hidden from ``attn``'s scores, or ``None``.

    Causal and padding masks are joined into one array, so the scores are
    masked in one pass.  ``key_padding_mask`` may be raw ``(batch, k_len)``
    or already prepared by the enclosing stack; either way it is checked
    against the shape.
    """
    mask = causal_mask(q_len, k_len) if attn.causal else None
    if key_padding_mask is not None:
        padding = PreparedPaddingMask.prepare(key_padding_mask, batch, k_len).mask
        mask = padding if mask is None else mask | padding
    return mask


def attention_weights(
    q: np.ndarray, k: np.ndarray, scale: float, mask: np.ndarray | None
) -> np.ndarray:
    """Masked softmax of ``q k^T * scale`` over heads-split arrays, fresh."""
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    if mask is not None:
        np.copyto(scores, MASK_VALUE, where=mask)
    return softmax_(scores)


def attention(
    attn: object,
    x: np.ndarray,
    kv: np.ndarray | None = None,
    key_padding_mask: "np.ndarray | PreparedPaddingMask | None" = None,
) -> np.ndarray:
    """Fused multi-head attention mirroring ``MultiHeadAttention.forward``.

    The stack forwards pass ``key_padding_mask`` prepared once and reused
    across layers; a raw mask is validated here.
    """
    source = kv if kv is not None else x
    q = split_heads(linear(attn.q_proj, x), attn.n_heads)
    k = split_heads(linear(attn.k_proj, source), attn.n_heads)
    v = split_heads(linear(attn.v_proj, source), attn.n_heads)
    mask = attention_mask(attn, x.shape[0], q.shape[2], k.shape[2], key_padding_mask)
    weights = attention_weights(q, k, 1.0 / np.sqrt(attn.head_dim), mask)
    return linear(attn.out_proj, merge_heads(weights @ v))


# -- embedding stem and transformer stacks ------------------------------------


def _check_ids(ids: np.ndarray, n_embeddings: int) -> None:
    """Replicate ``Embedding.forward``'s id-range validation."""
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= n_embeddings:
        raise ConfigurationError(f"embedding ids out of range [0, {n_embeddings})")


def check_length(length: int, max_len: int) -> None:
    """Refuse sequences longer than the position table, as ``Embedding`` would."""
    if length > max_len:
        raise ConfigurationError(f"embedding ids out of range [0, {max_len})")


def stem(
    module: object,
    ids: np.ndarray,
    flags: np.ndarray | None,
    dtype: np.dtype,
) -> np.ndarray:
    """Token + positional (+ flag) embedding sum (``_EmbeddingStem``, eval)."""
    ids = np.asarray(ids, dtype=np.int64)
    _check_ids(ids, module.tokens.weight.shape[0])
    length = ids.shape[1]
    check_length(length, module.positions.weight.shape[0])
    x = cast_param(module.tokens, "weight", dtype)[ids]
    x += cast_param(module.positions, "weight", dtype)[:length]
    if flags is not None:
        flags = np.asarray(flags, dtype=np.int64)
        _check_ids(flags, module.flags.weight.shape[0])
        x += cast_param(module.flags, "weight", dtype)[flags]
    return x


def _require_eval(module: object) -> None:
    """The fast path skips dropout, so training-mode modules are refused."""
    if getattr(module, "training", False):
        raise ConfigurationError(
            "inference fast path requires eval mode; call model.eval() first"
        )


def _ffn(layer: object, x: np.ndarray) -> np.ndarray:
    """Position-wise feed-forward (``FeedForward.forward``)."""
    return linear(layer.down, gelu_(linear(layer.up, x)))


def encoder_forward(
    encoder: object,
    ids: np.ndarray,
    key_padding_mask: np.ndarray | None = None,
    flags: np.ndarray | None = None,
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Fused ``TransformerEncoder.forward`` over raw arrays."""
    _require_eval(encoder)
    ids = np.asarray(ids, dtype=np.int64)
    prepared = (
        PreparedPaddingMask.prepare(key_padding_mask, ids.shape[0], ids.shape[1])
        if key_padding_mask is not None
        else None
    )
    x = stem(encoder.stem, ids, flags, dtype)
    for block in encoder.blocks:
        attended = attention(block.attn, layer_norm(block.norm1, x), key_padding_mask=prepared)
        attended += x
        x = attended
        fed = _ffn(block.ffn, layer_norm(block.norm2, x))
        fed += x
        x = fed
    return layer_norm(encoder.final_norm, x)


def decoder_forward(
    decoder: object,
    ids: np.ndarray,
    memory: np.ndarray | None = None,
    key_padding_mask: np.ndarray | None = None,
    memory_padding_mask: np.ndarray | None = None,
    flags: np.ndarray | None = None,
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Fused ``TransformerDecoder.hidden`` (pre-LM-head representations)."""
    _require_eval(decoder)
    ids = np.asarray(ids, dtype=np.int64)
    batch, length = ids.shape
    prepared = (
        PreparedPaddingMask.prepare(key_padding_mask, batch, length)
        if key_padding_mask is not None
        else None
    )
    prepared_memory = (
        PreparedPaddingMask.prepare(memory_padding_mask, batch, memory.shape[1])
        if memory_padding_mask is not None and memory is not None
        else None
    )
    x = stem(decoder.stem, ids, flags, dtype)
    for block in decoder.blocks:
        attended = attention(
            block.self_attn, layer_norm(block.norm1, x), key_padding_mask=prepared
        )
        attended += x
        x = attended
        if block.cross_attn is not None:
            if memory is None:
                raise ValueError("decoder layer built with cross attention needs memory")
            crossed = attention(
                block.cross_attn,
                layer_norm(block.norm_cross, x),
                kv=memory,
                key_padding_mask=prepared_memory,
            )
            crossed += x
            x = crossed
        fed = _ffn(block.ffn, layer_norm(block.norm2, x))
        fed += x
        x = fed
    return layer_norm(decoder.final_norm, x)
