"""Functional operations built on the autograd :class:`~repro.nn.tensor.Tensor`.

Each op here is one graph node with a hand-written backward.  The
transformer sub-layers (``linear``, ``layer_norm``, ``attention``,
``gelu``, ``softmax``) take their forward arithmetic from the shared
kernels of :mod:`repro.nn.fastpath`, so the training forward and the
no-grad inference path compute the same bits; the parity tier of each
op against the composite chain it replaced is listed there.
"""

from __future__ import annotations

import numpy as np

from ..errors import GradientError
from . import fastpath
from .fastpath import _GELU_C
from .tensor import Tensor

__all__ = [
    "linear",
    "layer_norm",
    "attention",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "gelu",
    "dropout",
    "sigmoid",
]


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` with every leading dim of ``x`` in one GEMM."""
    x2d = x.data.reshape(-1, x.shape[-1])
    out_data = fastpath.affine(x.data, weight.data, bias.data)

    def backward(grad: np.ndarray) -> None:
        grad2d = grad.reshape(-1, grad.shape[-1])
        if x.requires_grad:
            x._accumulate((grad2d @ weight.data.T).reshape(x.shape), owned=True)
        if weight.requires_grad:
            weight._accumulate(x2d.T @ grad2d, owned=True)
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=tuple(range(grad.ndim - 1))), owned=True)

    return x._make(out_data, (x, weight, bias), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Layer normalisation over the last axis, scaled by ``gain`` plus ``bias``."""
    normed, rstd = fastpath.normalize(x.data, eps)
    out_data = normed * gain.data
    out_data += bias.data

    def backward(grad: np.ndarray) -> None:
        axes = tuple(range(grad.ndim - 1))
        if gain.requires_grad:
            gain._accumulate((grad * normed).sum(axis=axes), owned=True)
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=axes), owned=True)
        if x.requires_grad:
            # dx = rstd * (g - mean(g) - normed * mean(g * normed)), g = grad * gain
            inv_dim = 1.0 / x.shape[-1]
            g = grad * gain.data
            mean_g = g.sum(axis=-1, keepdims=True)
            mean_g *= inv_dim
            mean_gn = (g * normed).sum(axis=-1, keepdims=True)
            mean_gn *= inv_dim
            g -= mean_g
            g -= normed * mean_gn
            g *= rstd
            x._accumulate(g, owned=True)

    return x._make(out_data, (x, gain, bias), backward)


def attention(
    q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask: np.ndarray | None = None
) -> Tensor:
    """Multi-head attention core over projected ``(B, T, D)`` tensors.

    Splits heads, scales the scores by ``1/sqrt(D/H)``, hides the keys
    where ``mask`` (broadcastable to ``(B, H, Tq, Tk)``) is ``True``,
    softmaxes and applies the weights to ``v``; returns the merged
    ``(B, Tq, D)`` context.
    """
    qh, kh, vh = (fastpath.split_heads(t.data, n_heads) for t in (q, k, v))
    scale = 1.0 / np.sqrt(qh.shape[-1])
    weights = fastpath.attention_weights(qh, kh, scale, mask)
    out_data = fastpath.merge_heads(weights @ vh)

    def backward(grad: np.ndarray) -> None:
        grad_context = np.ascontiguousarray(fastpath.split_heads(grad, n_heads))
        if v.requires_grad:
            v._accumulate(
                fastpath.merge_heads(np.swapaxes(weights, -1, -2) @ grad_context), owned=True
            )
        # Softmax backward, then the mask zeroes what it hid, then the scale.
        g = grad_context @ np.swapaxes(vh, -1, -2)
        g -= (g * weights).sum(axis=-1, keepdims=True)
        g *= weights
        if mask is not None:
            np.copyto(g, 0.0, where=mask)
        g *= scale
        if q.requires_grad:
            q._accumulate(fastpath.merge_heads(g @ kh), owned=True)
        if k.requires_grad:
            grad_kt = np.swapaxes(qh, -1, -2) @ g
            k._accumulate(fastpath.merge_heads(np.swapaxes(grad_kt, -1, -2)), owned=True)

    return q._make(out_data, (q, k, v), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    out_data = fastpath.softmax(x.data, axis=axis)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot), owned=True)

    return x._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log of the softmax along ``axis``, computed stably."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm

    def backward(grad: np.ndarray) -> None:
        soft = np.exp(out_data)
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True), owned=True)

    return x._make(out_data, (x,), backward)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: int | None = None,
) -> Tensor:
    """Mean cross-entropy of integer targets against ``logits``.

    ``logits`` has shape ``(..., n_classes)`` and ``targets`` the matching
    leading shape.  Positions equal to ``ignore_index`` contribute nothing
    (used to mask padding when training the decoder surrogates).
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise GradientError(
            f"target shape {targets.shape} does not match logits {logits.shape[:-1]}"
        )
    n_classes = logits.shape[-1]
    flat_logits = logits.data.reshape(-1, n_classes)
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        keep = flat_targets != ignore_index
    else:
        keep = np.ones(flat_targets.shape, dtype=bool)
    n_kept = int(keep.sum())
    if n_kept == 0:
        raise GradientError("cross_entropy: every target position is ignored")

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_norm
    safe_targets = np.where(keep, flat_targets, 0)
    picked = log_probs[np.arange(flat_targets.size), safe_targets]
    loss_value = -(picked * keep).sum() / n_kept

    def backward(grad: np.ndarray) -> None:
        soft = np.exp(log_probs)
        soft[np.arange(flat_targets.size), safe_targets] -= 1.0
        soft *= keep[:, None] / n_kept
        logits._accumulate(float(grad) * soft.reshape(logits.shape), owned=True)

    return logits._make(np.asarray(loss_value), (logits,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function."""
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * out_data * (1.0 - out_data), owned=True)

    return x._make(out_data, (x,), backward)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable mean BCE against 0/1 targets."""
    targets = np.asarray(targets, dtype=np.float64)
    z = logits.data
    loss_value = np.mean(np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z))))

    def backward(grad: np.ndarray) -> None:
        probs = 1.0 / (1.0 + np.exp(-z))
        logits._accumulate(float(grad) * (probs - targets) / z.size, owned=True)

    return logits._make(np.asarray(loss_value), (logits,), backward)


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation (as in GPT-2/BERT)."""
    tanh_inner = fastpath.gelu_tanh(x.data)
    out_data = tanh_inner + 1.0
    out_data *= x.data
    out_data *= 0.5

    def backward(grad: np.ndarray) -> None:
        sech2 = 1.0 - tanh_inner ** 2
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x.data ** 2)
        x._accumulate(
            grad * (0.5 * (1.0 + tanh_inner) + 0.5 * x.data * sech2 * d_inner), owned=True
        )

    return x._make(out_data, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise GradientError("dropout probability must be < 1")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask, owned=True)

    return x._make(x.data * mask, (x,), backward)
