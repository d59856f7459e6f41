"""Shared fine-tuning loop for the surrogate pair classifiers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import StudyConfig, get_inference_config
from ..errors import MatcherError
from ..nn import AdamW, LinearWarmupSchedule, Module, clip_grad_norm, fastpath, no_grad
from ..nn import functional as F
from ..obs.trace import span
from ..runtime.chunks import length_buckets

__all__ = ["EncodedPairs", "train_classifier", "predict_proba"]


@dataclass
class EncodedPairs:
    """Token ids, padding masks, shared-token flags and labels."""

    ids: np.ndarray           # (n, max_len) int64
    pad_mask: np.ndarray      # (n, max_len) bool, True at padding
    labels: np.ndarray        # (n,) int64 in {0, 1}; may be empty at inference
    shared: np.ndarray | None = None  # (n, max_len) int64 in {0, 1}

    def __post_init__(self) -> None:
        if self.ids.shape != self.pad_mask.shape:
            raise MatcherError("ids and pad_mask shapes differ")
        if self.labels.size and self.labels.shape[0] != self.ids.shape[0]:
            raise MatcherError("labels length differs from ids")
        if self.shared is not None and self.shared.shape != self.ids.shape:
            raise MatcherError("shared flags shape differs from ids")

    def __len__(self) -> int:
        return self.ids.shape[0]

    def take(self, indices: np.ndarray) -> "EncodedPairs":
        labels = self.labels[indices] if self.labels.size else self.labels
        shared = self.shared[indices] if self.shared is not None else None
        return EncodedPairs(self.ids[indices], self.pad_mask[indices], labels, shared)


def train_classifier(
    model: Module,
    data: EncodedPairs,
    config: StudyConfig,
    rng: np.random.Generator,
    learning_rate: float | None = None,
) -> list[float]:
    """Fine-tune a pair classifier; returns the per-epoch mean losses."""
    if len(data) == 0:
        raise MatcherError("cannot train on an empty pair set")
    if not data.labels.size:
        raise MatcherError("training data has no labels")
    model.train()
    optimizer = AdamW(
        model.parameters(),
        lr=config.learning_rate if learning_rate is None else learning_rate,
    )
    n_batches_per_epoch = max(1, int(np.ceil(len(data) / config.batch_size)))
    total_steps = n_batches_per_epoch * config.epochs
    schedule = LinearWarmupSchedule(
        optimizer, warmup_steps=max(1, total_steps // 10), total_steps=total_steps
    )
    epoch_losses: list[float] = []
    for _epoch in range(config.epochs):
        order = rng.permutation(len(data))
        losses: list[float] = []
        for start in range(0, len(data), config.batch_size):
            batch = data.take(order[start:start + config.batch_size])
            logits = model(batch.ids, batch.pad_mask, batch.shared)
            loss = F.cross_entropy(logits, batch.labels)
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(optimizer.parameters, max_norm=1.0)
            schedule.step()
            optimizer.step()
            losses.append(loss.item())
        epoch_losses.append(float(np.mean(losses)))
    model.eval()
    return epoch_losses


def predict_proba(
    model: Module,
    data: EncodedPairs,
    batch_size: int = 128,
    *,
    fast_path: bool | None = None,
    float32: bool | None = None,
    bucket_by_length: bool | None = None,
) -> np.ndarray:
    """Match probabilities P(label=1) for each pair, shape (n,).

    The three keyword knobs default to the active
    :class:`repro.config.InferenceConfig`:

    * ``fast_path`` routes models exposing ``infer_logits`` through the
      fused no-grad kernels of :mod:`repro.nn.fastpath` (byte-identical
      probabilities at float64).
    * ``float32`` runs the fast path in single precision (see the
      tolerance documented in :mod:`repro.nn.fastpath`).
    * ``bucket_by_length`` groups pairs of similar token length and trims
      each batch to its own longest member, instead of padding everything
      to the global ``max_len``.  Results are scattered back to input
      order, so the returned array lines up with ``data`` as before.
    """
    model.eval()
    config = get_inference_config()
    if fast_path is None:
        fast_path = config.fast_path
    if float32 is None:
        float32 = config.float32
    if bucket_by_length is None:
        bucket_by_length = config.bucketing
    use_fast = fast_path and hasattr(model, "infer_logits")
    dtype = np.float32 if (use_fast and float32) else np.float64

    n = len(data)
    if n == 0:
        return np.zeros(0)
    if bucket_by_length:
        lengths = (~data.pad_mask).sum(axis=1)
        batches = length_buckets(lengths, batch_size)
    else:
        batches = [
            np.arange(start, min(start + batch_size, n))
            for start in range(0, n, batch_size)
        ]

    out = np.zeros(n)
    with span(
        "infer.logits",
        model=type(model).__name__,
        pairs=n,
        batches=len(batches),
        fast_path=bool(use_fast),
        dtype=np.dtype(dtype).name,
    ):
        with no_grad():
            for idx in batches:
                batch = data.take(idx)
                ids, pad_mask, shared = batch.ids, batch.pad_mask, batch.shared
                if bucket_by_length:
                    # Trim pure-padding columns: every row keeps at least one
                    # attended position (the encoders guarantee column 0), and
                    # fully-masked keys contribute exactly zero attention
                    # weight, so trimming never changes the kept outputs.
                    width = max(1, int((~pad_mask).sum(axis=1).max(initial=0)))
                    ids = ids[:, :width]
                    pad_mask = pad_mask[:, :width]
                    shared = shared[:, :width] if shared is not None else None
                if use_fast:
                    logits = model.infer_logits(ids, pad_mask, shared, dtype=dtype)
                    probs = fastpath.softmax_(logits)
                else:
                    logits = model(ids, pad_mask, shared)
                    probs = F.softmax(logits, axis=-1).numpy()
                out[idx] = probs[:, 1]
    return out
