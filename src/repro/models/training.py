"""Shared fine-tuning loop for the surrogate pair classifiers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import StudyConfig
from ..errors import ConfigurationError, MatcherError
from ..nn import AdamW, LinearWarmupSchedule, Module, clip_grad_norm, fastpath
from ..nn import functional as F
from ..obs.trace import span

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


def length_buckets(lengths: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Index batches grouping items of similar length (padding reduction).

    Items are stable-sorted by ``lengths`` and cut into consecutive groups
    of ``batch_size``, so each batch only pays for its own longest member
    instead of the global maximum.  The concatenation of the returned
    index arrays is a permutation of ``range(len(lengths))``; callers
    scatter results back through it to restore submission order.

    >>> [list(b) for b in length_buckets([5, 1, 4, 2], 2)]
    [[1, 3], [2, 0]]
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    order = np.argsort(np.asarray(lengths), kind="stable")
    return [order[start:start + batch_size] for start in range(0, order.size, batch_size)]


def predict_proba(model: Module, data: EncodedPairs, batch_size: int = 128) -> np.ndarray:
    """Match probabilities P(label=1) for each pair, shape (n,).

    The one inference path: pairs are grouped by token length
    (:func:`length_buckets`), each batch is trimmed to its own longest
    member, and ``model.infer_logits`` runs the fused no-grad kernels of
    :mod:`repro.nn.fastpath` in float32.  The probabilities agree with
    the float64 autograd forward ``model(ids, pad_mask, shared)`` within
    ``FLOAT32_RTOL``/``FLOAT32_ATOL`` and are scattered back to input
    order, so the returned array lines up with ``data``.
    """
    model.eval()
    n = len(data)
    if n == 0:
        return np.zeros(0)
    batches = length_buckets((~data.pad_mask).sum(axis=1), batch_size)
    out = np.zeros(n)
    with span(
        "infer.logits",
        model=type(model).__name__,
        pairs=n,
        batches=len(batches),
        dtype="float32",
    ):
        for idx in batches:
            batch = data.take(idx)
            # Trim pure-padding columns: every row keeps at least one
            # attended position (the encoders guarantee column 0), and
            # fully-masked keys contribute exactly zero attention weight,
            # so trimming never changes the kept outputs.
            width = max(1, int((~batch.pad_mask).sum(axis=1).max(initial=0)))
            shared = batch.shared[:, :width] if batch.shared is not None else None
            logits = model.infer_logits(
                batch.ids[:, :width], batch.pad_mask[:, :width], shared, dtype=np.float32
            )
            out[idx] = fastpath.softmax_(logits)[:, 1]
    return out
