"""Optimisers and learning-rate schedules for the fine-tuning experiments."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ConfigurationError
from .layers import Parameter

__all__ = ["SGD", "Adam", "AdamW", "LinearWarmupSchedule", "clip_grad_norm"]


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients in place so the global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for logging divergence).
    """
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


class _Optimizer:
    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ConfigurationError("learning rate must be positive")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ConfigurationError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        """Drop the gradient of every parameter this optimizer updates."""
        for p in self.parameters:
            p.grad = None

    def step(self) -> None:
        """Update every parameter that has a gradient."""
        raise NotImplementedError


class SGD(_Optimizer):
    """Plain SGD with optional momentum."""

    def __init__(self, parameters: Sequence[Parameter], lr: float, momentum: float = 0.0) -> None:
        """Update ``parameters`` at rate ``lr`` with ``momentum`` (0 disables it)."""
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """One SGD update of every parameter with a gradient."""
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            if self.momentum > 0.0:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad


class Adam(_Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        """Update ``parameters`` at rate ``lr`` with moment decays ``betas``."""
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0
        largest = max(p.size for p in self.parameters)
        self._work = (np.empty(largest), np.empty(largest))

    def step(self) -> None:
        """One bias-corrected Adam update of every parameter with a gradient."""
        self._update(weight_decay=0.0)

    def _update(self, weight_decay: float) -> None:
        """Decoupled decay (when positive) then the Adam step, per parameter.

        Every line is an in-place form of ``p.data -= lr * wd * p.data``,
        ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
        ``p.data -= lr * (m / bias1) / (sqrt(v / bias2) + eps)``, in that
        operation order, so the result is bit-identical to those lines.
        """
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        lr, decay = self.lr, self.lr * weight_decay
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            data, grad = p.data, p.grad
            step, denom = (w[:data.size].reshape(data.shape) for w in self._work)
            if weight_decay > 0.0:
                np.multiply(data, decay, out=step)
                data -= step
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=step)
            m += step
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=step)
            step *= grad
            v += step
            np.divide(m, bias1, out=step)
            step *= lr
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            data -= step


class AdamW(Adam):
    """Adam with decoupled weight decay (the fine-tuning default)."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        """Adam over ``parameters`` plus decay ``weight_decay`` per unit rate."""
        super().__init__(parameters, lr, betas, eps)
        self.weight_decay = weight_decay

    def step(self) -> None:
        """One AdamW update: ``p -= lr * weight_decay * p``, then the Adam step."""
        self._update(self.weight_decay)


class LinearWarmupSchedule:
    """Linear warmup to ``base_lr`` then linear decay to zero."""

    def __init__(self, optimizer: _Optimizer, warmup_steps: int, total_steps: int) -> None:
        """Drive ``optimizer.lr`` over ``total_steps``, the first ``warmup_steps`` rising."""
        if total_steps <= 0 or warmup_steps < 0 or warmup_steps > total_steps:
            raise ConfigurationError("invalid warmup/total step counts")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self._step = 0

    def step(self) -> float:
        """Advance one step and return the learning rate that was applied."""
        self._step += 1
        if self.warmup_steps and self._step <= self.warmup_steps:
            lr = self.base_lr * self._step / self.warmup_steps
        else:
            remaining = max(0, self.total_steps - self._step)
            denom = max(1, self.total_steps - self.warmup_steps)
            lr = self.base_lr * remaining / denom
        self.optimizer.lr = max(lr, 0.0)
        return self.optimizer.lr
