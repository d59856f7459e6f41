"""Module system and basic layers (Linear, Embedding, LayerNorm, Dropout)."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..errors import ConfigurationError
from . import functional as F
from .tensor import Tensor

__all__ = ["Parameter", "Module", "Linear", "Embedding", "LayerNorm", "Dropout", "Sequential"]


class Parameter(Tensor):
    """A tensor that is updated by optimisers (always requires grad)."""

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with recursive parameter discovery and train/eval mode."""

    def __init__(self) -> None:
        self.training = True

    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its sub-modules, depth-first."""
        params: list[Parameter] = []
        seen: set[int] = set()
        for _name, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                params.append(param)
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
            # Weights are about to change; memoised inference-dtype casts
            # (see repro.nn.fastpath.cast_param) would go stale.
            module.__dict__.pop("_fp_cast_cache", None)
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def n_parameters(self) -> int:
        """Actual trainable parameter count of this (scaled-down) module."""
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ConfigurationError(
                f"state dict mismatch; missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ConfigurationError(
                    f"shape mismatch for {name}: {param.data.shape} vs {state[name].shape}"
                )
            param.data = state[name].copy()
        for module in self.modules():
            # New weights invalidate memoised inference-dtype casts.
            module.__dict__.pop("_fp_cast_cache", None)

    def __call__(self, *args: object, **kwargs: object) -> Tensor:
        return self.forward(*args, **kwargs)

    def forward(self, *args: object, **kwargs: object) -> Tensor:
        raise NotImplementedError


class Linear(Module):
    """Affine map ``y = x W + b`` with scaled-normal init."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        scale = 1.0 / np.sqrt(in_features)
        self.weight = Parameter(rng.normal(0.0, scale, size=(in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Token-id lookup table with sparse-style gradient accumulation."""

    def __init__(self, n_embeddings: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(n_embeddings, dim)))

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.weight.shape[0]:
            raise ConfigurationError(
                f"embedding ids out of range [0, {self.weight.shape[0]})"
            )
        return self.weight[ids]


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.gain = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gain, self.bias, self.eps)


class Dropout(Module):
    """Inverted dropout driven by an explicit generator (reproducible)."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ConfigurationError("dropout p must be in [0, 1)")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, self.training)


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x
