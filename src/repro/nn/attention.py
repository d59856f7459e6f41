"""Multi-head attention for the transformer surrogates."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from . import fastpath
from . import functional as F
from .fastpath import PreparedPaddingMask
from .layers import Linear, Module
from .tensor import Tensor

__all__ = ["MultiHeadAttention"]


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``n_heads`` heads.

    Supports self-attention (``kv=None``), cross-attention, causal masking
    (for the decoder surrogates) and key padding masks.
    """

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator, causal: bool = False) -> None:
        super().__init__()
        if dim % n_heads != 0:
            raise ConfigurationError(f"dim={dim} not divisible by n_heads={n_heads}")
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.causal = causal
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)

    def forward(
        self,
        x: Tensor,
        kv: Tensor | None = None,
        key_padding_mask: "np.ndarray | PreparedPaddingMask | None" = None,
    ) -> Tensor:
        """Attend ``x`` (queries) over ``kv`` (keys/values; defaults to ``x``).

        ``key_padding_mask`` is a boolean array of shape ``(batch, kv_len)``
        that is ``True`` at padding positions to be ignored, or a
        :class:`~repro.nn.fastpath.PreparedPaddingMask` already validated
        and broadcast by the enclosing stack (reused across its layers).
        """
        source = kv if kv is not None else x
        mask = fastpath.attention_mask(
            self, x.shape[0], x.shape[1], source.shape[1], key_padding_mask
        )
        context = F.attention(
            self.q_proj(x), self.k_proj(source), self.v_proj(source), self.n_heads, mask
        )
        return self.out_proj(context)
