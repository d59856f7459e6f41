"""Transformer encoder and decoder stacks (pre-norm variant)."""

from __future__ import annotations

import numpy as np

from . import fastpath
from . import functional as F
from .attention import MultiHeadAttention
from .fastpath import PreparedPaddingMask
from .layers import Dropout, Embedding, LayerNorm, Linear, Module
from .tensor import Tensor

__all__ = [
    "FeedForward",
    "TransformerEncoderLayer",
    "TransformerDecoderLayer",
    "TransformerEncoder",
    "TransformerDecoder",
]


class FeedForward(Module):
    """Position-wise two-layer MLP with GELU."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.up = Linear(dim, hidden, rng)
        self.down = Linear(hidden, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.down(F.gelu(self.up(x)))


class TransformerEncoderLayer(Module):
    """Pre-norm encoder block: LN → self-attention → LN → FFN."""

    def __init__(
        self,
        dim: int,
        n_heads: int,
        d_ff: int,
        rng: np.random.Generator,
        dropout: float = 0.1,
    ) -> None:
        super().__init__()
        self.attn = MultiHeadAttention(dim, n_heads, rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ffn = FeedForward(dim, d_ff, rng)
        self.drop = Dropout(dropout, rng)

    def forward(self, x: Tensor, key_padding_mask: np.ndarray | None = None) -> Tensor:
        x = x + self.drop(self.attn(self.norm1(x), key_padding_mask=key_padding_mask))
        return x + self.drop(self.ffn(self.norm2(x)))


class TransformerDecoderLayer(Module):
    """Pre-norm decoder block with causal self-attention and optional cross-attention."""

    def __init__(
        self,
        dim: int,
        n_heads: int,
        d_ff: int,
        rng: np.random.Generator,
        cross_attention: bool = False,
        dropout: float = 0.1,
    ) -> None:
        super().__init__()
        self.self_attn = MultiHeadAttention(dim, n_heads, rng, causal=True)
        self.norm1 = LayerNorm(dim)
        self.cross_attn = (
            MultiHeadAttention(dim, n_heads, rng) if cross_attention else None
        )
        self.norm_cross = LayerNorm(dim) if cross_attention else None
        self.norm2 = LayerNorm(dim)
        self.ffn = FeedForward(dim, d_ff, rng)
        self.drop = Dropout(dropout, rng)

    def forward(
        self,
        x: Tensor,
        memory: Tensor | None = None,
        key_padding_mask: np.ndarray | None = None,
        memory_padding_mask: np.ndarray | None = None,
    ) -> Tensor:
        x = x + self.drop(self.self_attn(self.norm1(x), key_padding_mask=key_padding_mask))
        if self.cross_attn is not None:
            if memory is None:
                raise ValueError("decoder layer built with cross attention needs memory")
            x = x + self.drop(
                self.cross_attn(
                    self.norm_cross(x), kv=memory, key_padding_mask=memory_padding_mask
                )
            )
        return x + self.drop(self.ffn(self.norm2(x)))


class _EmbeddingStem(Module):
    """Token + learned positional (+ optional flag) embedding stem.

    The flag channel carries small per-token categorical features computed
    from raw text (0: not shared across the pair, 1: shared common token,
    2: shared rare token).
    It stands in for the token-matching circuits a web-pretrained PLM
    already possesses, which the from-scratch surrogates cannot acquire
    from the small fine-tuning corpora alone (see DESIGN.md §2).
    """

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        max_len: int,
        rng: np.random.Generator,
        dropout: float = 0.1,
    ) -> None:
        super().__init__()
        self.tokens = Embedding(vocab_size, dim, rng)
        self.positions = Embedding(max_len, dim, rng)
        self.flags = Embedding(3, dim, rng)
        self.drop = Dropout(dropout, rng)
        self.max_len = max_len

    def forward(self, ids: np.ndarray, flags: np.ndarray | None = None) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        length = ids.shape[1]
        fastpath.check_length(length, self.positions.weight.shape[0])
        # One (length, dim) slice of the position table broadcast over the
        # batch: its gradient is the batch sum, assigned into the table.
        x = self.tokens(ids) + self.positions.weight[:length]
        if flags is not None:
            x = x + self.flags(np.asarray(flags, dtype=np.int64))
        return self.drop(x)


class TransformerEncoder(Module):
    """Token ids → contextual representations (BERT-style backbone)."""

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        n_layers: int,
        n_heads: int,
        d_ff: int,
        max_len: int,
        rng: np.random.Generator,
        dropout: float = 0.1,
    ) -> None:
        super().__init__()
        self.stem = _EmbeddingStem(vocab_size, dim, max_len, rng, dropout)
        self.blocks = [
            TransformerEncoderLayer(dim, n_heads, d_ff, rng, dropout) for _ in range(n_layers)
        ]
        self.final_norm = LayerNorm(dim)
        self.dim = dim

    def forward(
        self,
        ids: np.ndarray,
        key_padding_mask: np.ndarray | None = None,
        flags: np.ndarray | None = None,
    ) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if key_padding_mask is not None:
            # Validate/broadcast once here; every block reuses the result.
            key_padding_mask = PreparedPaddingMask.prepare(
                key_padding_mask, ids.shape[0], ids.shape[1]
            )
        x = self.stem(ids, flags)
        for block in self.blocks:
            x = block(x, key_padding_mask=key_padding_mask)
        return self.final_norm(x)


class TransformerDecoder(Module):
    """Causal decoder backbone (GPT-style, or seq2seq when given memory)."""

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        n_layers: int,
        n_heads: int,
        d_ff: int,
        max_len: int,
        rng: np.random.Generator,
        cross_attention: bool = False,
        dropout: float = 0.1,
    ) -> None:
        super().__init__()
        self.stem = _EmbeddingStem(vocab_size, dim, max_len, rng, dropout)
        self.blocks = [
            TransformerDecoderLayer(dim, n_heads, d_ff, rng, cross_attention, dropout)
            for _ in range(n_layers)
        ]
        self.final_norm = LayerNorm(dim)
        self.lm_head = Linear(dim, vocab_size, rng)
        self.dim = dim

    def hidden(
        self,
        ids: np.ndarray,
        memory: Tensor | None = None,
        key_padding_mask: np.ndarray | None = None,
        memory_padding_mask: np.ndarray | None = None,
        flags: np.ndarray | None = None,
    ) -> Tensor:
        """Final-layer representations, before the LM head."""
        ids = np.asarray(ids, dtype=np.int64)
        if key_padding_mask is not None:
            # Validate/broadcast once here; every block reuses the result.
            key_padding_mask = PreparedPaddingMask.prepare(
                key_padding_mask, ids.shape[0], ids.shape[1]
            )
        if memory_padding_mask is not None and memory is not None:
            memory_padding_mask = PreparedPaddingMask.prepare(
                memory_padding_mask, ids.shape[0], memory.shape[1]
            )
        x = self.stem(ids, flags)
        for block in self.blocks:
            x = block(
                x,
                memory=memory,
                key_padding_mask=key_padding_mask,
                memory_padding_mask=memory_padding_mask,
            )
        return self.final_norm(x)

    def forward(
        self,
        ids: np.ndarray,
        memory: Tensor | None = None,
        key_padding_mask: np.ndarray | None = None,
        memory_padding_mask: np.ndarray | None = None,
        flags: np.ndarray | None = None,
    ) -> Tensor:
        return self.lm_head(
            self.hidden(ids, memory, key_padding_mask, memory_padding_mask, flags)
        )
