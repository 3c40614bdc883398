"""Transformer encoder (paper Section III-B1).

A pre-norm transformer: each layer applies layer-normalized multi-head
self-attention and a feed-forward block, both with residual connections.
This plays the role of the paper's pre-trained BERT encoder; since
pre-trained weights are unavailable offline, the encoder is trained from
scratch on the synthetic corpus (see DESIGN.md substitution table).
"""

from __future__ import annotations

import numpy as np

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, LayerNorm, Linear, Module
from repro.nn.tensor import Tensor


class TransformerLayer(Module):
    """One pre-norm transformer encoder layer."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        ff_dim: int,
        rng: np.random.Generator,
        *,
        dropout_rate: float = 0.1,
    ):
        super().__init__()
        self.attention = MultiHeadSelfAttention(
            dim, num_heads, rng, dropout_rate=dropout_rate
        )
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_dim, rng)
        self.ff2 = Linear(ff_dim, dim, rng)
        self.dropout = Dropout(dropout_rate, rng)

    def __call__(self, x: Tensor, lengths: np.ndarray | None = None) -> Tensor:
        x = x + self.attention(self.norm1(x), lengths=lengths)
        x = x + self.dropout(self.ff2(self.ff1(self.norm2(x)).relu()))
        return x


class TransformerEncoder(Module):
    """A stack of transformer layers with a final layer norm."""

    def __init__(
        self,
        dim: int,
        num_layers: int,
        num_heads: int,
        ff_dim: int,
        rng: np.random.Generator,
        *,
        dropout_rate: float = 0.1,
    ):
        super().__init__()
        self.layers = [
            TransformerLayer(dim, num_heads, ff_dim, rng, dropout_rate=dropout_rate)
            for _ in range(num_layers)
        ]
        self.final_norm = LayerNorm(dim)

    def __call__(self, x: Tensor, lengths: np.ndarray | None = None) -> Tensor:
        """Encode ``x`` ((n, d), or padded (batch, n, d) with ``lengths``)."""
        for layer in self.layers:
            x = layer(x, lengths=lengths)
        return self.final_norm(x)


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal position encodings (Vaswani et al.)."""
    positions = np.arange(length)[:, None]
    dims = np.arange(dim)[None, :]
    angle_rates = 1.0 / np.power(10000.0, (2 * (dims // 2)) / dim)
    angles = positions * angle_rates
    encoding = np.zeros((length, dim))
    encoding[:, 0::2] = np.sin(angles[:, 0::2])
    encoding[:, 1::2] = np.cos(angles[:, 1::2])
    return encoding
