"""Attention modules: multi-head self-attention and pointer networks.

The encoder is attention-only (paper Section III-B1); the decoder selects
columns, tables and values with pointer networks (Vinyals et al., cited as
[34] in the paper) scoring each memory item against the decoder state.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.functional import NEG_INF, softmax
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor, concat


class MultiHeadSelfAttention(Module):
    """Multi-head scaled-dot-product self-attention.

    Accepts an (n, d) sequence or a padded (batch, n, d) stack; the
    optional ``mask`` (shape (n,) or (batch, n), True = real token)
    excludes padded *keys* so every real position attends exactly as it
    would unbatched.  Heads are computed with an explicit loop over
    slices — the sequences here are short (question + schema +
    candidates, typically < 150 positions) and head counts small, so
    clarity beats vectorization.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        rng: np.random.Generator,
        *,
        dropout_rate: float = 0.0,
    ):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query = Linear(dim, dim, rng)
        self.key = Linear(dim, dim, rng)
        self.value = Linear(dim, dim, rng)
        self.output = Linear(dim, dim, rng)
        self.dropout = Dropout(dropout_rate, rng)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        q = self.query(x)
        k = self.key(x)
        v = self.value(x)
        scale = 1.0 / math.sqrt(self.head_dim)

        penalty: Tensor | None = None
        if mask is not None:
            # Broadcast over the query axis: padded keys are excluded for
            # every query; padded query rows are discarded downstream.
            penalty = Tensor(np.where(mask, 0.0, NEG_INF)[..., None, :])

        heads: list[Tensor] = []
        for h in range(self.num_heads):
            lo, hi = h * self.head_dim, (h + 1) * self.head_dim
            qh = q[..., lo:hi]
            kh = k[..., lo:hi]
            vh = v[..., lo:hi]
            scores = (qh @ kh.swapaxes(-1, -2)) * scale
            if penalty is not None:
                scores = scores + penalty
            attn = softmax(scores, axis=-1)
            heads.append(attn @ vh)
        combined = concat(heads, axis=-1)
        return self.dropout(self.output(combined))


class PointerNetwork(Module):
    """Additive pointer scorer: ``score_i = v . tanh(W_q q + W_m m_i)``.

    Given the decoder state ``q`` (shape (d_q,), or a stack (s, d_q)) and
    a memory bank (shape (n, d_m), or one per query (s, n, d_m)), returns
    unnormalized scores (shape (n,) or (s, n)) for a (masked) softmax.
    """

    def __init__(
        self,
        query_dim: int,
        memory_dim: int,
        hidden: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.query_proj = Linear(query_dim, hidden, rng)
        self.memory_proj = Linear(memory_dim, hidden, rng, bias=False)
        self.scorer = Linear(hidden, 1, rng, bias=False)

    def __call__(self, query: Tensor, memory: Tensor) -> Tensor:
        q = self.query_proj(query)          # (..., hidden)
        m = self.memory_proj(memory)        # (..., n, hidden)
        combined = (m + q.reshape(*q.shape[:-1], 1, q.shape[-1])).tanh()
        return self.scorer(combined).reshape(*memory.shape[:-1])


class BilinearAttention(Module):
    """Bilinear attention ``score_i = q^T W m_i`` used for the decoder's
    context attention over question encodings."""

    def __init__(self, query_dim: int, memory_dim: int, rng: np.random.Generator):
        super().__init__()
        self.proj = Linear(query_dim, memory_dim, rng, bias=False)

    def __call__(self, query: Tensor, memory: Tensor) -> Tensor:
        projected = self.proj(query)        # (d_m,)
        return memory @ projected           # (n,)
