"""Attention modules: multi-head self-attention and pointer networks.

The encoder is attention-only (paper Section III-B1); the decoder selects
columns, tables and values with pointer networks (Vinyals et al., cited as
[34] in the paper) scoring each memory item against the decoder state.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.functional import softmax
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor, concat


class MultiHeadSelfAttention(Module):
    """Multi-head scaled-dot-product self-attention.

    Accepts an (n, d) sequence or a padded (batch, n, d) stack whose
    example ``i`` holds ``lengths[i]`` real positions.  All heads run as
    one ``(H, n, hd) @ (H, hd, n)`` matmul.  When the examples differ in
    length, each one attends over its own ``lengths[i]`` positions, so a
    real position sees exactly the keys it would alone; padded rows come
    out as zeros.  Per example, no ``(batch, H, n_max, n_max)`` scores
    over padded keys and queries are built: on a batch of eight those
    cost more time and memory than the per-example loop.
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

    def __call__(self, x: Tensor, lengths: np.ndarray | None = None) -> Tensor:
        *lead, n, dim = x.shape
        heads, head_dim = self.num_heads, self.head_dim

        def split(t: Tensor) -> Tensor:  # (..., n, d) -> (..., H, n, hd)
            return t.reshape(*lead, n, heads, head_dim).swapaxes(-2, -3)

        q = split(self.query(x) * (1.0 / math.sqrt(head_dim)))
        keys_t = split(self.key(x)).swapaxes(-1, -2)  # (..., H, hd, n)
        v = split(self.value(x))
        if lengths is None or lengths.min() == n:
            context = softmax(q @ keys_t) @ v  # (..., H, n, hd)
            combined = context.swapaxes(-2, -3).reshape(*lead, n, dim)
        else:
            blocks = [
                softmax(q[i, :, :m] @ keys_t[i, :, :, :m]) @ v[i, :, :m]
                for i, m in enumerate(lengths)
            ]
            blocks.append(Tensor(np.zeros((heads, 1, head_dim))))
            packed = concat(blocks, axis=1).swapaxes(0, 1).reshape(-1, dim)
            # Padded position (i, t) reads packed row offset_i + t of its
            # example, or the trailing zero row past the example's end.
            total = int(lengths.sum())
            offsets = np.cumsum(lengths) - lengths
            steps = np.arange(n)
            combined = packed[np.where(
                steps < lengths[:, None], offsets[:, None] + steps, total
            )]
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
