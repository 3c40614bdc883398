"""Recurrent modules: LSTM cell and BiLSTM span summarizer.

The decoder is an LSTM (paper Section III-B2), and multi-token schema
items / value candidates are summarized by a bidirectional LSTM into a
single vector (Section V-C: "bi-directional LSTM networks to summarize
multi-token columns/tables/values").

The cell operates on a single (d,) input or a batched (s, d) stack of
inputs transparently (gates slice the last axis), which lets the encoder
summarize every span of a request — whatever their lengths — in one
packed pass: one fused matrix multiply per step and direction over the
spans still running, instead of one LSTM per span.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import xavier_uniform, zeros
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, concat


class LSTMCell(Module):
    """A single LSTM step.

    Gates are computed from one fused affine map of ``[x; h]`` for speed;
    the forget-gate bias starts at 1.0 (the standard trick for gradient
    flow through long sequences).
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.hidden_dim = hidden_dim
        self.weight = xavier_uniform(rng, input_dim + hidden_dim, 4 * hidden_dim)
        self.bias = zeros(4 * hidden_dim)
        self.bias.data[hidden_dim:2 * hidden_dim] = 1.0  # forget gate

    def __call__(
        self, x: Tensor, state: tuple[Tensor, Tensor]
    ) -> tuple[Tensor, Tensor]:
        h, c = state
        combined = concat([x, h], axis=-1)
        gates = combined @ self.weight + self.bias
        d = self.hidden_dim
        i = gates[..., 0:d].sigmoid()
        f = gates[..., d:2 * d].sigmoid()
        g = gates[..., 2 * d:3 * d].tanh()
        o = gates[..., 3 * d:4 * d].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next

    def initial_state(self, batch: int | None = None) -> tuple[Tensor, Tensor]:
        shape = (self.hidden_dim,) if batch is None else (batch, self.hidden_dim)
        return (Tensor(np.zeros(shape)), Tensor(np.zeros(shape)))


class BiLSTMSummarizer(Module):
    """Summarize a variable-length (n, d_in) span into one vector.

    Runs an LSTM forward and another backward over the span and projects
    the concatenated final hidden states to ``output_dim``.  Used for
    multi-word column names, table names and multi-piece value candidates.
    """

    def __init__(
        self, input_dim: int, hidden_dim: int, output_dim: int, rng: np.random.Generator
    ):
        super().__init__()
        self.forward_cell = LSTMCell(input_dim, hidden_dim, rng)
        self.backward_cell = LSTMCell(input_dim, hidden_dim, rng)
        self.projection = xavier_uniform(rng, 2 * hidden_dim, output_dim)

    def __call__(self, span: Tensor) -> Tensor:
        n = span.shape[0]
        forward_state = self.forward_cell.initial_state()
        for t in range(n):
            forward_state = self.forward_cell(span[t], forward_state)
        backward_state = self.backward_cell.initial_state()
        for t in range(n - 1, -1, -1):
            backward_state = self.backward_cell(span[t], backward_state)
        combined = concat([forward_state[0], backward_state[0]], axis=-1)
        return (combined @ self.projection).tanh()

    def summarize_spans(
        self,
        contextual: Tensor,
        rows: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
    ) -> Tensor:
        """Summarize spans of any lengths from a padded batch in one pass.

        Args:
            contextual: (batch, max_len, d_in) padded encoder output.
            rows, starts, lengths: one entry per span — its example index,
                first position and number of positions (>= 1).

        Returns:
            (n_spans, output_dim) summaries, row-aligned with the input.

        Spans are sorted longest first, so the spans still running at
        step ``t`` are a prefix: each step gathers one position of every
        running span and runs both cells on that stack — the math of
        :meth:`__call__` per span, in ``2 * max(lengths)`` cell calls.
        """
        order = np.argsort(-lengths, kind="stable")
        rows, starts, lengths = rows[order], starts[order], lengths[order]
        lasts = starts + lengths - 1
        # running[t]: how many spans are longer than t (a prefix, as sorted).
        running = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left")

        forward_state = self.forward_cell.initial_state(batch=len(order))
        backward_state = self.backward_cell.initial_state(batch=len(order))
        finished: list[Tensor] = []  # final [h_fwd; h_bwd] blocks, shortest first
        for t, k in enumerate(running):
            if k < forward_state[0].shape[0]:
                finished.append(concat(
                    [forward_state[0][k:], backward_state[0][k:]], axis=-1
                ))
                forward_state = (forward_state[0][:k], forward_state[1][:k])
                backward_state = (backward_state[0][:k], backward_state[1][:k])
            forward_state = self.forward_cell(
                contextual[(rows[:k], starts[:k] + t)], forward_state
            )
            backward_state = self.backward_cell(
                contextual[(rows[:k], lasts[:k] - t)], backward_state
            )
        finished.append(concat([forward_state[0], backward_state[0]], axis=-1))
        combined = concat(finished[::-1], axis=0)
        return (combined @ self.projection).tanh()[np.argsort(order)]
