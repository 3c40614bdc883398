"""Recurrent modules: LSTM cell and BiLSTM span summarizer.

The decoder is an LSTM (paper Section III-B2), and multi-token schema
items / value candidates are summarized by a bidirectional LSTM into a
single vector (Section V-C: "bi-directional LSTM networks to summarize
multi-token columns/tables/values").

The decoder steps an :class:`LSTMCell` on one (d,) input or a batched
(s, d) stack (gates slice the last axis).  The summarizer holds one cell
per direction for their weights, but runs them itself: every item span of
a request — whatever their lengths — is summarized in one packed pass:
one matmul gives every span position's input gates for both directions,
then both directions advance together, one recurrent matmul per step.
Like every matmul of the model, these run on one BLAS thread
(:mod:`repro.nn.blas`), so their size costs no helper thread's CPU.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import xavier_uniform, zeros
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, concat, stack


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


class BiLSTMSummarizer(Module):
    """Summarize variable-length spans of an encoder output, one vector each.

    Runs an LSTM forward and another backward over each span and projects
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

        Every span position is gathered once, span after span, and the
        input halves of both cells' fused ``[x; h]`` weights, side by side,
        are applied to all of them in one matmul (biases included).  Spans
        are sorted longest first, so the spans still running at step ``t``
        are a prefix ``k``: each step gathers the input gates of position
        ``t`` (forward) and ``t`` from the end (backward) of every running
        span and advances both directions as one stacked ``(2, k, h)``
        state — ``max(lengths)`` steps in all.
        """
        order = np.argsort(-lengths, kind="stable")
        rows, starts, lengths = rows[order], starts[order], lengths[order]
        # running[t]: how many spans are longer than t (a prefix, as sorted).
        running = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left")
        # Span j's positions are packed rows firsts[j] .. lasts[j].
        firsts = np.cumsum(lengths) - lengths
        lasts = firsts + lengths - 1
        span = np.repeat(np.arange(len(order)), lengths)
        offset = np.arange(len(span)) - firsts[span]
        tokens = contextual[(rows[span], starts[span] + offset)]  # (P, d_in)

        d_in = contextual.shape[-1]
        d = self.forward_cell.hidden_dim
        cells = (self.forward_cell, self.backward_cell)
        input_weight = concat([cell.weight[:d_in] for cell in cells], axis=1)
        input_bias = concat([cell.bias for cell in cells])
        input_gates = (tokens @ input_weight + input_bias).reshape(
            len(span), 2, 4 * d
        )  # (P, 2, 4h)
        recurrent = stack([cell.weight[d_in:] for cell in cells])  # (2, h, 4h)
        direction = np.arange(2)[:, None]

        h = c = None  # the zero state: step 0 has no recurrent or forget term
        finished: list[Tensor] = []  # final (2, ·, h) state blocks, shortest first
        for t, k in enumerate(running):
            positions = np.stack([firsts[:k] + t, lasts[:k] - t])  # (2, k)
            gates = input_gates[(positions, direction)]  # (2, k, 4h)
            if h is not None:
                if k < h.shape[1]:
                    finished.append(h[:, k:])
                    h, c = h[:, :k], c[:, :k]
                gates = gates + h @ recurrent
            # i, f, g, o as in LSTMCell; the g quarter's sigmoid goes unused.
            act = gates.sigmoid()
            cell_in = act[..., 0:d] * gates[..., 2 * d:3 * d].tanh()
            c = cell_in if c is None else act[..., d:2 * d] * c + cell_in
            h = act[..., 3 * d:4 * d] * c.tanh()
        finished.append(h)
        final = concat(finished[::-1], axis=1)  # (2, n_spans, h), sorted order
        combined = final.swapaxes(0, 1).reshape(len(order), 2 * d)  # [h_fwd; h_bwd]
        return (combined @ self.projection).tanh()[np.argsort(order)]
