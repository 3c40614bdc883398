"""Decoder step cache: the raw-numpy inference ops, greedy and lockstep.

The decoder's hot loop re-computed request-constant quantities on every
step: the pointer networks' memory projections (``memory @ W_m`` over
all columns/tables/values), the feed embedding of each emitted action,
the legal-production grammar mask for each grammar state signature, and
its ``-inf`` penalty row.  :class:`StepCache` computes each of these once
and replays the per-step math (context attention, LSTM cell, heads,
masked log-softmax) in raw numpy — no autograd ``Tensor`` wrappers.

A cache covers a batch of questions, ``StepCache(decoder, *encodeds)``
(one question is a batch of one), and serves two interfaces:

* Single-hypothesis methods (``step``, ``pointer_scores``,
  ``sketch_log_probs``) for greedy decoding of a one-question cache.  They
  run over preallocated arena buffers and perform the *same
  floating-point operations in the same order* as the Tensor path, so
  their outputs are bit-identical and greedy decoding is
  prediction-identical with or without the cache.  The LSTM ``(h, c)``
  state ping-pongs between two arena buffer pairs: a greedy decode is
  one state chain and only ever reads the latest step's output.
* Row methods (``initial_rows``, ``step_rows``, ``pointer_log_prob_rows``,
  ``sketch_log_prob_rows``) for lockstep beam search: R hypothesis rows,
  from any questions of the batch, advance in one call.  The question
  memories and each pointer kind's memory projections are padded to the
  batch's longest once per batch; padding carries a ``NEG_INF`` penalty,
  so a padded position gets no attention weight and a log-probability
  far below any real one.  A stacked matmul or a padded reduction may
  round a row differently in the last bit than the row alone would, so
  the row contract is the decoded steps, not the bits.

First-time values (memory projections, feeds, masks, initial states) are
produced by the original decoder methods themselves and memoized:
pointer memories and C/T/V feeds per question, grammar feeds once, masks
per (has-values, grammar signature).

:class:`ReferenceOps` implements both interfaces on the unchanged Tensor
path — its row methods loop the single-hypothesis Tensor calls row by
row — and is the differential oracle (``tests/test_decoder_cache.py``):
``decode`` and ``beam_decode`` run on whichever ops their caller passes.
Construct a cache per request or batch, under
:func:`repro.nn.tensor.inference_mode`; every memo is keyed on
request-local indexes, so never share one.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.functional import NEG_INF, log_softmax, masked_log_softmax
from repro.nn.tensor import Tensor
from repro.semql.actions import NUM_GRAMMAR_ACTIONS


def _initial_rows(decoder, encodeds) -> tuple[np.ndarray, np.ndarray]:
    """(h, c) of every question's initial state; row b is question b."""
    states = [decoder._initial_state(e) for e in encodeds]
    return (
        np.stack([h.data for h, _ in states]),
        np.stack([c.data for _, c in states]),
    )


def _pad_rows(rows: list[np.ndarray]) -> np.ndarray:
    """Stack 1-D log-prob rows of different lengths, padding with NEG_INF."""
    out = np.full((len(rows), max(len(row) for row in rows)), NEG_INF)
    for r, row in enumerate(rows):
        out[r, :len(row)] = row
    return out


class ReferenceOps:
    """The uncached decoder ops: thin delegation to the Tensor path.

    Exists so ``decode``/``beam_decode`` are written once against one
    interface; this implementation is the differential baseline and must
    keep calling the decoder's original methods unchanged.  Its row
    methods are those calls in a loop, one row at a time.
    """

    def __init__(self, decoder, *encodeds):
        self.decoder = decoder
        self.encodeds = encodeds
        self.encoded = encodeds[0]

    def initial_state(self):
        return self.decoder._initial_state(self.encoded)

    def start(self):
        return self.decoder.start_embedding

    def step(self, prev, state):
        return self.decoder._step(prev, state, self.encoded)

    def pointer_scores(self, kind: str, h) -> np.ndarray:
        return self.decoder._head_logits(kind, h, self.encoded).data

    def grammar_mask(self, expected, *, question: int = 0, **flags):
        return self.decoder._grammar_mask(
            expected, self.encodeds[question].num_values, **flags
        )

    def sketch_log_probs(self, h, mask) -> np.ndarray:
        return masked_log_softmax(self.decoder.sketch_head(h), mask).data

    def feed(self, kind: str, index: int, question: int = 0):
        return self.decoder._feed_embedding(kind, index, self.encodeds[question])

    # --------------------------------------------------------------- rows

    def initial_rows(self) -> tuple[np.ndarray, np.ndarray]:
        return _initial_rows(self.decoder, self.encodeds)

    def step_rows(self, prevs: list, h, c, questions):
        # Dropout is the identity at inference, so the state h is also
        # the h the heads read.
        states = [
            self.decoder._step(
                prev, (Tensor(h[r]), Tensor(c[r])), self.encodeds[q]
            )[1]
            for r, (prev, q) in enumerate(zip(prevs, questions))
        ]
        return (
            np.stack([h_next.data for h_next, _ in states]),
            np.stack([c_next.data for _, c_next in states]),
        )

    def pointer_log_prob_rows(self, kind: str, h, questions) -> np.ndarray:
        return _pad_rows([
            log_softmax(
                self.decoder._head_logits(kind, Tensor(h[r]), self.encodeds[q])
            ).data
            for r, q in enumerate(questions)
        ])

    def sketch_log_prob_rows(self, h, masks) -> np.ndarray:
        return np.stack([
            self.sketch_log_probs(Tensor(h[r]), mask) for r, mask in enumerate(masks)
        ])


class StepCache:
    """Raw-numpy decoder ops with per-batch memoization and an arena.

    One instance serves exactly one batch of questions; do not share
    across requests.  The single-hypothesis (greedy) methods address the
    first question and are meant for a one-question cache.
    """

    def __init__(self, decoder, *encodeds):
        self.decoder = decoder
        self.encodeds = encodeds
        self.encoded = encodeds[0]
        config = decoder.config
        dim = config.dim
        hidden = config.decoder_hidden

        # Raw parameter views (no copies).
        self._w_ctx = decoder.context_attention.proj.weight.data
        self._w_cell = decoder.cell.weight.data
        self._b_cell = decoder.cell.bias.data
        self._w_sketch = decoder.sketch_head.weight.data
        self._b_sketch = decoder.sketch_head.bias.data
        self._question = self.encoded.question.data
        self._start = decoder.start_embedding.data
        self._pointers = {
            "C": decoder.column_pointer,
            "T": decoder.table_pointer,
            "V": decoder.value_pointer,
        }

        # Memos, all computed lazily through the original Tensor methods
        # (bit-equality by construction).
        self._pointer_memory: dict[tuple[str, int], np.ndarray] = {}
        self._feeds: dict[tuple, np.ndarray] = {}
        self._masks: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        # Padded batch memories for the row methods: (memory, penalty).
        self._question_rows: tuple[np.ndarray, np.ndarray] | None = None
        self._pointer_rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}

        # Arena: every greedy per-step intermediate, preallocated once.
        n_question = self._question.shape[0]
        self._projected = np.empty(dim)
        self._scores = np.empty(n_question)
        self._weights = np.empty(n_question)
        self._context = np.empty(dim)
        self._x = np.empty(2 * dim)
        self._combined = np.empty(2 * dim + hidden)
        self._gates = np.empty(4 * hidden)
        self._gate_tmp = np.empty(hidden)
        self._states = (
            (np.empty(hidden), np.empty(hidden)),
            (np.empty(hidden), np.empty(hidden)),
        )
        self._flip = 0
        self._sketch = np.empty(NUM_GRAMMAR_ACTIONS)
        self._hidden = hidden

    # --------------------------------------------------- request constants

    def initial_state(self):
        h0, c0 = self.decoder._initial_state(self.encoded)
        return h0.data, c0.data

    def start(self):
        return self._start

    def feed(self, kind: str, index: int, question: int = 0) -> np.ndarray:
        # A grammar action's embedding is the same for every question.
        key = (kind, index) if kind == "grammar" else (kind, index, question)
        value = self._feeds.get(key)
        if value is None:
            value = self.decoder._feed_embedding(
                kind, index, self.encodeds[question]
            ).data
            self._feeds[key] = value
        return value

    def _memory(self, kind: str, question: int = 0) -> np.ndarray | None:
        """One question's pointer memory projection (None: no values)."""
        key = (kind, question)
        if key not in self._pointer_memory:
            encoded = self.encodeds[question]
            bank = {
                "C": encoded.columns, "T": encoded.tables, "V": encoded.values,
            }[kind]
            # Same op the Tensor path runs every step, done once here.
            self._pointer_memory[key] = (
                None if bank is None else self._pointers[kind].memory_proj(bank).data
            )
        return self._pointer_memory[key]

    def grammar_mask(
        self,
        expected,
        *,
        question: int = 0,
        conserve_budget: bool = False,
        in_subquery: bool = False,
        in_compound: bool = False,
        required_arity: int | None = None,
    ):
        # The mask depends on the question only through "has values".
        num_values = self.encodeds[question].num_values
        key = (
            num_values == 0, expected,
            conserve_budget, in_subquery, in_compound, required_arity,
        )
        entry = self._masks.get(key)
        if entry is None:
            mask = self.decoder._grammar_mask(
                expected, num_values,
                conserve_budget=conserve_budget, in_subquery=in_subquery,
                in_compound=in_compound, required_arity=required_arity,
            )
            penalty = np.where(mask, 0.0, NEG_INF)
            entry = (mask, penalty)
            self._masks[key] = entry
        return entry

    # ------------------------------------------------------- per-step math

    def step(self, prev, state):
        """One decoder step: context attention + LSTM cell, arena-backed.

        Mirrors ``ValueNetDecoder._step`` operation for operation
        (dropout is identity under ``inference_mode``, so it is omitted).
        The returned state lives in an arena buffer that the step after
        next overwrites.
        """
        h, c = state
        # Bilinear context attention over the question encodings.
        np.matmul(h, self._w_ctx, out=self._projected)
        np.matmul(self._question, self._projected, out=self._scores)
        # attention_pool: softmax(scores) @ question.
        scores = self._scores
        shifted = np.subtract(
            scores, scores.max(axis=-1, keepdims=True), out=self._weights
        )
        exp = np.exp(shifted, out=shifted)
        weights = np.divide(exp, exp.sum(axis=-1, keepdims=True), out=exp)
        np.matmul(weights, self._question, out=self._context)
        # x = concat([prev_embedding, context]); combined = concat([x, h]).
        dim = self._context.shape[0]
        self._x[:dim] = prev
        self._x[dim:] = self._context
        self._combined[: 2 * dim] = self._x
        self._combined[2 * dim:] = h
        # Fused LSTM gates.
        gates = np.matmul(self._combined, self._w_cell, out=self._gates)
        np.add(gates, self._b_cell, out=gates)
        d = self._hidden
        h_next, c_next = self._states[self._flip]
        self._flip ^= 1
        tmp = self._gate_tmp
        # i, f, g, o exactly as LSTMCell: sigmoid/sigmoid/tanh/sigmoid.
        i = 1.0 / (1.0 + np.exp(-gates[0:d]))
        f = 1.0 / (1.0 + np.exp(-gates[d:2 * d]))
        g = np.tanh(gates[2 * d:3 * d])
        o = 1.0 / (1.0 + np.exp(-gates[3 * d:4 * d]))
        # c_next = f * c + i * g
        np.multiply(f, c, out=c_next)
        np.multiply(i, g, out=tmp)
        np.add(c_next, tmp, out=c_next)
        # h_next = o * tanh(c_next)
        np.tanh(c_next, out=tmp)
        np.multiply(o, tmp, out=h_next)
        return h_next, (h_next, c_next)

    def pointer_scores(self, kind: str, h: np.ndarray) -> np.ndarray:
        """Additive pointer scores with the memory projection cached."""
        memory = self._memory(kind)
        if memory is None:
            raise ModelError("value pointer invoked without candidates")
        pointer = self._pointers[kind]
        q = np.matmul(h, pointer.query_proj.weight.data)
        q += pointer.query_proj.bias.data
        combined = np.tanh(memory + q)
        n = combined.shape[0]
        return np.matmul(combined, pointer.scorer.weight.data).reshape(n)

    def sketch_log_probs(self, h: np.ndarray, mask_entry) -> np.ndarray:
        _mask, penalty = mask_entry
        logits = np.matmul(h, self._w_sketch, out=self._sketch)
        np.add(logits, self._b_sketch, out=logits)
        return self._log_softmax(logits + penalty)

    @staticmethod
    def _log_softmax(x: np.ndarray) -> np.ndarray:
        # Same formula as repro.nn.functional.log_softmax.
        shifted = x - x.max(axis=-1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        return shifted - log_z

    # ------------------------------------------------------ lockstep rows

    @staticmethod
    def _padded(banks: list[np.ndarray | None], width: int):
        """(memory, penalty): banks stacked to (B, n_max, width), padding
        zero in memory and NEG_INF in penalty."""
        n = max(0 if bank is None else bank.shape[0] for bank in banks)
        memory = np.zeros((len(banks), n, width))
        penalty = np.full((len(banks), n), NEG_INF)
        for b, bank in enumerate(banks):
            if bank is not None:
                memory[b, :bank.shape[0]] = bank
                penalty[b, :bank.shape[0]] = 0.0
        return memory, penalty

    def initial_rows(self) -> tuple[np.ndarray, np.ndarray]:
        return _initial_rows(self.decoder, self.encodeds)

    def step_rows(self, prevs: list[np.ndarray], h, c, questions: np.ndarray):
        """One decoder step for R hypothesis rows: ``prevs`` their feed
        embeddings, ``h``/``c`` their (R, hidden) states, ``questions``
        their batch indexes.  Returns the next (h, c), fresh arrays."""
        if self._question_rows is None:
            self._question_rows = self._padded(
                [e.question.data for e in self.encodeds], self._w_ctx.shape[1]
            )
        memory, penalty = self._question_rows
        memory = memory[questions]                                  # (R, L, dim)
        # Bilinear context attention, masked over the padded positions.
        projected = h @ self._w_ctx                                 # (R, dim)
        scores = np.matmul(memory, projected[:, :, None])[:, :, 0]  # (R, L)
        scores += penalty[questions]
        exp = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = exp / exp.sum(axis=-1, keepdims=True)
        context = np.matmul(weights[:, None, :], memory)[:, 0, :]   # (R, dim)
        # One fused LSTM gate matmul for every row.
        gates = np.concatenate((np.stack(prevs), context, h), axis=1) @ self._w_cell
        gates += self._b_cell
        d = self._hidden
        # i, f, o are sigmoids, g a tanh; one sigmoid pass over all four
        # gates costs fewer numpy calls than three slices.
        sigmoid = 1.0 / (1.0 + np.exp(-gates))
        c_next = sigmoid[:, d:2 * d] * c
        c_next += sigmoid[:, 0:d] * np.tanh(gates[:, 2 * d:3 * d])
        return sigmoid[:, 3 * d:4 * d] * np.tanh(c_next), c_next

    def pointer_log_prob_rows(self, kind: str, h, questions: np.ndarray) -> np.ndarray:
        """(R, n_max) pointer log-probs of R rows over their own question's
        items; a row's padding is far below -1e20."""
        entry = self._pointer_rows.get(kind)
        if entry is None:
            banks = [self._memory(kind, b) for b in range(len(self.encodeds))]
            width = self._pointers[kind].memory_proj.weight.shape[1]
            entry = self._pointer_rows[kind] = self._padded(banks, width)
        memory, penalty = entry
        pointer = self._pointers[kind]
        q = h @ pointer.query_proj.weight.data
        q += pointer.query_proj.bias.data
        combined = np.tanh(memory[questions] + q[:, None, :])      # (R, n, p)
        scores = np.matmul(combined, pointer.scorer.weight.data)[:, :, 0]
        scores += penalty[questions]
        return self._log_softmax(scores)

    def sketch_log_prob_rows(self, h, mask_entries) -> np.ndarray:
        """(R, actions) masked grammar log-probs, one mask entry per row."""
        logits = h @ self._w_sketch
        logits += self._b_sketch
        logits += np.stack([penalty for _mask, penalty in mask_entries])
        return self._log_softmax(logits)
