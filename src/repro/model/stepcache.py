"""Per-request decoder step cache (inference fast path).

The decoder's hot loop re-computed request-constant quantities on every
beam step: the pointer networks' memory projections (``memory @ W_m``
over all columns/tables/values), the feed embedding of each emitted
action, the legal-production grammar mask for each grammar state
signature, and its ``-inf`` penalty row.  :class:`StepCache` computes
each of these once per request and replays the per-step math (context
attention, LSTM cell, heads, masked log-softmax) in raw numpy over
preallocated arena buffers — no autograd ``Tensor`` wrappers, no
per-step closure allocation.

Numerical contract: the cached path performs the *same floating-point
operations in the same order* as the Tensor path, so its outputs are
bit-identical and decoding is prediction-identical with or without the
cache (locked by ``tests/test_decoder_cache.py``).  First-time values
(memory projections, feeds, masks, the initial state) are produced by
the original decoder methods themselves and memoized, which makes the
equality true by construction for everything request-constant.

Usage: construct one per request (under
:func:`repro.nn.tensor.inference_mode`) and pass it to
``ValueNetDecoder.decode(..., cache=...)`` or
``beam_decode(..., cache=...)``.  Without a cache those entry points
build a :class:`ReferenceOps` over the unchanged Tensor path — that is
the differential reference.

Greedy decoding additionally ping-pongs the LSTM ``(h, c)`` state
between two arena buffer pairs (``reuse=True``); beam search allocates
fresh state arrays per step because surviving hypotheses keep
references to them.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import NEG_INF, log_softmax, masked_log_softmax
from repro.semql.actions import ActionType, GRAMMAR_ACTION_LIST, NUM_GRAMMAR_ACTIONS

# Grammar actions that expand recursively (Filter and/or conjunctions,
# sub-query productions): the decode budget policy caps how many may be
# emitted.  Request-independent, so computed once at import.
RECURSIVE_ACTION = np.array([
    ActionType.FILTER in action.children or ActionType.R in action.children
    for action in GRAMMAR_ACTION_LIST
])
assert RECURSIVE_ACTION.shape == (NUM_GRAMMAR_ACTIONS,)


class ReferenceOps:
    """The uncached decoder ops: thin delegation to the Tensor path.

    Exists so ``decode``/``beam_decode`` are written once against one
    interface; this implementation is the differential baseline and must
    keep calling the decoder's original methods unchanged.
    """

    def __init__(self, decoder, encoded):
        self.decoder = decoder
        self.encoded = encoded

    def initial_state(self):
        return self.decoder._initial_state(self.encoded)

    def start(self):
        return self.decoder.start_embedding

    def step(self, prev, state, *, reuse: bool = False):
        return self.decoder._step(prev, state, self.encoded)

    def pointer_scores(self, kind: str, h) -> np.ndarray:
        return self.decoder._head_logits(kind, h, self.encoded).data

    def pointer_log_probs(self, kind: str, h) -> np.ndarray:
        return log_softmax(self.decoder._head_logits(kind, h, self.encoded)).data

    def grammar_mask(self, expected, **flags):
        return self.decoder._grammar_mask(
            expected, self.encoded.num_values, **flags
        )

    def sketch_log_probs(self, h, mask) -> np.ndarray:
        return masked_log_softmax(self.decoder.sketch_head(h), mask).data

    def feed(self, kind: str, index: int):
        return self.decoder._feed_embedding(kind, index, self.encoded)


class StepCache:
    """Raw-numpy decoder ops with per-request memoization and an arena.

    One instance serves exactly one request (one ``encoded``); do not
    share across requests — every memo is keyed on request-local
    indexes.
    """

    def __init__(self, decoder, encoded):
        self.decoder = decoder
        self.encoded = encoded
        config = decoder.config
        dim = config.dim
        hidden = config.decoder_hidden

        # Raw parameter views (no copies).
        self._w_ctx = decoder.context_attention.proj.weight.data
        self._w_cell = decoder.cell.weight.data
        self._b_cell = decoder.cell.bias.data
        self._w_sketch = decoder.sketch_head.weight.data
        self._b_sketch = decoder.sketch_head.bias.data
        self._question = encoded.question.data
        self._start = decoder.start_embedding.data

        # Per-request memos, all computed lazily through the original
        # Tensor methods (bit-equality by construction).
        self._pointer_memory: dict[str, np.ndarray] = {}
        self._feeds: dict[tuple[str, int], np.ndarray] = {}
        self._masks: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

        # Arena: every per-step intermediate, preallocated once.  The
        # (h, c) ping-pong pairs are for greedy (``reuse=True``); beam
        # steps allocate fresh state arrays instead.
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

    def feed(self, kind: str, index: int) -> np.ndarray:
        key = (kind, index)
        value = self._feeds.get(key)
        if value is None:
            value = self.decoder._feed_embedding(kind, index, self.encoded).data
            self._feeds[key] = value
        return value

    def _memory(self, kind: str) -> np.ndarray:
        m = self._pointer_memory.get(kind)
        if m is None:
            decoder, encoded = self.decoder, self.encoded
            if kind == "C":
                pointer, bank = decoder.column_pointer, encoded.columns
            elif kind == "T":
                pointer, bank = decoder.table_pointer, encoded.tables
            else:
                pointer, bank = decoder.value_pointer, encoded.values
            # Same op the Tensor path runs every step, done once here.
            m = pointer.memory_proj(bank).data
            self._pointer_memory[kind] = m
        return m

    def grammar_mask(self, expected, **flags):
        key = (expected, tuple(sorted(flags.items())))
        entry = self._masks.get(key)
        if entry is None:
            mask = self.decoder._grammar_mask(
                expected, self.encoded.num_values, **flags
            )
            penalty = np.where(mask, 0.0, NEG_INF)
            entry = (mask, penalty)
            self._masks[key] = entry
        return entry

    # ------------------------------------------------------- per-step math

    def step(self, prev, state, *, reuse: bool = False):
        """One decoder step: context attention + LSTM cell, arena-backed.

        Mirrors ``ValueNetDecoder._step`` operation for operation
        (dropout is identity under ``inference_mode``, so it is omitted).
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
        if reuse:
            h_next, c_next = self._states[self._flip]
            self._flip ^= 1
        else:
            h_next, c_next = np.empty(d), np.empty(d)
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
        pointer = {
            "C": self.decoder.column_pointer,
            "T": self.decoder.table_pointer,
            "V": self.decoder.value_pointer,
        }[kind]
        if kind == "V" and self.encoded.values is None:
            from repro.errors import ModelError

            raise ModelError("value pointer invoked without candidates")
        q = np.matmul(h, pointer.query_proj.weight.data)
        q += pointer.query_proj.bias.data
        combined = np.tanh(self._memory(kind) + q)
        n = combined.shape[0]
        return np.matmul(combined, pointer.scorer.weight.data).reshape(n)

    def pointer_log_probs(self, kind: str, h: np.ndarray) -> np.ndarray:
        return self._log_softmax(self.pointer_scores(kind, h))

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
