"""The ValueNet decoder (paper Section III-B2).

An LSTM emits SemQL 2.0 actions in pre-order under the grammar's dynamic
legal-action constraint; pointer networks select columns, tables and value
candidates.  At each step the decoder attends over the question encodings
(bilinear attention), consumes the embedding of the previously emitted
action, and routes its hidden state to the head the grammar expects:

* grammar head — masked softmax over the global production vocabulary,
* column / table / value pointer networks — softmax over item encodings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ModelConfig
from repro.errors import ModelError
from repro.model.encoder import EncodedExample
from repro.model.stepcache import ReferenceOps, StepCache
from repro.nn.attention import BilinearAttention, PointerNetwork
from repro.nn.functional import NEG_INF, attention_pool, masked_log_softmax, softmax
from repro.nn.layers import Dropout, Embedding, Linear, Module
from repro.nn.rnn import LSTMCell
from repro.nn.tensor import Tensor, concat, stack
from repro.semql.actions import (
    ActionType,
    GRAMMAR_ACTION_LIST,
    NUM_GRAMMAR_ACTIONS,
    POINTER_TYPES,
    actions_for_type,
)
from repro.semql.tree import GrammarState


def _padded(banks: list[Tensor | None], rows: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """``banks[rows[r]]`` for each r as (R, n_max, dim) plus the (R, n_max)
    mask of real items; padding repeats a bank's first item (mask it out)."""
    sizes = np.array([0 if bank is None else bank.shape[0] for bank in banks])
    offsets = (np.cumsum(sizes) - sizes)[rows, None]
    real = np.arange(sizes[rows].max()) < sizes[rows, None]
    flat = concat([bank for bank in banks if bank is not None], axis=0)
    return flat[offsets + np.arange(real.shape[1]) * real], real


@dataclass(frozen=True)
class DecoderStep:
    """One supervised decoding step.

    ``kind`` is ``grammar`` / ``C`` / ``T`` / ``V``; ``target`` is the
    global grammar-action id or the pointer index, respectively.
    """

    kind: str
    target: int


# Pointer index of the schema's ``*`` column (featurize encodes
# ``Schema.all_columns()``, which lists it first).  Decoding never picks
# it as a bare filter operand (see Partial.constrain).
STAR_COLUMN = 0

# Grammar actions that expand recursively (Filter and/or conjunctions,
# sub-query productions): the decode budget policy caps how many may be
# emitted.  Request-independent, so computed once at import.
RECURSIVE_ACTION = np.array([
    ActionType.FILTER in action.children or ActionType.R in action.children
    for action in GRAMMAR_ACTION_LIST
])
assert RECURSIVE_ACTION.shape == (NUM_GRAMMAR_ACTIONS,)


@dataclass
class Partial:
    """One partial decode and the decode-time rules over it.

    Greedy decoding and beam search are two drivers over this type: they
    ask it which actions are legal next and tell it which one they chose.
    Training masks are flag-free by design and do not go through it.
    """

    grammar: GrammarState = field(default_factory=GrammarState)
    steps: list[DecoderStep] = field(default_factory=list)
    # The column of a C not yet followed by its T.
    last_column: int | None = None
    # Recursive productions emitted so far, counted as they are emitted
    # so the budget rule never rescans ``steps``.
    recursive: int = 0

    def mask_flags(self, max_steps: int) -> dict:
        """The decode-time flags of ``ValueNetDecoder._grammar_mask``.

        A pending non-terminal costs up to ~6 further steps (Filter -> A
        -> C, T plus a value/sub-query); once the remaining budget cannot
        cover that, stop recursing.  A hard cap on recursive expansions
        (no real query nests eight conjunctions or sub-queries)
        backstops the estimate.
        """
        grammar = self.grammar
        remaining = max_steps - len(self.steps)
        return {
            "conserve_budget": (
                remaining < 6 * grammar.pending + 12 or self.recursive >= 8
            ),
            "in_subquery": grammar.expected_in_subquery(),
            "in_compound": grammar.expected_in_compound_branch(),
            "required_arity": grammar.required_select_arity(),
        }

    def constrain(
        self,
        expected: ActionType,
        scores: np.ndarray,
        column_to_table: list[int | None] | None,
    ) -> None:
        """Set the scores of excluded pointer actions to ``NEG_INF``, in place.

        ``*`` is never a bare filter operand, and when ``column_to_table``
        (column index -> owning table index, None for ``*``) is given, the
        T after a C is its column's table: every gold tree satisfies both,
        so they only remove inconsistent predictions.
        """
        if expected is ActionType.C and self.grammar.expects_bare_filter_column():
            scores[STAR_COLUMN] = NEG_INF
        elif (
            expected is ActionType.T
            and column_to_table is not None
            and self.last_column is not None
            and column_to_table[self.last_column] is not None
        ):
            forced = column_to_table[self.last_column]
            keep = scores[forced]
            scores[:] = NEG_INF
            scores[forced] = keep

    def advance(self, expected: ActionType, index: int) -> DecoderStep:
        """Emit action ``index`` of the ``expected`` type; returns its step."""
        if expected in POINTER_TYPES:
            step = DecoderStep(expected.value, index)
            self.grammar.advance_pointer(expected)
            if expected is ActionType.C:
                self.last_column = index
            elif expected is ActionType.T:
                self.last_column = None
        else:
            step = DecoderStep("grammar", index)
            self.grammar.advance_grammar(GRAMMAR_ACTION_LIST[index])
            self.recursive += int(RECURSIVE_ACTION[index])
        self.steps.append(step)
        return step

    def extended(self, expected: ActionType, index: int) -> Partial:
        """A copy that has emitted action ``index`` (beam search forks)."""
        copy = Partial(
            self.grammar.clone(), list(self.steps), self.last_column, self.recursive
        )
        copy.advance(expected, index)
        return copy


class ValueNetDecoder(Module):
    """Grammar-constrained LSTM decoder with pointer networks."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        dim = config.dim
        hidden = config.decoder_hidden
        self.config = config

        # "decoder" parameter group
        self.action_embedding = Embedding(NUM_GRAMMAR_ACTIONS, dim, rng)
        self.start_embedding = Tensor(
            rng.normal(0.0, 0.1, size=dim), requires_grad=True
        )
        self.cell = LSTMCell(2 * dim, hidden, rng)
        self.sketch_head = Linear(hidden, NUM_GRAMMAR_ACTIONS, rng)
        self.dropout = Dropout(config.dropout, rng)

        # "connection" parameter group: everything touching encoder output
        self.context_attention = BilinearAttention(hidden, dim, rng)
        self.init_projection = Linear(dim, hidden, rng)
        self.column_pointer = PointerNetwork(hidden, dim, config.pointer_hidden, rng)
        self.table_pointer = PointerNetwork(hidden, dim, config.pointer_hidden, rng)
        self.value_pointer = PointerNetwork(hidden, dim, config.pointer_hidden, rng)
        self.column_feed = Linear(dim, dim, rng)
        self.table_feed = Linear(dim, dim, rng)
        self.value_feed = Linear(dim, dim, rng)

    # ------------------------------------------------------- param groups

    def connection_modules(self) -> list[Module]:
        """Sub-modules in the paper's "connection parameters" group."""
        return [
            self.context_attention, self.init_projection,
            self.column_pointer, self.table_pointer, self.value_pointer,
            self.column_feed, self.table_feed, self.value_feed,
        ]

    def decoder_parameters(self) -> list[Tensor]:
        connection_ids = {
            id(p) for module in self.connection_modules() for p in module.parameters()
        }
        return [p for p in self.parameters() if id(p) not in connection_ids]

    def connection_parameters(self) -> list[Tensor]:
        return [p for module in self.connection_modules() for p in module.parameters()]

    # ----------------------------------------------------------- plumbing

    def _initial_state(self, encoded: EncodedExample) -> tuple[Tensor, Tensor]:
        h0 = self.init_projection(encoded.summary).tanh()
        c0 = Tensor(np.zeros(self.config.decoder_hidden))
        return h0, c0

    def _step(
        self,
        prev_embedding: Tensor,
        state: tuple[Tensor, Tensor],
        encoded: EncodedExample,
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        scores = self.context_attention(state[0], encoded.question)
        context = attention_pool(scores, encoded.question)
        x = concat([prev_embedding, context], axis=-1)
        h, c = self.cell(x, state)
        return self.dropout(h), (h, c)

    def _grammar_mask(
        self,
        expected: ActionType,
        num_values: int,
        *,
        conserve_budget: bool = False,
        in_subquery: bool = False,
        in_compound: bool = False,
        required_arity: int | None = None,
    ) -> np.ndarray:
        """Legal-production mask for the expected non-terminal.

        ``conserve_budget`` additionally disables recursive productions
        (Filter and/or, sub-query expansions; a Filter keeps its
        sub-queries when the question has no values) so a decode nearing
        the step cap is forced towards termination instead of aborting.
        ``in_subquery`` restricts SELECT to one projection — comparison
        operands must be scalar sub-queries.  ``required_arity`` pins the
        SELECT projection count (right branch of a compound query).
        """
        mask = np.zeros(NUM_GRAMMAR_ACTIONS, dtype=bool)
        for action_id in actions_for_type(expected):
            action = GRAMMAR_ACTION_LIST[action_id]
            if num_values == 0 and (
                ActionType.V in action.children
                # Superlative always expands to a V (its LIMIT), so it is
                # equally unusable without candidates.
                or ActionType.SUPERLATIVE in action.children
            ):
                continue  # unusable production: nothing to point at
            if conserve_budget and (
                ActionType.FILTER in action.children
                # Without a value to point at, a sub-query is the one
                # way left to close a Filter.
                or (ActionType.R in action.children
                    and (num_values > 0 or expected is not ActionType.FILTER))
            ):
                continue
            if (
                in_subquery
                and expected is ActionType.SELECT
                and len(action.children) > 1
            ):
                continue  # scalar sub-query: exactly one projection
            if (
                required_arity is not None
                and expected is ActionType.SELECT
                and len(action.children) != required_arity
            ):
                continue  # compound branches must project equally
            if (
                in_compound
                and expected is ActionType.R
                and (
                    ActionType.ORDER in action.children
                    or ActionType.SUPERLATIVE in action.children
                )
            ):
                continue  # SQLite: no ORDER BY inside compound branches
            mask[action_id] = True
        if not mask.any():
            # Every production was excluded; fall back to the unconstrained
            # production set so decoding can continue (the sample may simply
            # fail at execution).
            for action_id in actions_for_type(expected):
                mask[action_id] = True
        return mask

    def _head_logits(
        self, kind: str, h: Tensor, encoded: EncodedExample
    ) -> Tensor:
        if kind == "C":
            return self.column_pointer(h, encoded.columns)
        if kind == "T":
            return self.table_pointer(h, encoded.tables)
        if kind == "V":
            if encoded.values is None:
                raise ModelError("value pointer invoked without candidates")
            return self.value_pointer(h, encoded.values)
        raise ModelError(f"unknown pointer kind {kind!r}")

    def _feed_embedding(
        self, kind: str, index: int, encoded: EncodedExample
    ) -> Tensor:
        if kind == "grammar":
            return self.action_embedding([index]).reshape(self.config.dim)
        if kind == "C":
            return self.column_feed(encoded.columns[index])
        if kind == "T":
            return self.table_feed(encoded.tables[index])
        assert encoded.values is not None
        return self.value_feed(encoded.values[index])

    # ------------------------------------------------------------ training

    def loss_batch(
        self, encodeds: list[EncodedExample], steps_lists: list[list[DecoderStep]]
    ) -> Tensor:
        """Teacher-forced NLL of a minibatch, each row's summed cross-entropy
        scaled by ``1 / len(steps)``; grammar steps are masked by
        ``_grammar_mask(expected, num_values)`` (no decode-time flags).
        Rows advance in lockstep — per step one context attention over the
        padded question memories, one LSTM gate matmul, one dropout mask —
        then one masked head pass covers each kind's steps."""
        # Replay each row's gold steps through the grammar once.
        where: dict[str, list[tuple[int, int, int]]] = {}
        masks = []
        for b, (encoded, steps) in enumerate(zip(encodeds, steps_lists)):
            if not steps:
                raise ModelError("empty decoder target sequence")
            grammar = GrammarState()
            for t, step in enumerate(steps):
                where.setdefault(step.kind, []).append((b, t, step.target))
                if step.kind == "grammar":
                    expected = grammar.expected_type()
                    masks.append(self._grammar_mask(expected, encoded.num_values))
                    grammar.advance_grammar(GRAMMAR_ACTION_LIST[step.target])
                else:
                    grammar.advance_pointer(ActionType(step.kind))
            if not grammar.finished:
                raise ModelError("gold action sequence does not complete the grammar")
        lengths = np.array([len(steps) for steps in steps_lists])
        batch, length = len(encodeds), lengths.max()
        pointers = {
            "C": (self.column_pointer, self.column_feed, [e.columns for e in encodeds]),
            "T": (self.table_pointer, self.table_feed, [e.tables for e in encodeds]),
            "V": (self.value_pointer, self.value_feed, [e.values for e in encodeds]),
        }

        # Feed rows: the start embedding, then the feed embedding of every
        # step but a row's last (which feeds nothing, so stays out of the
        # graph); feeds[b, t] is row b's input at step t.
        pieces = [self.start_embedding.reshape(1, -1)]
        feed_index = np.zeros((batch, length), dtype=np.int64)
        heads = []
        for kind, entries in where.items():
            b, t, target = np.array(entries).T
            fed = np.flatnonzero(t + 1 < lengths[b])
            offset = sum(p.shape[0] for p in pieces)
            feed_index[b[fed], t[fed] + 1] = offset + np.arange(len(fed))
            if kind == "grammar":
                pieces.append(self.action_embedding(target[fed]))
                heads.append((b, t, target, self.sketch_head, (), np.stack(masks)))
            else:
                pointer, feed, banks = pointers[kind]
                memory, real = _padded(banks, b)
                pieces.append(feed(memory[(fed, target[fed])]))
                heads.append((b, t, target, pointer, (memory,), real))
        feeds = concat([p for p in pieces if p.shape[0]], axis=0)[feed_index]

        question, real = _padded([e.question for e in encodeds], np.arange(batch))
        penalty = Tensor(np.where(real, 0.0, NEG_INF))
        states = [self._initial_state(e) for e in encodeds]
        state = (stack([h for h, _ in states]), stack([c for _, c in states]))
        outputs = []
        for t in range(length):
            projected = self.context_attention.proj(state[0]).reshape(batch, -1, 1)
            weights = softmax((question @ projected).reshape(batch, -1) + penalty)
            context = (weights.reshape(batch, 1, -1) @ question).reshape(batch, -1)
            state = self.cell(concat([feeds[:, t], context], axis=-1), state)
            outputs.append(self.dropout(state[0]))
        hidden = stack(outputs, axis=1)

        scale = 1.0 / lengths
        nlls = []
        for b, t, target, head, memory, legal in heads:
            log_probs = masked_log_softmax(head(hidden[(b, t)], *memory), legal)
            nlls.append(-(log_probs[(np.arange(len(t)), target)] * scale[b]).sum())
        return sum(nlls)

    # ----------------------------------------------------------- inference

    def decode(
        self,
        encoded: EncodedExample,
        *,
        column_to_table: list[int | None] | None = None,
        ops: StepCache | ReferenceOps,
    ) -> list[DecoderStep]:
        """Greedy grammar-constrained decoding; returns the emitted steps.

        Args:
            encoded: encoder output.
            column_to_table: optional mapping from column index to owning
                table index (None for the ``*`` column), which pins the T
                after each C to its column's table (:meth:`Partial.constrain`).
            ops: the ops over this one question: a :class:`StepCache`,
                or the :class:`ReferenceOps` oracle (same predictions).
        """
        state = ops.initial_state()
        prev = ops.start()
        partial = Partial()
        max_steps = self.config.max_decode_steps

        while not partial.grammar.finished and len(partial.steps) < max_steps:
            h, state = ops.step(prev, state)
            expected = partial.grammar.expected_type()
            if expected in POINTER_TYPES:
                if expected is ActionType.V and encoded.num_values == 0:
                    raise ModelError("grammar requires a value but no candidates exist")
                scores = ops.pointer_scores(expected.value, h)
                partial.constrain(expected, scores, column_to_table)
            else:
                mask = ops.grammar_mask(expected, **partial.mask_flags(max_steps))
                scores = ops.sketch_log_probs(h, mask)
            step = partial.advance(expected, int(np.argmax(scores)))
            prev = ops.feed(step.kind, step.target)

        if not partial.grammar.finished:
            raise ModelError(f"decoding exceeded {max_steps} steps")
        return partial.steps
