"""Beam-search decoding over SemQL 2.0 actions.

The paper's greedy decoder commits to one action per step; beam search
keeps the ``beam_size`` highest-scoring partial action sequences instead
and returns the best *complete* one.  IRNet (ValueNet's base) decodes with
a beam — this module provides the same extension for our decoder, subject
to the identical grammar constraints as the greedy path.

Like :meth:`ValueNetDecoder.decode`, the search runs against the decoder
ops interface: pass a per-request
:class:`~repro.model.stepcache.StepCache` to reuse memoized pointer
memory projections, feed embeddings, and grammar masks across all
hypotheses of the request — predictions are identical either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.model.decoder import DecoderStep, ValueNetDecoder
from repro.model.encoder import EncodedExample
from repro.model.stepcache import RECURSIVE_ACTION, ReferenceOps, StepCache
from repro.semql.actions import ActionType, GRAMMAR_ACTION_LIST
from repro.semql.tree import GrammarState


@dataclass
class _Hypothesis:
    """One partial decode: accumulated score plus decoder state.

    ``state``/``prev`` are Tensors on the reference path and raw numpy
    arrays on the cached path; the search never looks inside them.
    ``recursive`` counts emitted recursive productions incrementally so
    the budget policy does not rescan ``steps`` every expansion.
    """

    score: float
    state: tuple
    prev: object
    grammar: GrammarState
    steps: list[DecoderStep] = field(default_factory=list)
    last_column: int | None = None
    recursive: int = 0

    @property
    def finished(self) -> bool:
        return self.grammar.finished

    def normalized_score(self) -> float:
        # Length normalization keeps short queries from always winning.
        return self.score / max(len(self.steps), 1) ** 0.7


def beam_decode(
    decoder: ValueNetDecoder,
    encoded: EncodedExample,
    *,
    beam_size: int = 4,
    column_to_table: list[int | None] | None = None,
    cache: StepCache | None = None,
) -> list[DecoderStep]:
    """Grammar-constrained beam search; returns the best complete steps.

    Raises:
        ModelError: if no hypothesis completes within the step budget.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be positive, got {beam_size}")
    ops = cache if cache is not None else ReferenceOps(decoder, encoded)

    initial = _Hypothesis(
        score=0.0,
        state=ops.initial_state(),
        prev=ops.start(),
        grammar=GrammarState(),
    )
    beam: list[_Hypothesis] = [initial]
    completed: list[_Hypothesis] = []
    max_steps = decoder.config.max_decode_steps

    for _step in range(max_steps):
        candidates: list[_Hypothesis] = []
        for hypothesis in beam:
            if hypothesis.finished:
                completed.append(hypothesis)
                continue
            candidates.extend(
                _expand(ops, hypothesis, beam_size, column_to_table, max_steps)
            )
        if not candidates:
            break
        candidates.sort(key=lambda h: h.score, reverse=True)
        beam = candidates[:beam_size]
        if len(completed) >= beam_size:
            break

    completed.extend(h for h in beam if h.finished)
    if not completed:
        raise ModelError("beam search found no complete hypothesis")
    best = max(completed, key=lambda h: h.normalized_score())
    return best.steps


def _expand(
    ops,
    hypothesis: _Hypothesis,
    beam_size: int,
    column_to_table: list[int | None] | None,
    max_steps: int,
) -> list[_Hypothesis]:
    # Surviving hypotheses keep references to the returned state, so the
    # cached path must allocate fresh state arrays here (``reuse=False``).
    h, state = ops.step(hypothesis.prev, hypothesis.state)
    grammar = hypothesis.grammar
    expected = grammar.expected_type()

    expansions: list[_Hypothesis] = []
    if expected in (ActionType.C, ActionType.T, ActionType.V):
        kind = expected.value
        if expected is ActionType.V and ops.encoded.num_values == 0:
            return []
        log_probs = ops.pointer_log_probs(kind, h)
        if (
            expected is ActionType.T
            and column_to_table is not None
            and hypothesis.last_column is not None
            and column_to_table[hypothesis.last_column] is not None
        ):
            forced = column_to_table[hypothesis.last_column]
            constrained = np.full_like(log_probs, -1e30)
            constrained[forced] = log_probs[forced]
            log_probs = constrained
        # Stable descending sort: ties resolve to the lowest index, the
        # same choice np.argmax makes in the greedy decoder (a reversed
        # plain argsort would pick the highest index instead, making
        # beam_size=1 diverge from greedy on exact ties).
        for index in np.argsort(-log_probs, kind="stable")[:beam_size]:
            if log_probs[index] < -1e20:
                continue
            fork = grammar.clone()
            fork.advance_pointer(expected)
            next_column = hypothesis.last_column
            if expected is ActionType.C:
                next_column = int(index)
            elif expected is ActionType.T:
                next_column = None
            expansions.append(
                _Hypothesis(
                    score=hypothesis.score + float(log_probs[index]),
                    state=state,
                    prev=ops.feed(kind, int(index)),
                    grammar=fork,
                    steps=hypothesis.steps + [DecoderStep(kind, int(index))],
                    last_column=next_column,
                    recursive=hypothesis.recursive,
                )
            )
        return expansions

    remaining = max_steps - len(hypothesis.steps)
    # Mirror the greedy decoder's budget policy exactly, including its
    # hard cap on recursive expansions — beam_size=1 must reproduce
    # greedy decoding step for step.
    mask = ops.grammar_mask(
        expected,
        conserve_budget=(
            remaining < 6 * grammar.pending + 12 or hypothesis.recursive >= 8
        ),
        in_subquery=grammar.expected_in_subquery(),
        in_compound=grammar.expected_in_compound_branch(),
        required_arity=grammar.required_select_arity(),
    )
    log_probs = ops.sketch_log_probs(h, mask)
    for action_id in np.argsort(-log_probs, kind="stable")[:beam_size]:
        if math.isinf(log_probs[action_id]) or log_probs[action_id] < -1e20:
            continue
        fork = grammar.clone()
        fork.advance_grammar(GRAMMAR_ACTION_LIST[int(action_id)])
        expansions.append(
            _Hypothesis(
                score=hypothesis.score + float(log_probs[action_id]),
                state=state,
                prev=ops.feed("grammar", int(action_id)),
                grammar=fork,
                steps=hypothesis.steps + [DecoderStep("grammar", int(action_id))],
                last_column=hypothesis.last_column,
                recursive=hypothesis.recursive
                + (1 if RECURSIVE_ACTION[int(action_id)] else 0),
            )
        )
    return expansions
