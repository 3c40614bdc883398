"""Beam-search decoding over SemQL 2.0 actions, a batch in lockstep.

The paper's greedy decoder commits to one action per step; beam search
keeps the ``beam_size`` highest-scoring partial action sequences instead
and returns the best *complete* one.  IRNet (ValueNet's base) decodes with
a beam — this module provides the same extension for our decoder, subject
to the identical grammar constraints as the greedy path.

Lockstep contract: :func:`beam_decode` searches a batch of questions at
once.  Each iteration stacks the state of every live hypothesis of every
question into rows and advances them all in one decoder step — one
context attention over the padded question memories, one LSTM gate
matmul — then scores the rows with one sketch-head matmul for those
expecting a grammar action and one pointer pass per kind (C/T/V).  Per
question it keeps the ``beam_size`` best expansions, and only those
survivors are built.  A batch therefore costs as many decoder steps as
its longest search, and each question's search — its candidates, their
order and ties, its step budget, its failure — is the one it would run
alone.

The rows run against the decoder ops interface the caller passes: a
:class:`~repro.model.stepcache.StepCache` over the batch, or
:class:`~repro.model.stepcache.ReferenceOps`, whose row methods loop the
decoder's own Tensor methods and are the oracle the cache is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.model.decoder import DecoderStep, Partial, ValueNetDecoder
from repro.model.encoder import EncodedExample
from repro.model.stepcache import ReferenceOps, StepCache
from repro.semql.actions import POINTER_TYPES


@dataclass
class _Hypothesis:
    """One partial decode: accumulated score plus decoder state.

    ``row`` indexes its ``(h, c)`` in the latest lockstep step's output;
    ``prev`` is the feed embedding of its last action (a Tensor on the
    reference path, a numpy array on the cached path).
    """

    score: float
    row: int
    prev: object
    partial: Partial

    def normalized_score(self) -> float:
        # Length normalization keeps short queries from always winning.
        return self.score / max(len(self.partial.steps), 1) ** 0.7


@dataclass
class _Search:
    """One question's search: its beam and its completed hypotheses."""

    question: int
    beam: list[_Hypothesis]
    completed: list[_Hypothesis] = field(default_factory=list)

    def result(self) -> list[DecoderStep] | ModelError:
        completed = self.completed + [
            h for h in self.beam if h.partial.grammar.finished
        ]
        if not completed:
            return ModelError("beam search found no complete hypothesis")
        return max(completed, key=_Hypothesis.normalized_score).partial.steps


def beam_decode(
    decoder: ValueNetDecoder,
    encodeds: list[EncodedExample],
    *,
    beam_size: int = 4,
    column_to_table: list[int | None] | None = None,
    ops: StepCache | ReferenceOps,
) -> list[list[DecoderStep] | ModelError]:
    """Grammar-constrained beam search over a batch, in lockstep.

    Returns one entry per question of ``encodeds``: its best complete
    steps, or the :class:`ModelError` that ended its search (no
    hypothesis completed within the step budget), which fails that
    question alone.  ``ops`` are the decoder ops over the same
    ``encodeds``; ``column_to_table`` is shared, so the batch is over one
    schema.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be positive, got {beam_size}")
    if not encodeds:
        return []
    max_steps = decoder.config.max_decode_steps

    h, c = ops.initial_rows()
    start = ops.start()
    active = [
        _Search(q, [_Hypothesis(0.0, q, start, Partial())])
        for q in range(len(encodeds))
    ]
    results: list = [None] * len(encodeds)

    for _step in range(max_steps):
        # Retire finished hypotheses; every live one becomes a row,
        # question-major, each question's in beam order.
        rows: list[_Hypothesis] = []
        owners: list[int] = []
        running = []
        for search in active:
            search.completed += [h for h in search.beam if h.partial.grammar.finished]
            search.beam = [h for h in search.beam if not h.partial.grammar.finished]
            if search.beam:
                running.append(search)
                rows += search.beam
                owners += [search.question] * len(search.beam)
            else:
                results[search.question] = search.result()
        active = running
        if not rows:
            break

        index = [hyp.row for hyp in rows]
        h, c = ops.step_rows(
            [hyp.prev for hyp in rows], h[index], c[index], np.array(owners)
        )
        expected, expansions = _expansions(
            ops, rows, owners, h, beam_size, column_to_table, max_steps
        )

        active = []
        row = 0
        for search in running:
            # (score, row, index) in row order then rank order; the stable
            # sort keeps that order among equal scores.
            candidates = []
            for r in range(row, row + len(search.beam)):
                candidates += [(score, r, i) for score, i in expansions[r]]
            row += len(search.beam)
            if not candidates:
                results[search.question] = search.result()
                continue
            candidates.sort(key=lambda candidate: candidate[0], reverse=True)
            search.beam = []
            for score, r, i in candidates[:beam_size]:
                partial = rows[r].partial.extended(expected[r], i)
                prev = ops.feed(partial.steps[-1].kind, i, search.question)
                search.beam.append(_Hypothesis(score, r, prev, partial))
            if len(search.completed) >= beam_size:
                results[search.question] = search.result()
            else:
                active.append(search)

    for search in active:  # out of steps
        results[search.question] = search.result()
    return results


def _expansions(ops, rows, owners, h, beam_size, column_to_table, max_steps):
    """Each row's expected type and its best ``beam_size`` legal
    expansions as ``(score, index)`` pairs, best first."""
    expected = [hyp.partial.grammar.expected_type() for hyp in rows]
    groups: dict[str, list[int]] = {}
    for r, action_type in enumerate(expected):
        kind = action_type.value if action_type in POINTER_TYPES else "grammar"
        if kind == "V" and ops.encodeds[owners[r]].num_values == 0:
            continue  # nothing to point at: the hypothesis dies
        groups.setdefault(kind, []).append(r)

    expansions: list[list[tuple[float, int]]] = [[] for _ in rows]
    for kind, group in groups.items():
        if kind == "grammar":
            masks = [
                ops.grammar_mask(
                    expected[r], question=owners[r],
                    **rows[r].partial.mask_flags(max_steps),
                )
                for r in group
            ]
            log_probs = ops.sketch_log_prob_rows(h[group], masks)
        else:
            log_probs = ops.pointer_log_prob_rows(
                kind, h[group], np.array([owners[r] for r in group])
            )
            for k, r in enumerate(group):
                rows[r].partial.constrain(expected[r], log_probs[k], column_to_table)
        # Stable descending sort: ties resolve to the lowest index, the
        # same choice np.argmax makes in the greedy decoder.
        order = np.argsort(-log_probs, axis=1, kind="stable")[:, :beam_size]
        best = np.take_along_axis(log_probs, order, axis=1)
        for r, indexes, values in zip(group, order.tolist(), best.tolist()):
            base = rows[r].score
            expansions[r] = [
                (base + value, i)
                for i, value in zip(indexes, values)
                if not value < -1e20  # masked, forced out, or padding
            ]
    return expected, expansions
