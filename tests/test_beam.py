"""Tests for beam-search decoding (a batch in lockstep)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ModelError
from repro.model import (
    EncodedExample, ValueNetDecoder, ValueNetModel, beam_decode, build_vocabulary,
)
from repro.model.decoder import STAR_COLUMN
from repro.model.stepcache import ReferenceOps, StepCache
from repro.model.supervision import steps_to_tree
from repro.nn import inference_mode
from repro.preprocessing import Preprocessor
from repro.semql.actions import (
    ActionType,
    GRAMMAR_ACTION_INDEX,
    GRAMMAR_ACTION_LIST,
    GrammarAction,
    NUM_GRAMMAR_ACTIONS,
    production_index,
)
from repro.semql.tree import GrammarState
from repro.spider import CorpusConfig, generate_corpus

TINY = ModelConfig(
    dim=32, num_layers=1, num_heads=2, ff_dim=48, summary_hidden=16,
    decoder_hidden=32, pointer_hidden=24, dropout=0.0, word_dropout=0.0,
)


@pytest.fixture(scope="module")
def model():
    vocab = build_vocabulary(
        ["how many students are there", "list all students from france"] * 4,
        [], ["France"], vocab_size=200,
    )
    return ValueNetModel(vocab, TINY)


def _outcome(result):
    # Failure parity: messages differ by design (greedy names the cause,
    # beam reports an empty beam), so compare only that both failed.
    return "ModelError" if isinstance(result, ModelError) else result


def _column_to_table(schema):
    return [
        None if column.is_star() else schema.table_index(column.table)
        for column in schema.all_columns()
    ]


class TestBeamDecode:
    def test_returns_complete_grammar_sequence(self, model, pets_db):
        pre = Preprocessor(pets_db).run("How many students are there?")
        encoded = model.encode(pre, pets_db.schema)
        [steps] = beam_decode(
            model.decoder, [encoded], beam_size=3,
            ops=ReferenceOps(model.decoder, encoded),
        )
        tree = steps_to_tree(steps, pets_db.schema, pre.candidates)
        tree.validate()

    def test_beam_one_matches_greedy(self, model, pets_db):
        pre = Preprocessor(pets_db).run("List the students from France")
        greedy = model.predict(pre, pets_db.schema, beam_size=1).to_sexpr()
        beam = model.predict(pre, pets_db.schema, beam_size=2)
        beam.validate()
        # beam>=1 must at least contain the greedy hypothesis, so its score
        # is >= the greedy one; the trees may legitimately differ, but both
        # are valid grammar products
        assert isinstance(greedy, str)

    def test_beam_score_not_worse_than_greedy(self, model, pets_db):
        """The greedy sequence is always in the beam, so the beam's best
        total log-probability can never be lower."""
        from repro.nn.functional import masked_log_softmax, log_softmax

        pre = Preprocessor(pets_db).run("How many students are there?")
        encoded = model.encode(pre, pets_db.schema)

        def sequence_logprob(steps):
            decoder = model.decoder
            decoder.eval()
            state = decoder._initial_state(encoded)
            prev = decoder.start_embedding
            grammar = GrammarState()
            total = 0.0
            for step in steps:
                h, state = decoder._step(prev, state, encoded)
                if step.kind == "grammar":
                    logits = decoder.sketch_head(h)
                    mask = decoder._grammar_mask(
                        grammar.expected_type(), encoded.num_values
                    )
                    total += float(masked_log_softmax(logits, mask).data[step.target])
                    grammar.advance_grammar(GRAMMAR_ACTION_LIST[step.target])
                else:
                    logits = decoder._head_logits(step.kind, h, encoded)
                    total += float(log_softmax(logits).data[step.target])
                    grammar.advance_pointer(ActionType(step.kind))
                prev = decoder._feed_embedding(step.kind, step.target, encoded)
            return total

        ops = ReferenceOps(model.decoder, encoded)
        greedy_steps = model.decoder.decode(encoded, ops=ops)
        [beam_steps] = beam_decode(model.decoder, [encoded], beam_size=4, ops=ops)
        # Compare raw log-probs of both sequences (before length norm).
        assert sequence_logprob(beam_steps) >= sequence_logprob(greedy_steps) - 1e-6 or \
            len(beam_steps) != len(greedy_steps)

    def test_invalid_beam_size(self, model, pets_db):
        pre = Preprocessor(pets_db).run("How many students are there?")
        encoded = model.encode(pre, pets_db.schema)
        with pytest.raises(ValueError):
            beam_decode(
                model.decoder, [encoded], beam_size=0,
                ops=ReferenceOps(model.decoder, encoded),
            )

    def test_empty_batch(self, model):
        assert beam_decode(model.decoder, [], beam_size=3, ops=None) == []

    def test_deterministic(self, model, pets_db):
        pre = Preprocessor(pets_db).run("students older than 20")
        a = model.predict(pre, pets_db.schema, beam_size=3).to_sexpr()
        b = model.predict(pre, pets_db.schema, beam_size=3).to_sexpr()
        assert a == b


@pytest.fixture(scope="module")
def dev_setup():
    corpus = generate_corpus(CorpusConfig(train_per_domain=8, dev_per_domain=4))
    vocab = build_vocabulary(
        [e.question for e in corpus.train],
        [corpus.schema(d) for d in corpus.train_domains],
        [str(v) for e in corpus.train for v in e.values],
        vocab_size=600,
    )
    yield corpus, ValueNetModel(vocab, TINY)
    corpus.close()


class TestBeamGreedyDifferential:
    """beam_size=1 must reproduce the greedy decoder step for step.

    This pins down the two historically divergent details: tie-breaking
    (argmax takes the first maximal index; a reversed argsort took the
    last) and the greedy decoder's recursion cap inside its budget
    policy.  Run over every dev example of a synthetic corpus so all
    grammar branches (aggregates, filters, ordering, compounds) get
    exercised, not just one hand-picked question.
    """

    def test_beam_one_reproduces_greedy_on_dev_set(self, dev_setup):
        corpus, model = dev_setup
        model.eval()
        checked = 0
        for domain in corpus.dev_domains:
            db = corpus.database(domain)
            schema = db.schema
            preprocessor = Preprocessor(db)
            column_to_table = _column_to_table(schema)
            pres = [
                preprocessor.run(example.question)
                for example in corpus.dev if example.db_id == domain
            ]
            encodeds = model.encode_batch(pres, schema)
            # The whole domain in one lockstep batch, StepCache rows.
            with inference_mode():
                beams = beam_decode(
                    model.decoder, encodeds, beam_size=1,
                    column_to_table=column_to_table,
                    ops=StepCache(model.decoder, *encodeds),
                )
            for pre, encoded, beam in zip(pres, encodeds, beams):
                try:
                    greedy = model.decoder.decode(
                        encoded, column_to_table=column_to_table,
                        ops=ReferenceOps(model.decoder, encoded),
                    )
                except ModelError as exc:
                    greedy = exc
                assert _outcome(beam) == _outcome(greedy), (
                    f"beam_size=1 diverged from greedy on {pre.question!r} "
                    f"({domain})"
                )
                checked += 1
        assert checked == len(corpus.dev)
        assert checked >= 10


@pytest.fixture(scope="module")
def dev_batches():
    """Every dev domain's questions, encoded, in batches of eight."""
    corpus = generate_corpus(CorpusConfig(train_per_domain=8, dev_per_domain=16))
    vocab = build_vocabulary(
        [e.question for e in corpus.train],
        [corpus.schema(d) for d in corpus.train_domains],
        [str(v) for e in corpus.train for v in e.values],
        vocab_size=600,
    )
    model = ValueNetModel(vocab, TINY)
    batches = []
    for domain in corpus.dev_domains:
        db = corpus.database(domain)
        preprocessor = Preprocessor(db)
        pres = [preprocessor.run(e.question) for e in corpus.dev if e.db_id == domain]
        encodeds = model.encode_batch(pres, db.schema)
        column_to_table = _column_to_table(db.schema)
        for i in range(0, len(encodeds), 8):
            batches.append((encodeds[i:i + 8], column_to_table))
    yield model, batches
    corpus.close()


def _lockstep(model, encodeds, column_to_table, beam_size=3):
    with inference_mode():
        return [_outcome(result) for result in beam_decode(
            model.decoder, encodeds, beam_size=beam_size,
            column_to_table=column_to_table,
            ops=StepCache(model.decoder, *encodeds),
        )]


class TestLockstep:
    def test_batch_of_eight_equals_each_question_alone(self, dev_batches):
        model, batches = dev_batches
        assert len(batches) >= 8
        for encodeds, column_to_table in batches:
            assert len(encodeds) == 8
            batched = _lockstep(model, encodeds, column_to_table)
            for encoded, result in zip(encodeds, batched):
                assert result == _lockstep(model, [encoded], column_to_table)[0]

    def test_decoder_steps_are_the_longest_beam(self, dev_batches, monkeypatch):
        """One row step per lockstep iteration: a batch costs its longest
        search, not the sum of its hypothesis steps."""
        model, batches = dev_batches
        calls: list[int] = []
        step_rows = StepCache.step_rows

        def spy(self, prevs, h, c, questions):
            calls.append(len(questions))
            return step_rows(self, prevs, h, c, questions)

        monkeypatch.setattr(StepCache, "step_rows", spy)

        def steps(encodeds, column_to_table):
            del calls[:]
            _lockstep(model, encodeds, column_to_table)
            return len(calls), sum(calls)

        for encodeds, column_to_table in batches[:4]:
            alone = [steps([e], column_to_table)[0] for e in encodeds]
            iterations, hypothesis_steps = steps(encodeds, column_to_table)
            assert iterations == max(alone)
            assert hypothesis_steps > iterations

    @pytest.mark.parametrize("doom", ["dies_at_value", "out_of_steps"])
    def test_failing_question_fails_alone(self, dev_batches, monkeypatch, doom):
        model, batches = dev_batches
        by_domain: dict[int, list] = {}  # one column_to_table per domain
        for encodeds, column_to_table in batches:
            by_domain.setdefault(id(column_to_table), []).extend(
                (e, column_to_table) for e in encodeds if e.num_values > 0
            )
        domain = max(by_domain.values(), key=len)
        assert len(domain) >= 7
        with_values = [e for e, _ in domain[:7]]
        column_to_table = domain[0][1]
        doomed = with_values[0]
        doomed = EncodedExample(
            doomed.question, doomed.columns, doomed.tables, None, doomed.summary
        )
        # Questions without values get a grammar they cannot finish: a
        # superlative (its LIMIT is a V, and there is nothing to point
        # at), or filters that only ever conjoin.
        only = {
            "dies_at_value": {ActionType.R: "select_superlative"},
            "out_of_steps": {ActionType.R: "select_filter", ActionType.FILTER: "and"},
        }[doom]
        grammar_mask = ValueNetDecoder._grammar_mask

        def rigged(self, expected, num_values, **flags):
            if num_values == 0 and expected in only:
                mask = np.zeros(NUM_GRAMMAR_ACTIONS, dtype=bool)
                mask[GRAMMAR_ACTION_INDEX[GrammarAction(
                    expected, production_index(expected, only[expected])
                )]] = True
                return mask
            return grammar_mask(self, expected, num_values, **flags)

        monkeypatch.setattr(ValueNetDecoder, "_grammar_mask", rigged)
        batch = with_values[:3] + [doomed] + with_values[3:]
        results = _lockstep(model, batch, column_to_table)
        assert results[3] == "ModelError"
        for encoded, result in zip(batch, results):
            assert result == _lockstep(model, [encoded], column_to_table)[0]
        assert sum(result != "ModelError" for result in results) >= 5


class TestStarIsNoFilterOperand:
    """``*`` is never a bare filter operand, in both decoders."""

    @pytest.fixture()
    def rigged(self, model, monkeypatch):
        """A decoder whose grammar head spells ``SELECT A(none) ... WHERE
        A(none) = V`` and whose column pointer ranks ``*`` first."""
        fresh = ValueNetModel(model.vocab, TINY)
        bias = fresh.decoder.sketch_head.bias.data
        for action_type, name in [
            (ActionType.Z, "single"), (ActionType.R, "select_filter"),
            (ActionType.SELECT, "n1"), (ActionType.A, "none"),
            (ActionType.FILTER, "eq_v"),
        ]:
            bias[GRAMMAR_ACTION_INDEX[GrammarAction(
                action_type, production_index(action_type, name)
            )]] += 50.0
        seen: list[np.ndarray] = []
        scores, rows = StepCache.pointer_scores, StepCache.pointer_log_prob_rows

        def star_first(self, kind, h):
            out = scores(self, kind, h)
            if kind == "C":
                out[STAR_COLUMN] = out.max() + 10.0
                seen.append(out.copy())
            return out

        def star_first_rows(self, kind, h, questions):
            out = rows(self, kind, h, questions)
            if kind == "C":
                out[:, STAR_COLUMN] = out.max(axis=1) + 10.0
                seen.extend(out.copy())
            return out

        monkeypatch.setattr(StepCache, "pointer_scores", star_first)
        monkeypatch.setattr(StepCache, "pointer_log_prob_rows", star_first_rows)
        return fresh, seen

    def _columns(self, steps):
        return [step.target for step in steps if step.kind == "C"]

    def test_greedy_and_beam_one_take_the_next_best_column(self, rigged, pets_db):
        model, seen = rigged
        pre = Preprocessor(pets_db).run("students from France")
        assert pre.candidates
        [encoded] = model.encode_batch([pre], pets_db.schema)
        with inference_mode():
            greedy = model.decoder.decode(
                encoded, ops=StepCache(model.decoder, encoded)
            )
            greedy_seen = seen[:]
            del seen[:]
            [beam] = beam_decode(
                model.decoder, [encoded], beam_size=1,
                ops=StepCache(model.decoder, encoded),
            )
        assert beam == greedy
        for steps, scores in ((greedy, greedy_seen), (beam, seen)):
            select_column, filter_column = self._columns(steps)
            assert select_column == STAR_COLUMN  # top score, and legal there
            assert filter_column == 1 + int(np.argmax(scores[1][1:]))

    def test_beam_never_points_at_star_in_a_filter(self, rigged, pets_db):
        model, _ = rigged
        pre = Preprocessor(pets_db).run("students from France")
        tree = model.predict(pre, pets_db.schema, beam_size=3)
        operands = [
            node.children[0] for node in tree.walk()
            if node.action_type is ActionType.FILTER
            and node.children[0].action_type is ActionType.A
        ]
        assert operands
        for operand in operands:
            if operand.production == production_index(ActionType.A, "none"):
                assert not operand.children[0].column.is_star()
