"""Differential lock: step-cached decoding vs the Tensor reference path.

:class:`StepCache` replays the decoder's hot-loop math in raw numpy with
memoized request constants.  For greedy decoding the contract is
*bitwise* equality of every op output; for the lockstep rows of beam
search it is equality with :class:`ReferenceOps` rows (the Tensor calls
looped row by row) to rounding, and identical decoded steps.  The
uncached side passes :class:`ReferenceOps` explicitly.  Evidence:

* op-level — a replayed action sequence where each step's hidden state,
  pointer scores and sketch log-probs are compared exactly, and rows of
  several questions (padded memories) against the reference rows,
* sequence-level — greedy and lockstep beam decoding over every dev
  example of a synthetic corpus, cached vs uncached.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ModelError
from repro.model import ValueNetModel, beam_decode, build_vocabulary
from repro.model.decoder import RECURSIVE_ACTION
from repro.model.stepcache import ReferenceOps, StepCache
from repro.preprocessing import Preprocessor
from repro.semql.actions import ActionType, GRAMMAR_ACTION_LIST
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


def _outcome(decode):
    try:
        return decode()
    except ModelError:
        # Failure parity: both paths must fail on the same inputs; the
        # messages may legitimately differ.
        return "ModelError"


class TestOpLevelBitwise:
    def test_every_step_output_is_bitwise_identical(self, model, pets_db):
        """Replay a real greedy action sequence through both ops
        implementations and compare every intermediate exactly."""
        pre = Preprocessor(pets_db).run("How many dogs are there?")
        encoded = model.encode(pre, pets_db.schema)
        decoder = model.decoder
        decoder.eval()
        ref = ReferenceOps(decoder, encoded)
        steps = decoder.decode(encoded, ops=ref)  # uncached: supplies the actions
        assert steps, "decode produced no steps"

        cache = StepCache(decoder, encoded)
        state_r, state_c = ref.initial_state(), cache.initial_state()
        assert np.array_equal(state_r[0].data, state_c[0])
        assert np.array_equal(state_r[1].data, state_c[1])
        prev_r, prev_c = ref.start(), cache.start()
        grammar = GrammarState()
        pointer_kinds_seen = set()

        for step in steps:
            h_r, state_r = ref.step(prev_r, state_r)
            h_c, state_c = cache.step(prev_c, state_c)
            assert np.array_equal(h_r.data, h_c), "hidden state diverged"
            assert np.array_equal(state_r[1].data, state_c[1]), "cell diverged"
            expected = grammar.expected_type()
            if step.kind == "grammar":
                mask_r = ref.grammar_mask(expected)
                token_c = cache.grammar_mask(expected)
                assert np.array_equal(
                    ref.sketch_log_probs(h_r, mask_r),
                    cache.sketch_log_probs(h_c, token_c),
                ), "sketch log-probs diverged"
                grammar.advance_grammar(GRAMMAR_ACTION_LIST[step.target])
            else:
                pointer_kinds_seen.add(step.kind)
                assert np.array_equal(
                    ref.pointer_scores(step.kind, h_r),
                    cache.pointer_scores(step.kind, h_c),
                ), f"{step.kind} pointer scores diverged"
                grammar.advance_pointer(ActionType(step.kind))
            feed_r = ref.feed(step.kind, step.target)
            feed_c = cache.feed(step.kind, step.target)
            assert np.array_equal(feed_r.data, feed_c)
            prev_r, prev_c = feed_r, feed_c

        assert {"C", "T"} <= pointer_kinds_seen, "sequence never exercised pointers"

    def test_memoization_actually_caches(self, model, pets_db):
        pre = Preprocessor(pets_db).run("How many dogs are there?")
        encoded = model.encode(pre, pets_db.schema)
        cache = StepCache(model.decoder, encoded)
        model.decoder.decode(encoded, ops=cache)
        # Pointer memory projections: computed at most once per kind.
        assert 1 <= len(cache._pointer_memory) <= 3
        # Repeated lookups return the very same objects, not recomputes.
        ((kind, question), memory), = list(cache._pointer_memory.items())[:1]
        assert cache._memory(kind, question) is memory
        key, feed = next(iter(cache._feeds.items()))
        assert cache.feed(*key) is feed
        assert cache._masks, "no grammar masks were memoized"
        sig, entry = next(iter(cache._masks.items()))
        _no_values, expected, conserve, subquery, compound, arity = sig
        assert cache.grammar_mask(
            expected, conserve_budget=conserve, in_subquery=subquery,
            in_compound=compound, required_arity=arity,
        ) is entry

    def test_row_methods_match_reference_rows(self, dev_setup):
        """StepCache rows (padded batch memories, stacked matmuls) equal
        the ReferenceOps rows (Tensor calls, one row at a time)."""
        corpus, model = dev_setup
        decoder = model.decoder
        domain = corpus.dev_domains[0]
        db = corpus.database(domain)
        preprocessor = Preprocessor(db)
        pres = [preprocessor.run(e.question) for e in corpus.dev if e.db_id == domain]
        encodeds = model.encode_batch(pres, db.schema)
        ref, cache = ReferenceOps(decoder, *encodeds), StepCache(decoder, *encodeds)
        lengths = {e.question.shape[0] for e in encodeds}
        assert len(lengths) > 1, "questions all the same length: nothing padded"

        h_r, c_r = ref.initial_rows()
        h_c, c_c = cache.initial_rows()
        assert np.array_equal(h_r, h_c) and np.array_equal(c_r, c_c)
        # Two hypothesis rows per question, questions in reverse order.
        questions = np.array([q for q in range(len(encodeds)) for _ in range(2)])[::-1]
        rng = np.random.default_rng(0)
        h = h_c[questions] + rng.normal(0.0, 0.1, size=(len(questions), h_c.shape[1]))
        c = c_c[questions]
        prevs_r = [ref.feed("grammar", 3 + int(q), int(q)) for q in questions]
        prevs_c = [cache.feed("grammar", 3 + int(q), int(q)) for q in questions]
        h_r, c_r = ref.step_rows(prevs_r, h, c, questions)
        h_c, c_c = cache.step_rows(prevs_c, h, c, questions)
        np.testing.assert_allclose(h_c, h_r, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c_c, c_r, rtol=0, atol=1e-12)

        for kind in ("C", "T"):
            got = cache.pointer_log_prob_rows(kind, h_c, questions)
            want = ref.pointer_log_prob_rows(kind, h_c, questions)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        valued = np.array([q for q in questions if encodeds[q].num_values > 0])
        if len(valued):
            got = cache.pointer_log_prob_rows("V", h_c[: len(valued)], valued)
            want = ref.pointer_log_prob_rows("V", h_c[: len(valued)], valued)
            for row, q in enumerate(valued):
                n = encodeds[q].num_values
                np.testing.assert_allclose(
                    got[row, :n], want[row, :n], rtol=0, atol=1e-12
                )
                assert (got[row, n:] < -1e20).all(), "padding must never be chosen"

        masks_r = [ref.grammar_mask(ActionType.R, question=int(q)) for q in questions]
        masks_c = [cache.grammar_mask(ActionType.R, question=int(q)) for q in questions]
        got = cache.sketch_log_prob_rows(h_c, masks_c)
        want = ref.sketch_log_prob_rows(h_c, masks_r)
        for row, legal in enumerate(masks_r):
            np.testing.assert_allclose(
                got[row, legal], want[row, legal], rtol=0, atol=1e-12
            )
            assert (got[row, ~legal] < -1e20).all()

    def test_recursive_action_table_matches_budget_policy(self):
        reference = np.array([
            ActionType.FILTER in action.children or ActionType.R in action.children
            for action in GRAMMAR_ACTION_LIST
        ])
        assert np.array_equal(RECURSIVE_ACTION, reference)
        assert RECURSIVE_ACTION.any(), "no recursive productions found"


class TestSequenceIdentityOnDevSet:
    def _run(self, dev_setup, decode_pair):
        corpus, model = dev_setup
        model.eval()
        checked = 0
        for domain in corpus.dev_domains:
            db = corpus.database(domain)
            schema = db.schema
            preprocessor = Preprocessor(db)
            column_to_table = [
                None if column.is_star() else schema.table_index(column.table)
                for column in schema.all_columns()
            ]
            for example in corpus.dev:
                if example.db_id != domain:
                    continue
                pre = preprocessor.run(example.question)
                encoded = model.encode(pre, schema)
                uncached, cached = decode_pair(model, encoded, column_to_table)
                assert cached == uncached, (
                    f"cached decode diverged on {example.question!r} ({domain})"
                )
                checked += 1
        assert checked == len(corpus.dev)
        assert checked >= 10

    def test_greedy_cached_matches_reference(self, dev_setup):
        def pair(model, encoded, column_to_table):
            uncached = _outcome(lambda: model.decoder.decode(
                encoded, column_to_table=column_to_table,
                ops=ReferenceOps(model.decoder, encoded),
            ))
            cached = _outcome(lambda: model.decoder.decode(
                encoded, column_to_table=column_to_table,
                ops=StepCache(model.decoder, encoded),
            ))
            return uncached, cached

        self._run(dev_setup, pair)

    def test_beam_cached_matches_reference(self, dev_setup):
        """Each dev domain as one lockstep batch: StepCache rows against
        ReferenceOps rows."""
        corpus, model = dev_setup
        model.eval()
        checked = 0
        for domain in corpus.dev_domains:
            db = corpus.database(domain)
            schema = db.schema
            preprocessor = Preprocessor(db)
            column_to_table = [
                None if column.is_star() else schema.table_index(column.table)
                for column in schema.all_columns()
            ]
            pres = [
                preprocessor.run(e.question) for e in corpus.dev if e.db_id == domain
            ]
            encodeds = [model.encode(pre, schema) for pre in pres]

            def outcomes(ops):
                return [
                    "ModelError" if isinstance(result, ModelError) else result
                    for result in beam_decode(
                        model.decoder, encodeds, beam_size=3,
                        column_to_table=column_to_table, ops=ops,
                    )
                ]

            uncached = outcomes(ReferenceOps(model.decoder, *encodeds))
            cached = outcomes(StepCache(model.decoder, *encodeds))
            assert cached == uncached, f"cached beam diverged on {domain}"
            checked += len(cached)
        assert checked == len(corpus.dev)
        assert checked >= 10


class TestModelWiring:
    def test_predict_defaults_to_cached_path(self, model, pets_db):
        pre = Preprocessor(pets_db).run("How many students are there?")
        tree = model.predict(pre, pets_db.schema, beam_size=1)
        tree.validate()
