"""Differential lock: step-cached decoding vs the Tensor reference path.

The per-request :class:`StepCache` replays the decoder's hot-loop math in
raw numpy with memoized request constants; the contract is *bitwise*
equality of every op output and therefore prediction-identical decoding.
Two layers of evidence:

* op-level — a replayed action sequence where each step's hidden state,
  pointer scores and sketch log-probs are compared exactly,
* sequence-level — greedy and beam decoding over every dev example of a
  synthetic corpus, cached vs uncached.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ModelError
from repro.model import ValueNetModel, beam_decode, build_vocabulary
from repro.model.stepcache import RECURSIVE_ACTION, ReferenceOps, StepCache
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
        steps = decoder.decode(encoded)  # uncached: supplies the actions
        assert steps, "decode produced no steps"

        ref = ReferenceOps(decoder, encoded)
        cache = StepCache(decoder, encoded)
        state_r, state_c = ref.initial_state(), cache.initial_state()
        assert np.array_equal(state_r[0].data, state_c[0])
        assert np.array_equal(state_r[1].data, state_c[1])
        prev_r, prev_c = ref.start(), cache.start()
        grammar = GrammarState()
        pointer_kinds_seen = set()

        for step in steps:
            h_r, state_r = ref.step(prev_r, state_r)
            h_c, state_c = cache.step(prev_c, state_c, reuse=True)
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
                assert np.array_equal(
                    ref.pointer_log_probs(step.kind, h_r),
                    cache.pointer_log_probs(step.kind, h_c),
                ), f"{step.kind} pointer log-probs diverged"
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
        model.decoder.decode(encoded, cache=cache)
        # Pointer memory projections: computed at most once per kind.
        assert 1 <= len(cache._pointer_memory) <= 3
        # Repeated lookups return the very same objects, not recomputes.
        (kind, memory), = list(cache._pointer_memory.items())[:1]
        assert cache._memory(kind) is memory
        key, feed = next(iter(cache._feeds.items()))
        assert cache.feed(*key) is feed
        assert cache._masks, "no grammar masks were memoized"
        sig, entry = next(iter(cache._masks.items()))
        expected, flags = sig
        assert cache.grammar_mask(expected, **dict(flags)) is entry

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
                encoded, column_to_table=column_to_table
            ))
            cached = _outcome(lambda: model.decoder.decode(
                encoded, column_to_table=column_to_table,
                cache=StepCache(model.decoder, encoded),
            ))
            return uncached, cached

        self._run(dev_setup, pair)

    def test_beam_cached_matches_reference(self, dev_setup):
        def pair(model, encoded, column_to_table):
            uncached = _outcome(lambda: beam_decode(
                model.decoder, encoded, beam_size=3,
                column_to_table=column_to_table,
            ))
            cached = _outcome(lambda: beam_decode(
                model.decoder, encoded, beam_size=3,
                column_to_table=column_to_table,
                cache=StepCache(model.decoder, encoded),
            ))
            return uncached, cached

        self._run(dev_setup, pair)


class TestModelWiring:
    def test_predict_defaults_to_cached_path(self, model, pets_db):
        pre = Preprocessor(pets_db).run("How many students are there?")
        tree = model.predict(pre, pets_db.schema, beam_size=1)
        tree.validate()
