"""Differential tests: the batched inference path must be indistinguishable
from the sequential one.

Covers the three layers of the fast path: ``inference_mode`` (no autograd
graph, identical numerics), ``ValueNetEncoder.encode_batch`` (padded +
masked fused forward == per-example forwards), and the pipeline, where
``translate`` is ``translate_batch`` of one (identical final SQL and
errors whatever the batch size).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ModelError
from repro.model import SchemaFeatureCache, ValueNetModel, build_vocabulary, featurize
from repro.nn import Tensor, inference_mode, is_grad_enabled
from repro.pipeline import ValueNetPipeline
from repro.preprocessing import Preprocessor
from repro.spider import CorpusConfig, generate_corpus

TINY = ModelConfig(
    dim=32, num_layers=1, num_heads=2, ff_dim=48, summary_hidden=16,
    decoder_hidden=32, pointer_hidden=24, dropout=0.0, word_dropout=0.0,
)

ENCODED_FIELDS = ("question", "columns", "tables", "values", "summary")


@pytest.fixture(scope="module")
def corpus():
    corpus = generate_corpus(CorpusConfig(train_per_domain=8, dev_per_domain=4))
    yield corpus
    corpus.close()


@pytest.fixture(scope="module")
def model(corpus):
    vocab = build_vocabulary(
        [e.question for e in corpus.train],
        [corpus.schema(d) for d in corpus.train_domains],
        [str(v) for e in corpus.train for v in e.values],
        vocab_size=600,
    )
    return ValueNetModel(vocab, TINY)


@pytest.fixture(scope="module")
def domain_examples(corpus):
    """(database, preprocessed questions) for the first training domain."""
    domain = corpus.train_domains[0]
    db = corpus.database(domain)
    questions = [e.question for e in corpus.train if e.db_id == domain]
    preprocessor = Preprocessor(db)
    return db, [preprocessor.run(q) for q in questions]


def max_abs_diff(a, b) -> float:
    if a is None and b is None:
        return 0.0
    assert (a is None) == (b is None)
    assert a.shape == b.shape
    return float(np.max(np.abs(a.data - b.data)))


class TestBatchedEncoderEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 2, 8])
    def test_encode_batch_matches_sequential(
        self, model, domain_examples, batch_size
    ):
        db, pres = domain_examples
        pres = pres[:batch_size]
        assert len(pres) == batch_size
        model.eval()
        sequential = [model.encode(pre, db.schema) for pre in pres]
        batched = model.encode_batch(pres, db.schema)
        assert len(batched) == batch_size
        for seq, bat in zip(sequential, batched):
            for name in ENCODED_FIELDS:
                diff = max_abs_diff(getattr(seq, name), getattr(bat, name))
                assert diff < 1e-6, f"{name} differs by {diff}"

    def test_mixed_lengths_pad_correctly(self, model, domain_examples):
        # Sort by length so the batch mixes the shortest and longest
        # sequences — padding is maximally exercised.
        db, pres = domain_examples
        inputs = [featurize(p, db.schema, model.vocab) for p in pres]
        order = np.argsort([inp.length for inp in inputs])
        mixed = [pres[order[0]], pres[order[-1]], pres[order[len(order) // 2]]]
        lengths = {featurize(p, db.schema, model.vocab).length for p in mixed}
        assert len(lengths) > 1, "corpus questions are all the same length"
        model.eval()
        sequential = [model.encode(pre, db.schema) for pre in mixed]
        batched = model.encode_batch(mixed, db.schema)
        for seq, bat in zip(sequential, batched):
            for name in ENCODED_FIELDS:
                assert max_abs_diff(getattr(seq, name), getattr(bat, name)) < 1e-6

    def test_decode_parity_including_errors(self, model, domain_examples):
        db, pres = domain_examples

        def outcome(pre, encoded):
            try:
                return repr(model.decode_encoded(encoded, pre, db.schema))
            except ModelError as exc:
                return f"ModelError: {exc}"

        model.eval()
        sequential = [model.encode(pre, db.schema) for pre in pres]
        batched = model.encode_batch(pres, db.schema)
        for pre, seq, bat in zip(pres, sequential, batched):
            assert outcome(pre, seq) == outcome(pre, bat)

    def test_pipeline_translate_batch_matches_translate(self, model, corpus):
        """One path: a batch of N equals N batches of one (errors included)."""
        domain = corpus.train_domains[0]
        db = corpus.database(domain)
        questions = [e.question for e in corpus.train if e.db_id == domain]
        pipeline = ValueNetPipeline(model, db)
        sequential = [pipeline.translate(q) for q in questions]
        batched = pipeline.translate_batch(questions)
        assert len(batched) == len(sequential)
        for seq, bat in zip(sequential, batched):
            assert bat.sql == seq.sql
            assert bat.error == seq.error

    def test_empty_and_singleton_batches(self, model, domain_examples):
        db, pres = domain_examples
        assert model.encode_batch([], db.schema) == []
        pipeline = ValueNetPipeline(model, db)
        assert pipeline.translate_batch([]) == []
        [only] = pipeline.translate_batch([pres[0].question])
        assert only.sql == pipeline.translate(pres[0].question).sql

    def test_batch_outputs_carry_no_graph(self, model, domain_examples):
        db, pres = domain_examples
        for encoded in model.encode_batch(pres[:3], db.schema):
            assert not encoded.summary.requires_grad
            assert encoded.summary._parents == ()


class TestInferenceMode:
    def test_forward_matches_grad_mode(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(7, 3)), requires_grad=True)

        def forward():
            return ((a @ w).tanh() * 0.5 + 1.0).relu().sum(axis=0)

        with_grad = forward()
        with inference_mode():
            without_grad = forward()
        np.testing.assert_array_equal(with_grad.data, without_grad.data)
        assert with_grad.requires_grad
        assert not without_grad.requires_grad

    def test_no_backward_graph_allocated(self):
        a = Tensor(np.ones((4, 4)), requires_grad=True)
        with inference_mode():
            out = (a @ a).relu()
            assert out._parents == ()
            assert out._backward is None
        assert is_grad_enabled()

    def test_nested_and_exception_safe(self):
        assert is_grad_enabled()
        try:
            with inference_mode():
                assert not is_grad_enabled()
                with inference_mode():
                    assert not is_grad_enabled()
                assert not is_grad_enabled()
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()

    def test_constant_inputs_skip_graph_in_grad_mode(self):
        # The op-level fast path: when no input requires grad, ops must
        # not allocate closures even outside inference_mode.
        a = Tensor(np.ones((3, 3)))
        b = Tensor(np.ones((3, 3)))
        out = (a @ b + a).tanh()
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None

    def test_backward_through_inference_output_fails(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with inference_mode():
            out = (a * 2.0).sum()
        # The output is detached: backward is a no-op that reaches no
        # parameters (it has no graph to traverse).
        assert out._parents == ()
        assert a.grad is None


class TestSchemaFeatureCache:
    def test_cached_featurize_is_identical(self, model, domain_examples):
        db, pres = domain_examples
        cache = SchemaFeatureCache()
        for pre in pres[:4]:
            plain = featurize(pre, db.schema, model.vocab)
            cached = featurize(pre, db.schema, model.vocab, cache=cache)
            assert cached.piece_ids == plain.piece_ids
            assert cached.segment_ids == plain.segment_ids
            assert cached.hint_ids == plain.hint_ids
            assert cached.type_ids == plain.type_ids
            assert cached.column_hints == plain.column_hints
            assert cached.table_hints == plain.table_hints
        assert len(cache) == 1

    def test_cache_reuses_entry_per_schema(self, model, domain_examples):
        db, pres = domain_examples
        cache = SchemaFeatureCache()
        first = cache.get(db.schema, model.vocab)
        second = cache.get(db.schema, model.vocab)
        assert first is second

    def test_model_encode_populates_cache(self, corpus):
        vocab = build_vocabulary(
            [e.question for e in corpus.train],
            [corpus.schema(d) for d in corpus.train_domains],
            [str(v) for e in corpus.train for v in e.values],
            vocab_size=600,
        )
        model = ValueNetModel(vocab, TINY)
        domain = corpus.train_domains[0]
        db = corpus.database(domain)
        pre = Preprocessor(db).run(
            next(e.question for e in corpus.train if e.db_id == domain)
        )
        assert len(model.schema_cache) == 0
        model.encode(pre, db.schema)
        assert len(model.schema_cache) == 1
        model.encode(pre, db.schema)
        assert len(model.schema_cache) == 1
