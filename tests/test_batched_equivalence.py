"""Differential tests: a question's answer must not depend on its batch.

There is one encoder forward, so "sequential" here means a batch of one.
Covers ``inference_mode`` (no autograd graph, identical numerics),
``ValueNetEncoder.encode_batch`` (a question encoded alone == its row of a
padded batch; the packed BiLSTM pass == the per-span summarizer on the
same transformer output; its stacked-step count; how many Tensors one
encode builds; word dropout),
``ValueNetModel.decode_batch`` (greedy and lockstep beam: a question
decoded alone == its slot of the batch, errors included), and the
pipeline, where ``translate`` is ``translate_batch`` of one (identical
final SQL and errors whatever the batch size, equal timing shares).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.model import SchemaFeatureCache, ValueNetModel, build_vocabulary, featurize
from repro.nn import Tensor, TransformerEncoder, inference_mode, is_grad_enabled
from repro.pipeline import ValueNetPipeline
from repro.preprocessing import Preprocessor
from repro.spider import CorpusConfig, generate_corpus
from tests.test_nn_layers import summarize_span

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


@pytest.fixture(scope="module")
def dev_examples(corpus):
    """(database, preprocessed dev questions) per dev domain."""
    out = []
    for domain in corpus.dev_domains:
        db = corpus.database(domain)
        preprocessor = Preprocessor(db)
        out.append((db, [
            preprocessor.run(e.question) for e in corpus.dev if e.db_id == domain
        ]))
    return out


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

        def outcomes(pres, encodeds, beam_size):
            return [
                f"{type(tree).__name__}: {tree}" for tree in model.decode_batch(
                    encodeds, pres, db.schema, beam_size=beam_size
                )
            ]

        model.eval()
        sequential = [model.encode(pre, db.schema) for pre in pres]
        batched = model.encode_batch(pres, db.schema)
        for beam_size in (1, 3):
            alone = [
                outcomes([pre], [seq], beam_size)[0]
                for pre, seq in zip(pres, sequential)
            ]
            assert outcomes(pres, batched, beam_size) == alone
            assert any(not outcome.startswith("ModelError") for outcome in alone)

    def test_encoder_decoder_shares_are_equal_and_fit_the_wall_time(
        self, model, domain_examples
    ):
        """The fused encode + decode is attributed in equal shares."""
        db, pres = domain_examples
        pipeline = ValueNetPipeline(model, db, beam_size=3)
        questions = [pre.question for pre in pres[:8]]
        start = time.perf_counter()
        results = pipeline.translate_batch(questions)
        wall = time.perf_counter() - start
        shares = {result.timings.encoder_decoder for result in results}
        assert len(shares) == 1 and shares.pop() > 0
        assert sum(result.timings.encoder_decoder for result in results) <= wall

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

    def test_dev_set_alone_equals_row_of_a_batch(self, model, dev_examples):
        for db, pres in dev_examples:
            pipeline = ValueNetPipeline(model, db)
            for i in range(0, len(pres), 8):
                chunk = pres[i:i + 8]
                batched = model.encode_batch(chunk, db.schema)
                for pre, bat in zip(chunk, batched):
                    [alone] = model.encode_batch([pre], db.schema)
                    for name in ENCODED_FIELDS:
                        assert max_abs_diff(getattr(alone, name), getattr(bat, name)) < 1e-6
            questions = [pre.question for pre in pres]
            for question, bat in zip(questions, pipeline.translate_batch(questions)):
                alone = pipeline.translate(question)
                assert (bat.sql, bat.error) == (alone.sql, alone.error)

    def test_dev_set_equals_per_span_oracle(self, model, dev_examples, monkeypatch):
        """The packed pass against the reference composition: the per-span
        summarizer on slices of the same transformer output, plus hints."""
        transformer_outputs = []
        forward = TransformerEncoder.__call__

        def recording(self, x, lengths=None):
            transformer_outputs.append(forward(self, x, lengths=lengths))
            return transformer_outputs[-1]

        monkeypatch.setattr(TransformerEncoder, "__call__", recording)
        encoder = model.encoder

        def oracle(contextual, spans, hints, embedding):
            if not spans:
                return None
            rows = np.stack([
                summarize_span(encoder.summarizer, contextual[s.start:s.end]).data
                for s in spans
            ])
            return Tensor(rows + embedding(hints).data if hints else rows)

        for db, pres in dev_examples:
            inputs = [
                featurize(p, db.schema, model.vocab, cache=model.schema_cache)
                for p in pres
            ]
            with inference_mode():
                encoded = encoder.encode_batch(inputs)
                for i, (inp, got) in enumerate(zip(inputs, encoded)):
                    contextual = transformer_outputs[-1][i]
                    want = {
                        "question": oracle(contextual, inp.question_spans, [], None),
                        "columns": oracle(contextual, inp.column_spans,
                                          inp.column_hints, encoder.output_column_hint),
                        "tables": oracle(contextual, inp.table_spans,
                                         inp.table_hints, encoder.output_table_hint),
                        "values": oracle(contextual, inp.value_spans,
                                         inp.value_located, encoder.output_value_located),
                        "summary": contextual[0],
                    }
                    for name in ENCODED_FIELDS:
                        assert max_abs_diff(want[name], getattr(got, name)) < 1e-9, name

    def test_stacked_steps_equal_longest_span(
        self, model, domain_examples, monkeypatch
    ):
        """One packed pass: L_max steps per encode, each advancing both
        directions of every running span as one (2, k, 4h) gate block,
        whatever the number of spans or examples (one LSTM per span, or
        one cell call per direction, fails this)."""
        db, pres = domain_examples
        pres = pres[:8]
        blocks = []
        sigmoid = Tensor.sigmoid
        # The encoder's only sigmoid is the summarizer's gate activation.
        monkeypatch.setattr(
            Tensor, "sigmoid", lambda self: blocks.append(self.shape) or sigmoid(self)
        )

        def spans(pre):
            inp = featurize(pre, db.schema, model.vocab)
            return [
                span.end - span.start
                for kind in (inp.question_spans, inp.column_spans,
                             inp.table_spans, inp.value_spans)
                for span in kind
            ]

        def steps(batch):
            del blocks[:]
            model.encode_batch(batch, db.schema)
            assert all(shape[0] == 2 for shape in blocks)
            return len(blocks), blocks[0][1]

        lengths = [spans(pre) for pre in pres]
        assert max(max(n) for n in lengths) > 1
        for pre, n in zip(pres, lengths):
            assert steps([pre]) == (max(n), len(n))
        assert steps(pres) == (max(max(n) for n in lengths), sum(map(len, lengths)))

    def test_fixture_shaped_encode_builds_fewer_than_250_tensors(
        self, model, domain_examples, monkeypatch
    ):
        """A guard on per-op overhead: a batch-of-one encode of the
        benchmark fixture's model shape (two layers, four heads)."""
        db, pres = domain_examples
        shaped = ValueNetModel(model.vocab, ModelConfig(
            dim=48, ff_dim=96, summary_hidden=32, decoder_hidden=96, pointer_hidden=48,
        ))
        built = []
        init = Tensor.__init__
        monkeypatch.setattr(
            Tensor, "__init__",
            lambda self, *args, **kwargs: built.append(1) or init(self, *args, **kwargs),
        )
        with inference_mode():
            shaped.encode_batch(pres[:1], db.schema)
        assert 0 < len(built) < 250, len(built)

    def test_batch_outputs_carry_no_graph(self, model, domain_examples):
        db, pres = domain_examples
        for encoded in model.encode_batch(pres[:3], db.schema):
            assert not encoded.summary.requires_grad
            assert encoded.summary._parents == ()


class TestWordDropout:
    """Word dropout lives on the one forward, behind ``training and
    is_grad_enabled()``."""

    @pytest.fixture()
    def noisy(self, model):
        config = ModelConfig(**{**TINY.__dict__, "word_dropout": 0.5})
        return ValueNetModel(model.vocab, config)

    def test_training_with_grad_draws_once_per_example(self, noisy, domain_examples):
        db, pres = domain_examples
        inputs = [featurize(p, db.schema, noisy.vocab) for p in pres[:3]]
        noisy.train()
        [first] = noisy.encoder.encode_batch(inputs[:1])
        [second] = noisy.encoder.encode_batch(inputs[:1])
        assert max_abs_diff(first.question, second.question) > 0

        encoder = ValueNetModel(noisy.vocab, noisy.config).train().encoder
        expected = np.random.default_rng(noisy.config.seed + 1)
        for inp in inputs:
            expected.random(inp.length)
        encoder.encode_batch(inputs)
        assert (
            encoder._word_dropout_rng.bit_generator.state
            == expected.bit_generator.state
        )

    @pytest.mark.parametrize("training", [True, False])
    def test_inference_mode_is_deterministic(self, noisy, domain_examples, training):
        db, pres = domain_examples
        if training:
            noisy.train()
        else:
            noisy.eval()
        before = noisy.encoder._word_dropout_rng.bit_generator.state
        first = noisy.encode_batch(pres[:3], db.schema)
        second = noisy.encode_batch(pres[:3], db.schema)
        for a, b in zip(first, second):
            for name in ENCODED_FIELDS:
                assert max_abs_diff(getattr(a, name), getattr(b, name)) == 0.0
        assert noisy.encoder._word_dropout_rng.bit_generator.state == before


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
