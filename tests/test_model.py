"""Tests for the neural model: featurization, supervision, encode/decode,
training mechanics (the minibatch loss against its per-sample oracle),
and checkpointing."""

from __future__ import annotations

import dataclasses
import gc
import logging
import sys
import threading
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.candidates import ValueCandidate
from repro.config import ModelConfig, TrainingConfig
from repro.errors import ModelError
from repro.evaluation import Hardness
from repro.index import ValueLocation
from repro.model import (
    DecoderStep,
    Trainer,
    ValueNetDecoder,
    ValueNetEncoder,
    ValueNetModel,
    build_preprocessors,
    build_vocabulary,
    featurize,
    match_candidate,
    prepare_samples,
    steps_to_tree,
    train_valuenet,
    tree_to_steps,
)
from repro.model.decoder import Partial
from repro.model.featurize import SEG_COLUMN, SEG_QUESTION, SEG_TABLE, SEG_VALUE
from repro.nn import log_softmax, masked_log_softmax
from repro.nn.transformer import sinusoidal_positions
from repro.preprocessing import Preprocessor
from repro.semql import ActionType, GRAMMAR_ACTION_LIST, GrammarState, query_to_semql
from repro.spider import CorpusConfig, Example, generate_corpus
from repro.sql import parse_sql

TINY = ModelConfig(
    dim=32, num_layers=1, num_heads=2, ff_dim=48, summary_hidden=16,
    decoder_hidden=32, pointer_hidden=24, dropout=0.0, word_dropout=0.0,
)


@pytest.fixture(scope="module")
def tiny_corpus():
    corpus = generate_corpus(CorpusConfig(train_per_domain=8, dev_per_domain=4))
    yield corpus
    corpus.close()


@pytest.fixture(scope="module")
def vocab(tiny_corpus):
    return build_vocabulary(
        [e.question for e in tiny_corpus.train],
        [tiny_corpus.schema(d) for d in tiny_corpus.train_domains],
        [str(v) for e in tiny_corpus.train for v in e.values],
        vocab_size=600,
    )


@pytest.fixture(scope="module")
def model(vocab):
    return ValueNetModel(vocab, TINY)


class TestFeaturize:
    def test_structure(self, pets_db, vocab):
        pre = Preprocessor(pets_db).run("How many French students are there?")
        encoder_input = featurize(pre, pets_db.schema, vocab)
        assert encoder_input.length > 0
        assert len(encoder_input.question_spans) == len(pre.tokens)
        assert len(encoder_input.column_spans) == len(pets_db.schema.all_columns())
        assert len(encoder_input.table_spans) == pets_db.schema.num_tables
        assert len(encoder_input.value_spans) == len(pre.candidates)
        assert len(encoder_input.column_hints) == len(encoder_input.column_spans)
        assert len(encoder_input.value_located) == len(encoder_input.value_spans)

    def test_segments_ordered(self, pets_db, vocab):
        pre = Preprocessor(pets_db).run("students from France")
        encoder_input = featurize(pre, pets_db.schema, vocab)
        segments = encoder_input.segment_ids
        # question pieces come first, then columns, tables, values
        first_column = segments.index(SEG_COLUMN)
        first_table = segments.index(SEG_TABLE)
        assert all(s == SEG_QUESTION for s in segments[:first_column])
        assert first_column < first_table
        if SEG_VALUE in segments:
            assert first_table < segments.index(SEG_VALUE)

    def test_spans_nonempty_and_within_bounds(self, pets_db, vocab):
        pre = Preprocessor(pets_db).run("oldest pets by weight")
        encoder_input = featurize(pre, pets_db.schema, vocab)
        for span in (
            encoder_input.question_spans
            + encoder_input.column_spans
            + encoder_input.table_spans
            + encoder_input.value_spans
        ):
            assert 0 <= span.start < span.end <= encoder_input.length


class TestSupervision:
    def test_match_candidate_normalized(self):
        candidates = [ValueCandidate("France", "gold"), ValueCandidate(3, "gold")]
        assert match_candidate("france", candidates) == 0
        assert match_candidate(3.0, candidates) == 1
        assert match_candidate("nope", candidates) is None

    def test_tree_to_steps_and_back(self, pets_db):
        schema = pets_db.schema
        sql = "SELECT name FROM student WHERE home_country = 'France' AND age > 20"
        tree = query_to_semql(parse_sql(sql, schema), schema)
        candidates = [ValueCandidate("France", "gold"), ValueCandidate(20, "gold")]
        steps = tree_to_steps(tree, schema, candidates)
        assert steps is not None
        rebuilt = steps_to_tree(steps, schema, candidates)
        assert rebuilt.to_sexpr() == tree.to_sexpr()

    def test_missing_value_returns_none(self, pets_db):
        schema = pets_db.schema
        sql = "SELECT name FROM student WHERE age > 20"
        tree = query_to_semql(parse_sql(sql, schema), schema)
        assert tree_to_steps(tree, schema, []) is None

    def test_steps_to_tree_range_checks(self, pets_db):
        schema = pets_db.schema
        with pytest.raises(ModelError):
            steps_to_tree([DecoderStep("C", 999)], schema, [])

    def test_pointer_indices_are_schema_aligned(self, pets_db):
        schema = pets_db.schema
        sql = "SELECT count(*) FROM student"
        tree = query_to_semql(parse_sql(sql, schema), schema)
        steps = tree_to_steps(tree, schema, [])
        column_steps = [s for s in steps if s.kind == "C"]
        assert column_steps[0].target == 0  # '*' is column index 0

    def test_no_gold_tree_needs_star_as_a_bare_filter_operand(self, model):
        """The decoders never point at '*' under Filter -> A(none); no
        supervision target does either, on the benchmark-sized corpus.
        Nor does any other decode-time rule exclude a gold step: each one
        is replayed through Partial, grammar steps against the mask with
        its flags at the default step budget, pointer steps against
        ``constrain`` with the schema's column -> table map."""
        max_steps = ModelConfig().max_decode_steps
        corpus = generate_corpus(CorpusConfig(train_per_domain=40, dev_per_domain=300))
        try:
            bare = star_elsewhere = 0
            for example in corpus.train + corpus.dev:
                schema = corpus.schema(example.db_id)
                column_to_table = model._column_to_table(schema)
                candidates = [ValueCandidate(v, "gold") for v in example.values]
                sizes = {
                    ActionType.C: len(column_to_table),
                    ActionType.T: len(schema.tables),
                    ActionType.V: len(candidates),
                }
                steps = tree_to_steps(example.gold_semql, schema, candidates)
                assert steps is not None, example.question
                partial = Partial()
                for step in steps:
                    expected = partial.grammar.expected_type()
                    where = (example.gold_sql, len(partial.steps))
                    if step.kind == "grammar":
                        mask = model.decoder._grammar_mask(
                            expected, len(candidates),
                            **partial.mask_flags(max_steps),
                        )
                        assert mask[step.target], where
                    else:
                        grammar = partial.grammar
                        if step.kind == "C" and grammar.expects_bare_filter_column():
                            bare += 1
                            assert step.target != 0, example.gold_sql
                        elif step.kind == "C" and step.target == 0:
                            star_elsewhere += 1
                        scores = np.zeros(sizes[expected])
                        partial.constrain(expected, scores, column_to_table)
                        assert scores[step.target] == 0.0, where
                    assert partial.advance(expected, step.target) == step, where
                assert partial.grammar.finished, example.gold_sql
            assert bare > 100 and star_elsewhere > 100  # both positions occur
        finally:
            corpus.close()


class TestModelForward:
    def test_encode_shapes(self, model, pets_db):
        pre = Preprocessor(pets_db).run("How many French students are there?")
        encoded = model.encode(pre, pets_db.schema)
        assert encoded.question.shape == (len(pre.tokens), TINY.dim)
        assert encoded.columns.shape == (len(pets_db.schema.all_columns()), TINY.dim)
        assert encoded.tables.shape == (3, TINY.dim)
        assert encoded.summary.shape == (TINY.dim,)

    def test_loss_none_when_value_unmatched(self, model, pets_db):
        """A sample whose gold value is not among the candidates cannot be
        supervised: preparation drops it before any loss is taken."""
        schema = pets_db.schema
        sql = "SELECT name FROM student WHERE age > 20"
        query = parse_sql(sql, schema)
        example = Example(
            "q", "pets", sql, query, query_to_semql(query, schema), [20], [],
            Hardness.EASY,
        )
        samples, dropped = prepare_samples(
            [example], {"pets": Preprocessor(pets_db)}, model, mode="valuenet"
        )
        assert (samples, dropped) == ([], 1)

    def test_loss_positive(self, model, pets_db):
        schema = pets_db.schema
        pre = Preprocessor(pets_db).run_light(
            "students older than 20", [20]
        )
        sql = "SELECT name FROM student WHERE age > 20"
        tree = query_to_semql(parse_sql(sql, schema), schema)
        steps = tree_to_steps(tree, schema, pre.candidates)
        loss = model.decoder.loss_batch([model.encode(pre, schema)], [steps])
        assert loss.item() > 0

    def test_predict_valid_tree(self, model, pets_db):
        pre = Preprocessor(pets_db).run("How many students are there?")
        tree = model.predict(pre, pets_db.schema)
        tree.validate()

    def test_predict_restores_training_mode(self, model, pets_db):
        model.train()
        pre = Preprocessor(pets_db).run("How many students are there?")
        model.predict(pre, pets_db.schema)
        assert model.training
        model.eval()

    def test_decode_is_deterministic(self, model, pets_db):
        pre = Preprocessor(pets_db).run("names of all students")
        model.eval()
        a = model.predict(pre, pets_db.schema).to_sexpr()
        b = model.predict(pre, pets_db.schema).to_sexpr()
        assert a == b

    def test_predicted_tree_is_executable(self, model, pets_db):
        from repro.postprocessing import SqlBuilder

        pre = Preprocessor(pets_db).run("How many students are there?")
        tree = model.predict(pre, pets_db.schema)
        sql = SqlBuilder(pets_db.schema).build(tree)
        pets_db.execute(sql)  # grammar-constrained output is always valid SQL


    def test_value_less_filter_closes_with_a_sub_query_near_the_step_cap(
        self, model
    ):
        mask = model.decoder._grammar_mask(
            ActionType.FILTER, 0, conserve_budget=True)
        legal = [GRAMMAR_ACTION_LIST[i].name for i in np.flatnonzero(mask)]
        assert legal and all(name.endswith("_r") for name in legal)


class TestPositionTable:
    def test_one_table_holds_every_length(self):
        """Encoding lengths 1..200 keeps one table of at most twice the
        longest length, not one array per length (a per-length cache
        keeps 1 + ... + 200 rows, 50x more), and each length's rows are
        bit for bit the sinusoidal encoding of that length, scaled."""
        encoder = ValueNetEncoder(50, TINY, np.random.default_rng(0))
        gc.collect()
        tracemalloc.start()
        try:
            for length in range(1, 201):
                assert encoder._positions(length).shape == (length, TINY.dim)
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row_bytes = TINY.dim * np.dtype(np.float64).itemsize
        assert kept <= 2 * 200 * row_bytes + 4096
        for length in (1, 2, 3, 64, 65, 128, 129, 200):
            assert np.array_equal(
                encoder._positions(length).data,
                sinusoidal_positions(length, TINY.dim) * 0.1,
            )

    def test_concurrent_regrows_hand_out_complete_rows(self):
        """Serving threads share one encoder: while others regrow the
        table, every thread still reads the exact rows it asked for."""
        encoder = ValueNetEncoder(50, TINY, np.random.default_rng(0))
        expected = sinusoidal_positions(400, TINY.dim) * 0.1
        wrong: list[int] = []

        def read(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for length in rng.integers(1, 401, size=300):
                if not np.array_equal(encoder._positions(length).data, expected[:length]):
                    wrong.append(int(length))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestTraining:
    def test_single_example_overfits(self, vocab, pets_db):
        model = ValueNetModel(vocab, TINY)
        schema = pets_db.schema
        pre = Preprocessor(pets_db).run_light(
            "How many students are there?", []
        )
        sql = "SELECT count(*) FROM student"
        tree = query_to_semql(parse_sql(sql, schema), schema)
        steps = tree_to_steps(tree, schema, pre.candidates)
        optimizer = model.build_optimizer(
            encoder_lr=1e-3, decoder_lr=2e-3, connection_lr=1e-3
        )
        model.train()
        first = None
        for _ in range(25):
            optimizer.zero_grad()
            encodeds = model.encoder.encode_batch([model.featurize(pre, schema)])
            loss = model.decoder.loss_batch(encodeds, [steps])
            if first is None:
                first = loss.item()
            loss.backward()
            optimizer.step()
        model.eval()
        assert loss.item() < first * 0.2
        predicted = model.predict(pre, schema)
        assert predicted.to_sexpr() == tree.to_sexpr()

    def test_trainer_loop_decreases_loss(self, tiny_corpus, vocab):
        model = ValueNetModel(vocab, TINY)
        preprocessors = build_preprocessors(tiny_corpus)
        samples, _dropped = prepare_samples(
            tiny_corpus.train[:12], preprocessors, model, mode="light"
        )
        trainer = Trainer(model, TrainingConfig(epochs=3, batch_size=4))
        history = trainer.train(samples)
        assert len(history.epochs) == 3
        assert history.epochs[-1].mean_loss < history.epochs[0].mean_loss

    @pytest.mark.parametrize("log_every, logged", [(1, (4, 8, 10)), (2, (8,))])
    def test_a_minibatch_is_one_encode_one_loss_one_log_line(
        self, tiny_corpus, vocab, monkeypatch, caplog, log_every, logged
    ):
        model = ValueNetModel(vocab, TINY)
        samples, _dropped = prepare_samples(
            tiny_corpus.train[:10], build_preprocessors(tiny_corpus), model,
            mode="light",
        )
        assert len(samples) == 10
        calls = []

        def counting(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args):
                calls.append(name)
                return original(self, *args)

            monkeypatch.setattr(cls, name, wrapper)

        counting(ValueNetEncoder, "encode_batch")
        counting(ValueNetDecoder, "loss_batch")
        config = TrainingConfig(epochs=2, batch_size=4, log_every=log_every)
        with caplog.at_level(logging.INFO, logger="repro.model.training"):
            Trainer(model, config).train(samples)
        # 10 samples in minibatches of 4: three per epoch, the last of 2;
        # log_every counts minibatches, not samples.
        assert calls == ["encode_batch", "loss_batch"] * 6
        progress = [
            record.getMessage().split(" loss ")[0] for record in caplog.records
            if record.name == "repro.model.training"
        ]
        assert progress == [
            f"epoch {epoch} [{done}/10]" for epoch in (1, 2) for done in logged
        ]

    def test_prepare_samples_modes(self, tiny_corpus, vocab):
        model = ValueNetModel(vocab, TINY)
        preprocessors = build_preprocessors(tiny_corpus)
        light, light_dropped = prepare_samples(
            tiny_corpus.train[:30], preprocessors, model, mode="light"
        )
        assert light_dropped == 0  # gold values always present in light mode
        full, full_dropped = prepare_samples(
            tiny_corpus.train[:30], preprocessors, model, mode="valuenet"
        )
        assert len(full) + full_dropped == 30

    def test_prepare_rejects_unknown_mode(self, tiny_corpus, vocab):
        model = ValueNetModel(vocab, TINY)
        with pytest.raises(ValueError):
            prepare_samples(
                tiny_corpus.train[:1], build_preprocessors(tiny_corpus), model,
                mode="bogus",
            )

    def test_train_valuenet_vocabulary_sees_the_training_split_only(
        self, tiny_corpus
    ):
        train_only = dataclasses.replace(
            tiny_corpus,
            dev=[],
            domains={d: tiny_corpus.domains[d] for d in tiny_corpus.train_domains},
            dev_domains=(),
        )
        preprocessors = build_preprocessors(tiny_corpus)
        untrained = TrainingConfig(epochs=0)

        def pieces(corpus):
            model, history = train_valuenet(
                corpus, "light", preprocessors, TINY, untrained)
            assert history.num_prepared > 0 and history.epochs == []
            return [model.vocab.id_to_piece(i) for i in range(len(model.vocab))]

        assert pieces(tiny_corpus) == pieces(train_only)

    def test_train_valuenet_prepares_full_mode_samples_with_the_tagger(
        self, tiny_corpus
    ):
        # The tagger, trained on the training split's gold value spans,
        # keeps examples that heuristics + gazetteer alone drop.
        preprocessors = build_preprocessors(tiny_corpus)
        model, history = train_valuenet(
            tiny_corpus, "valuenet", preprocessors, TINY, TrainingConfig(epochs=0))
        _, dropped = prepare_samples(
            tiny_corpus.train, preprocessors, model, mode="valuenet")
        assert history.num_dropped < dropped


def _oracle_loss(decoder, encoded, steps):
    """The per-sample teacher-forced loss, one decoder step at a time: the
    differential oracle for ``ValueNetDecoder.loss_batch``."""
    state = decoder._initial_state(encoded)
    prev = decoder.start_embedding
    grammar = GrammarState()
    total = None
    for step in steps:
        h, state = decoder._step(prev, state, encoded)
        if step.kind == "grammar":
            mask = decoder._grammar_mask(grammar.expected_type(), encoded.num_values)
            step_loss = -masked_log_softmax(decoder.sketch_head(h), mask)[step.target]
            grammar.advance_grammar(GRAMMAR_ACTION_LIST[step.target])
        else:
            logits = decoder._head_logits(step.kind, h, encoded)
            step_loss = -log_softmax(logits)[step.target]
            grammar.advance_pointer(ActionType(step.kind))
        total = step_loss if total is None else total + step_loss
        prev = decoder._feed_embedding(step.kind, step.target, encoded)
    return total


def _grads(model) -> dict[str, np.ndarray | None]:
    """Each parameter's gradient; None where no step of the loss reached
    it (Adam skips those, so None and zero must not be confused)."""
    return {
        name: None if p.grad is None else p.grad.copy()
        for name, p in model.named_parameters()
    }


@pytest.fixture(scope="module")
def light_samples(tiny_corpus, vocab):
    samples, _dropped = prepare_samples(
        tiny_corpus.train, build_preprocessors(tiny_corpus),
        ValueNetModel(vocab, TINY), mode="light",
    )
    return samples


@pytest.fixture(scope="module")
def mixed_batch(light_samples):
    """Sixteen light-mode samples over several schemas, with and without
    value candidates, of different lengths."""
    batch = light_samples[::5][:16]
    assert len(batch) == 16
    assert len({sample.schema.name for sample in batch}) > 1
    assert len({len(sample.steps) for sample in batch}) > 1
    assert {step.kind for s in batch for step in s.steps} == {"grammar", "C", "T", "V"}
    assert not all(sample.pre.candidates for sample in batch)
    return batch


@pytest.fixture(scope="module")
def last_value_batch(light_samples):
    """Samples whose only value step ends their sequence, and samples
    without values: every V step is scored, none feeds a next step."""
    def values(sample):
        return [step.kind for step in sample.steps].count("V")

    ending = [s for s in light_samples if values(s) == 1 and s.steps[-1].kind == "V"]
    batch = ending[:6] + [s for s in light_samples if values(s) == 0][:6]
    assert len(batch) == 12 and len({len(s.steps) for s in batch}) > 1
    return batch


class TestLossBatch:
    """``loss_batch`` against the per-sample loop it replaced."""

    @pytest.mark.parametrize("batch_name, unreached", [
        ("mixed_batch", set()),
        ("last_value_batch", {"decoder.value_feed.weight", "decoder.value_feed.bias"}),
    ])
    def test_equals_the_per_sample_loop_with_its_gradients(
        self, vocab, request, batch_name, unreached
    ):
        batch = request.getfixturevalue(batch_name)
        model = ValueNetModel(vocab, TINY)
        model.train()
        encodeds = model.encoder.encode_batch(
            [model.featurize(s.pre, s.schema) for s in batch]
        )
        loss = model.decoder.loss_batch(encodeds, [s.steps for s in batch])
        loss.backward()
        batched = _grads(model)

        model.zero_grad()
        expected = 0.0
        for sample in batch:
            encoded = model.encode(sample.pre, sample.schema)
            oracle = _oracle_loss(model.decoder, encoded, sample.steps)
            (oracle * (1.0 / len(sample.steps))).backward()
            expected += oracle.item() / len(sample.steps)
        assert abs(loss.item() - expected) < 1e-9
        oracle_grads = _grads(model)
        for name, grad in oracle_grads.items():
            assert (batched[name] is None) == (grad is None), name
            if grad is not None:
                np.testing.assert_allclose(
                    batched[name], grad, rtol=0, atol=1e-9, err_msg=name
                )
        assert {name for name, grad in oracle_grads.items() if grad is None} == unreached

    def test_dropout_draws_replay(self, vocab, mixed_batch):
        """With dropout on, one minibatch draws from the model's shared
        dropout generator: the padded transformer masks, then one
        (batch, decoder_hidden) mask per lockstep step."""
        config = ModelConfig(**{**TINY.__dict__, "dropout": 0.3})
        model = ValueNetModel(vocab, config)
        shared = model.decoder.dropout._rng
        for layer in model.encoder.transformer.layers:
            assert layer.attention.dropout._rng is shared
            assert layer.dropout._rng is shared
        expected = np.random.default_rng()
        expected.bit_generator.state = shared.bit_generator.state
        lengths = [model.featurize(s.pre, s.schema).length for s in mixed_batch]
        padded = (len(mixed_batch), max(lengths), config.dim)
        for _layer in range(config.num_layers):
            expected.random(padded)  # self-attention output
            expected.random(padded)  # feed-forward output
        for _step in range(max(len(s.steps) for s in mixed_batch)):
            expected.random((len(mixed_batch), config.decoder_hidden))

        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=len(mixed_batch)))
        trainer.train(mixed_batch)
        assert shared.bit_generator.state == expected.bit_generator.state

    def test_empty_and_incomplete_sequences_raise(self, model, mixed_batch):
        sample = mixed_batch[0]
        encodeds = [model.encode(sample.pre, sample.schema)] * 2
        with pytest.raises(ModelError, match="empty"):
            model.decoder.loss_batch(encodeds, [sample.steps, []])
        with pytest.raises(ModelError, match="complete the grammar"):
            model.decoder.loss_batch(encodeds, [sample.steps, sample.steps[:-1]])


class TestCheckpointing:
    def test_save_load_same_predictions(self, model, pets_db, tmp_path):
        pre = Preprocessor(pets_db).run("names of students from France")
        model.eval()
        before = model.predict(pre, pets_db.schema).to_sexpr()
        model.save(tmp_path / "ckpt")
        loaded = ValueNetModel.load(tmp_path / "ckpt")
        after = loaded.predict(pre, pets_db.schema).to_sexpr()
        assert before == after

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ModelError):
            ValueNetModel.load(tmp_path / "nothing")

    def test_weights_are_stored_and_deflated_checkpoints_still_load(
        self, model, tmp_path
    ):
        """``save`` writes its weights as stored zip members (nothing to
        inflate at load), and a checkpoint written with
        ``np.savez_compressed`` loads to equal parameters."""
        model.save(tmp_path / "ckpt")
        with zipfile.ZipFile(tmp_path / "ckpt" / "weights.npz") as archive:
            members = archive.infolist()
        assert members
        assert {member.compress_type for member in members} == {zipfile.ZIP_STORED}

        np.savez_compressed(
            tmp_path / "ckpt" / "weights.npz",
            **{name: param.data for name, param in model.named_parameters()},
        )
        with zipfile.ZipFile(tmp_path / "ckpt" / "weights.npz") as archive:
            assert {m.compress_type for m in archive.infolist()} == {zipfile.ZIP_DEFLATED}
        loaded = ValueNetModel.load(tmp_path / "ckpt")
        expected = dict(model.named_parameters())
        for name, param in loaded.named_parameters():
            assert np.array_equal(param.data, expected[name].data)

    def test_optimizer_groups(self, model):
        optimizer = model.build_optimizer(
            encoder_lr=1e-3, decoder_lr=2e-3, connection_lr=5e-4
        )
        groups = optimizer._groups
        assert [g.name for g in groups] == ["encoder", "decoder", "connection"]
        total = sum(len(g.params) for g in groups)
        assert total == len(model.parameters())
        # no parameter appears in two groups
        ids = [id(p) for g in groups for p in g.params]
        assert len(ids) == len(set(ids))
