"""End-to-end integration tests on a micro corpus.

These tie every subsystem together exactly the way the benchmark harness
does — corpus generation, vocabulary training, pre-processing, model
training (a couple of epochs), Execution-Accuracy evaluation, extraction
coverage and error analysis — at a scale small enough for the unit-test
suite (about a minute in total).
"""

from __future__ import annotations

import pytest

from repro.config import ModelConfig, TrainingConfig
from repro.evaluation import (
    analyze_failures,
    evaluate_pipeline,
    measure_extraction_coverage,
)
from repro.model import (
    Trainer,
    ValueNetModel,
    build_preprocessors,
    build_vocabulary,
    prepare_samples,
)
from repro.pipeline import ValueNetLightPipeline, ValueNetPipeline
from repro.spider import CorpusConfig, generate_corpus

MICRO = ModelConfig(
    dim=32, num_layers=1, num_heads=2, ff_dim=64, summary_hidden=24,
    decoder_hidden=64, pointer_hidden=32, dropout=0.05, word_dropout=0.05,
)


@pytest.fixture(scope="module")
def workbench():
    corpus = generate_corpus(CorpusConfig(train_per_domain=25, dev_per_domain=10))
    preprocessors = build_preprocessors(corpus)
    vocab = build_vocabulary(
        [e.question for e in corpus.train],
        [corpus.schema(d) for d in corpus.domains],
        [str(v) for e in corpus.train for v in e.values],
        vocab_size=1200,
    )
    model = ValueNetModel(vocab, MICRO)
    samples, _dropped = prepare_samples(
        corpus.train, preprocessors, model, mode="light"
    )
    trainer = Trainer(model, TrainingConfig(epochs=2, batch_size=16))
    history = trainer.train(samples)
    yield corpus, preprocessors, model, history
    corpus.close()


class TestTrainingIntegration:
    def test_loss_decreases(self, workbench):
        _corpus, _pre, _model, history = workbench
        assert history.epochs[-1].mean_loss < history.epochs[0].mean_loss

    def test_light_evaluation_pipeline(self, workbench):
        corpus, preprocessors, model, _history = workbench
        pipelines = {
            db: ValueNetLightPipeline(
                model, corpus.database(db), preprocessor=preprocessors[db]
            )
            for db in corpus.dev_domains
        }
        report = evaluate_pipeline(pipelines, corpus.dev[:20], corpus, light=True)
        assert report.total == 20
        # Even a two-epoch model beats zero on seen-pattern dev questions.
        assert 0.0 <= report.accuracy <= 1.0
        # per-sample structure is complete
        for sample in report.samples:
            assert sample.result.question == sample.example.question

    def test_valuenet_pipeline_runs(self, workbench):
        corpus, preprocessors, model, _history = workbench
        db_id = corpus.dev_domains[0]
        pipeline = ValueNetPipeline(
            model, corpus.database(db_id), preprocessor=preprocessors[db_id]
        )
        example = next(e for e in corpus.dev if e.db_id == db_id)
        result = pipeline.translate(example.question, execute=True)
        # the pipeline must always return a structured result, never raise
        assert result.question == example.question
        if result.sql is not None and result.error is None:
            assert isinstance(result.rows, list)

    def test_error_analysis_on_real_predictions(self, workbench):
        corpus, preprocessors, model, _history = workbench
        pipelines = {
            db: ValueNetLightPipeline(
                model, corpus.database(db), preprocessor=preprocessors[db]
            )
            for db in corpus.dev_domains
        }
        report = evaluate_pipeline(pipelines, corpus.dev[:15], corpus, light=True)
        error_report = analyze_failures(report.samples)
        assert error_report.num_failures == len(report.failures())
        for diagnosis in error_report.diagnoses:
            assert diagnosis.causes  # every failure gets at least one cause

    def test_extraction_coverage_integration(self, workbench):
        corpus, preprocessors, _model, _history = workbench
        examples = [e for e in corpus.train if e.values][:40]
        coverage = measure_extraction_coverage(examples, preprocessors)
        assert coverage.total_samples == len(examples)
        assert 0.3 < coverage.sample_coverage <= 1.0

    def test_training_timings_recorded(self, workbench):
        _corpus, _pre, _model, history = workbench
        for epoch in history.epochs:
            assert epoch.seconds > 0
            assert epoch.num_samples > 0


class TestCheckpointIntegration:
    def test_full_roundtrip_preserves_behaviour(self, workbench, tmp_path):
        corpus, preprocessors, model, _history = workbench
        db_id = corpus.dev_domains[0]
        example = next(e for e in corpus.dev if e.db_id == db_id)
        pre = preprocessors[db_id].run_light(example.question, example.values)
        schema = corpus.schema(db_id)
        before = model.predict(pre, schema).to_sexpr()

        model.save(tmp_path / "checkpoint")
        reloaded = ValueNetModel.load(tmp_path / "checkpoint")
        after = reloaded.predict(pre, schema).to_sexpr()
        assert before == after
