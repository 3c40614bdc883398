"""End-to-end pipeline tests (with a briefly trained model) and
post-processing unit tests."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.baselines import HeuristicBaseline
from repro.config import ModelConfig, TrainingConfig
from repro.model import Trainer, ValueNetModel, build_vocabulary, prepare_samples
from repro.pipeline import (
    STAGES,
    StageTimings,
    TimingAggregate,
    ValueNetLightPipeline,
    ValueNetPipeline,
)
from repro.postprocessing import (
    SqlBuilder,
    add_like_wildcards,
    coerce_for_column,
    format_values,
)
from repro.preprocessing import Preprocessor
from repro.schema import Column, ColumnType
from repro.semql import query_to_semql
from repro.sql import parse_sql

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


class TestValueFormatting:
    def test_coerce_number_strings(self):
        column = Column("age", "t", ColumnType.NUMBER)
        assert coerce_for_column("20", column) == 20
        assert coerce_for_column("20.5", column) == 20.5
        assert coerce_for_column(20.0, column) == 20

    def test_coerce_non_numeric_text_stays(self):
        column = Column("age", "t", ColumnType.NUMBER)
        assert coerce_for_column("abc", column) == "abc"

    def test_text_column_stringifies(self):
        column = Column("name", "t", ColumnType.TEXT)
        assert coerce_for_column(42, column) == "42"

    def test_like_wildcards(self):
        assert add_like_wildcards("Ha") == "%Ha%"
        assert add_like_wildcards("8/%") == "8/%"  # already wildcarded

    def test_format_values_in_tree(self, pets_schema):
        sql = "SELECT name FROM student WHERE age > 20 AND name LIKE '%nn%'"
        tree = query_to_semql(parse_sql(sql, pets_schema), pets_schema)
        # Corrupt the payloads the way a pointer network might.
        from repro.semql.actions import ActionType

        for node in tree.pointer_leaves(ActionType.V):
            node.value = str(node.value).strip("%")
        format_values(tree, pets_schema)
        values = [n.value for n in tree.pointer_leaves(ActionType.V)]
        assert 20 in values
        assert "%nn%" in values

    def test_superlative_limit_coerced(self, pets_schema):
        sql = "SELECT name FROM student ORDER BY age DESC LIMIT 3"
        tree = query_to_semql(parse_sql(sql, pets_schema), pets_schema)
        from repro.semql.actions import ActionType

        superlative = next(
            n for n in tree.walk() if n.action_type is ActionType.SUPERLATIVE
        )
        superlative.children[0].value = "3"
        format_values(tree, pets_schema)
        assert superlative.children[0].value == 3


class TestSqlBuilder:
    def test_build_executes(self, pets_db):
        schema = pets_db.schema
        sql = "SELECT count(*) FROM student WHERE home_country = 'France'"
        tree = query_to_semql(parse_sql(sql, schema), schema)
        built = SqlBuilder(schema).build(tree)
        assert pets_db.execute(built) == [(2,)]

    def test_join_inference_in_build(self, pets_db):
        schema = pets_db.schema
        sql = (
            "SELECT T1.name FROM student AS T1 JOIN has_pet AS T2 ON "
            "T1.stuid = T2.stuid JOIN pet AS T3 ON T2.petid = T3.petid "
            "WHERE T3.pet_type = 'Dog'"
        )
        tree = query_to_semql(parse_sql(sql, schema), schema)
        built = SqlBuilder(schema).build(tree)
        rows = {r[0] for r in pets_db.execute(built)}
        assert rows == {"Ann Miller", "Dana Levi"}


class TestTimings:
    def test_total(self):
        timings = StageTimings(preprocessing=0.1, execution=0.2)
        assert timings.total == pytest.approx(0.3)

    def test_aggregate_stats(self):
        aggregate = TimingAggregate()
        aggregate.add(StageTimings(preprocessing=0.010))
        aggregate.add(StageTimings(preprocessing=0.030))
        assert aggregate.mean_ms("preprocessing") == pytest.approx(20.0)
        assert aggregate.std_ms("preprocessing") == pytest.approx(14.142, rel=1e-3)

    def test_table_rows_cover_stages(self):
        aggregate = TimingAggregate()
        aggregate.add(StageTimings())
        rows = aggregate.table()
        assert [row[0] for row in rows] == list(STAGES)

    def test_aggregate_empty(self):
        aggregate = TimingAggregate()
        assert aggregate.mean_ms("preprocessing") == 0.0
        assert aggregate.std_ms("preprocessing") == 0.0
        assert aggregate.mean_total_ms() == 0.0
        assert aggregate.table() == [(stage, 0.0, 0.0) for stage in STAGES]

    def test_aggregate_single_sample(self):
        aggregate = TimingAggregate()
        aggregate.add(StageTimings(encoder_decoder=0.040, execution=0.010))
        assert aggregate.mean_ms("encoder_decoder") == pytest.approx(40.0)
        assert aggregate.std_ms("encoder_decoder") == 0.0  # undefined -> 0
        assert aggregate.mean_total_ms() == pytest.approx(50.0)

    def test_aggregate_many_samples(self):
        aggregate = TimingAggregate()
        for seconds in (0.010, 0.020, 0.030, 0.040):
            aggregate.add(StageTimings(value_lookup=seconds))
        assert aggregate.mean_ms("value_lookup") == pytest.approx(25.0)
        # Sample standard deviation of [10, 20, 30, 40] ms.
        assert aggregate.std_ms("value_lookup") == pytest.approx(12.9099, rel=1e-4)
        assert aggregate.mean_total_ms() == pytest.approx(25.0)


@pytest.fixture(scope="module")
def trained_setup():
    """A small model trained briefly on pets-style supervision."""
    from repro.db import Database
    from repro.schema import Schema, Table

    # Rebuild the pets DB locally (module-scoped fixture cannot depend on a
    # function-scoped one).
    student = Table(
        "student",
        (
            Column("stuid", "student", ColumnType.NUMBER, is_primary_key=True),
            Column("name", "student", ColumnType.TEXT),
            Column("age", "student", ColumnType.NUMBER),
            Column("home_country", "student", ColumnType.TEXT),
        ),
    )
    schema = Schema("pets", [student])
    db = Database.create(schema)
    db.insert_rows(
        "student",
        [
            (1, "Ann", 22, "France"),
            (2, "Bob", 19, "France"),
            (3, "Cid", 25, "Italy"),
            (4, "Dana", 21, "Spain"),
        ],
    )

    questions = [
        ("How many students are there?", "SELECT count(*) FROM student", []),
        ("List the name of all students.", "SELECT name FROM student", []),
        (
            "List the name of students from France.",
            "SELECT name FROM student WHERE home_country = 'France'",
            ["France"],
        ),
        (
            "List the name of students from Italy.",
            "SELECT name FROM student WHERE home_country = 'Italy'",
            ["Italy"],
        ),
        (
            "List the name of students older than 20.",
            "SELECT name FROM student WHERE age > 20",
            [20],
        ),
        (
            "List the name of students older than 21.",
            "SELECT name FROM student WHERE age > 21",
            [21],
        ),
    ]

    vocab = build_vocabulary(
        [q for q, _s, _v in questions] * 3, [schema], ["France", "Italy"],
        vocab_size=300,
    )
    config = ModelConfig(
        dim=32, num_layers=1, num_heads=2, ff_dim=48, summary_hidden=16,
        decoder_hidden=48, pointer_hidden=24, dropout=0.0, word_dropout=0.0,
    )
    model = ValueNetModel(vocab, config)
    preprocessor = Preprocessor(db)

    from repro.model import TrainSample
    from repro.model.supervision import tree_to_steps

    samples = []
    for question, sql, _values in questions:
        pre = preprocessor.run(question)
        tree = query_to_semql(parse_sql(sql, schema), schema)
        steps = tree_to_steps(tree, schema, pre.candidates)
        assert steps is not None, question
        samples.append(
            TrainSample(
                example=None,  # not needed by the trainer
                pre=pre,
                schema=schema,
                steps=steps,
            )
        )
    trainer = Trainer(
        model,
        TrainingConfig(epochs=30, batch_size=3, encoder_lr=2e-3, decoder_lr=3e-3,
                       connection_lr=2e-3),
    )
    trainer.train(samples)
    yield model, db, preprocessor
    db.close()


class TestEndToEndPipelines:
    def test_valuenet_pipeline_memorized_question(self, trained_setup):
        model, db, preprocessor = trained_setup
        pipeline = ValueNetPipeline(model, db, preprocessor=preprocessor)
        result = pipeline.translate(
            "List the name of students from France.", execute=True
        )
        assert result.succeeded, result.error
        assert result.rows == [("Ann",), ("Bob",)]

    def test_valuenet_generalizes_to_new_value(self, trained_setup):
        model, db, preprocessor = trained_setup
        pipeline = ValueNetPipeline(model, db, preprocessor=preprocessor)
        result = pipeline.translate(
            "List the name of students from Spain.", execute=True
        )
        assert result.succeeded, result.error
        assert result.rows == [("Dana",)]

    def test_light_pipeline_uses_gold_values(self, trained_setup):
        model, db, preprocessor = trained_setup
        pipeline = ValueNetLightPipeline(model, db, preprocessor=preprocessor)
        result = pipeline.translate(
            "List the name of students from Italy.",
            values=["Italy"],
            execute=True,
        )
        assert result.succeeded, result.error
        assert result.rows == [("Cid",)]

    def test_light_pipeline_reports_real_stage_split(self, trained_setup):
        model, db, preprocessor = trained_setup
        pipeline = ValueNetLightPipeline(model, db, preprocessor=preprocessor)
        result = pipeline.translate(
            "List the name of students from Italy.", values=["Italy"]
        )
        # run_light now measures the two stages separately instead of
        # splitting one total 50/50, so an exact tie is (measure-theoretically)
        # impossible for real work.
        assert result.timings.preprocessing > 0
        assert result.timings.preprocessing != result.timings.value_lookup

    def test_timings_populated(self, trained_setup):
        model, db, preprocessor = trained_setup
        pipeline = ValueNetPipeline(model, db, preprocessor=preprocessor)
        result = pipeline.translate("How many students are there?", execute=True)
        assert result.timings.encoder_decoder > 0
        assert result.timings.postprocessing >= 0
        assert result.timings.execution > 0

    @pytest.mark.parametrize(
        "pipeline_class, inputs",
        [(ValueNetPipeline, {}), (ValueNetLightPipeline, {"values": ["Italy"]})],
    )
    def test_forwarding_preprocessor_wrapper_reaches_the_model(
        self, trained_setup, monkeypatch, pipeline_class, inputs
    ):
        # The hint-ablation bench wraps the preprocessor; its wrapper must
        # take whatever the pipelines pass (it crashed on `timings`).
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        spec = importlib.util.spec_from_file_location(
            "bench_ablation_hints", BENCHMARKS / "bench_ablation_hints.py"
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        model, db, preprocessor = trained_setup
        pipeline = pipeline_class(
            model, db, preprocessor=bench.HintlessPreprocessor(preprocessor)
        )
        result = pipeline.translate("List the name of students from Italy.", **inputs)
        assert result.timings.preprocessing > 0
        assert result.timings.value_lookup > 0
        assert result.timings.encoder_decoder > 0  # got as far as the model

    @pytest.mark.parametrize("count", [1, 3, 2])
    def test_per_question_values_are_length_checked_first(self, trained_setup, count):
        model, db, preprocessor = trained_setup
        seen: list[str] = []

        class Recording:
            def run_light(self, question, *args, **kwargs):
                seen.append(question)
                return preprocessor.run_light(question, *args, **kwargs)

        pipeline = ValueNetLightPipeline(model, db, preprocessor=Recording())
        questions = ["students from Italy", "students from France"]
        values = [["Italy"], ["France"], ["Spain"]][:count]
        if count == len(questions):
            assert len(pipeline.translate_batch(questions, values=values)) == 2
            assert seen == questions
        else:
            with pytest.raises(ValueError, match=f"{count} values for 2 questions"):
                pipeline.translate_batch(questions, values=values)
            assert seen == []  # refused before any pre-processing

    def test_neither_public_entry_calls_the_other(self, trained_setup, monkeypatch):
        # benchmarks/e2e/spans.py wraps both as `pipeline.translate`: a
        # nested call would count one translation twice.
        model, db, preprocessor = trained_setup
        pipeline = ValueNetPipeline(model, db, preprocessor=preprocessor)

        def forbidden(*args, **kwargs):
            raise AssertionError("public entry called from the other one")

        question = "How many students are there?"
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "translate_batch", forbidden)
            single = pipeline.translate(question)
        monkeypatch.setattr(pipeline, "translate", forbidden)
        [batched] = pipeline.translate_batch([question])
        assert single.succeeded and batched.sql == single.sql

    def test_result_has_candidates(self, trained_setup):
        model, db, preprocessor = trained_setup
        pipeline = ValueNetPipeline(model, db, preprocessor=preprocessor)
        result = pipeline.translate("students from France")
        assert any(str(c.value) == "France" for c in result.candidates)


class TestHeuristicBaseline:
    def test_count_question(self, pets_db):
        baseline = HeuristicBaseline(pets_db)
        result = baseline.translate("How many students are there?")
        assert result.sql is not None
        assert "COUNT" in result.sql
        assert pets_db.execute(result.sql) == [(4,)]

    def test_filter_question(self, pets_db):
        baseline = HeuristicBaseline(pets_db)
        result = baseline.translate("List the students from France")
        assert result.sql is not None
        rows = pets_db.execute(result.sql)
        assert rows  # found the French students

    def test_always_produces_sql(self, pets_db):
        baseline = HeuristicBaseline(pets_db)
        result = baseline.translate("completely unrelated gibberish")
        assert result.sql is not None
        pets_db.execute(result.sql)
