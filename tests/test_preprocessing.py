"""Unit tests for repro.preprocessing: hints and the pipeline."""

from __future__ import annotations

import pytest

from repro.candidates import ValueCandidate
from repro.index import InvertedIndex, ValueLocation
from repro.pipeline import StageTimings
from repro.preprocessing import (
    PreprocessedQuestion,
    Preprocessor,
    QuestionHint,
    SchemaHint,
    compute_question_hints,
    compute_schema_hints,
)
from repro.text.tokenizer import tokenize

QUESTION = "How many pets are owned by French students that are older than 20?"


class TestQuestionHints:
    def test_fig6_classification(self, pets_db):
        """The paper's Fig. 6 example token classes."""
        index = InvertedIndex.build(pets_db)
        hints = {
            h.token.text: h.hint
            for h in compute_question_hints(
                tokenize(QUESTION), pets_db.schema, index
            )
        }
        assert hints["many"] is QuestionHint.AGGREGATION
        assert hints["students"] is QuestionHint.TABLE
        assert hints["20"] is QuestionHint.VALUE
        assert hints["owned"] is QuestionHint.NONE

    def test_value_hint_from_base_data(self, pets_db):
        index = InvertedIndex.build(pets_db)
        hints = {
            h.token.text: h.hint
            for h in compute_question_hints(
                tokenize("students from France"), pets_db.schema, index
            )
        }
        assert hints["France"] is QuestionHint.VALUE

    def test_column_beats_value(self, pets_db):
        # a token matching both a column name and base data classifies as
        # COLUMN (the more specific class)
        index = InvertedIndex.build(pets_db)
        hints = {
            h.token.text: h.hint
            for h in compute_question_hints(
                tokenize("what is the age"), pets_db.schema, index
            )
        }
        assert hints["age"] is QuestionHint.COLUMN

    def test_superlative_keyword(self, pets_db):
        hints = {
            h.token.text: h.hint
            for h in compute_question_hints(
                tokenize("the oldest student"), pets_db.schema, None
            )
        }
        assert hints["oldest"] is QuestionHint.SUPERLATIVE

    def test_stemming_matches_plurals(self, pets_db):
        hints = {
            h.token.text: h.hint
            for h in compute_question_hints(
                tokenize("list the weights"), pets_db.schema, None
            )
        }
        assert hints["weights"] is QuestionHint.COLUMN

    def test_no_index_no_value_hints(self, pets_db):
        hints = compute_question_hints(tokenize("France"), pets_db.schema, None)
        assert hints[0].hint is QuestionHint.NONE


class TestSchemaHints:
    def test_fig7_classification(self, pets_db):
        """Exact / partial / value-candidate matches (paper Fig. 7)."""
        tokens = tokenize(QUESTION)
        candidates = [
            ValueCandidate(
                "France", "similarity", (ValueLocation("student", "home_country"),)
            )
        ]
        hints = compute_schema_hints(tokens, pets_db.schema, candidates)
        by_table = dict(zip([t.name for t in pets_db.schema.tables], hints.table_hints))
        assert by_table["student"] is SchemaHint.EXACT_MATCH
        assert by_table["pet"] is SchemaHint.EXACT_MATCH  # 'pets' stems to 'pet'
        assert by_table["has_pet"] is SchemaHint.PARTIAL_MATCH

        by_column = dict(
            zip(
                [c.qualified_name for c in pets_db.schema.all_columns()],
                hints.column_hints,
            )
        )
        assert by_column["student.home_country"] is SchemaHint.VALUE_CANDIDATE_MATCH

    def test_exact_beats_candidate_match(self, pets_db):
        tokens = tokenize("what is the home country of students from France")
        candidates = [
            ValueCandidate(
                "France", "similarity", (ValueLocation("student", "home_country"),)
            )
        ]
        hints = compute_schema_hints(tokens, pets_db.schema, candidates)
        by_column = dict(
            zip(
                [c.qualified_name for c in pets_db.schema.all_columns()],
                hints.column_hints,
            )
        )
        # 'home country' fully mentioned -> EXACT wins over candidate match
        assert by_column["student.home_country"] is SchemaHint.EXACT_MATCH

    def test_alignment_lengths(self, pets_db):
        hints = compute_schema_hints(tokenize("x"), pets_db.schema, [])
        assert len(hints.table_hints) == pets_db.schema.num_tables
        assert len(hints.column_hints) == len(pets_db.schema.all_columns())


class TestPreprocessor:
    @pytest.fixture
    def preprocessor(self, pets_db):
        return Preprocessor(pets_db)

    def test_full_run_paper_example(self, preprocessor):
        pre = preprocessor.run(QUESTION)
        assert isinstance(pre, PreprocessedQuestion)
        values = {str(c.value) for c in pre.candidates}
        assert "France" in values  # via similarity from "French"
        assert "20" in values

    def test_run_records_timings(self, preprocessor):
        timings = StageTimings()
        preprocessor.run(QUESTION, timings)
        assert timings.preprocessing > 0
        assert timings.value_lookup > 0

    def test_light_mode_locates_gold_values(self, preprocessor):
        pre = preprocessor.run_light(QUESTION, ["France", 20])
        [france, twenty] = pre.candidates
        assert france.source == "gold"
        assert ValueLocation("student", "home_country") in france.locations
        assert twenty.value == 20

    def test_light_mode_dedupes(self, preprocessor):
        pre = preprocessor.run_light("q", ["France", "france"])
        assert len(pre.candidates) == 1

    def test_words_property(self, preprocessor):
        pre = preprocessor.run("How many pets?")
        assert pre.words == ["How", "many", "pets", "?"]

    def test_medium_value_recovered(self, preprocessor):
        """Case variation ('france') still finds the stored 'France'."""
        pre = preprocessor.run("students from france")
        assert any(c.value == "France" for c in pre.candidates)

    def test_gender_heuristic_flows_through(self, preprocessor):
        pre = preprocessor.run("How many female students are there?")
        values = {str(c.value) for c in pre.candidates}
        assert "F" in values
