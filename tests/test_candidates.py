"""Unit tests for repro.candidates: generation, heuristics, validation."""

from __future__ import annotations

import pytest

from repro.candidates import (
    CandidateGenerator,
    CandidateValidator,
    GenerationConfig,
    ValidationConfig,
    ValueCandidate,
    boolean_candidates,
    dedupe_candidates,
    gender_candidates,
    month_candidates,
    ordinal_candidates,
    question_word_candidates,
)
from repro.index import InvertedIndex, SimilaritySearcher, ValueLocation
from repro.ner.types import ExtractedValue, SpanKind


def span(text: str, kind: SpanKind = SpanKind.TEXT) -> ExtractedValue:
    return ExtractedValue(text, 0, len(text), kind, "heuristic")


class TestCandidateHeuristics:
    def test_gender_female(self):
        values = {c.value for c in gender_candidates("female")}
        assert "F" in values

    def test_gender_unknown_word(self):
        assert gender_candidates("purple") == []

    def test_boolean(self):
        values = {c.value for c in boolean_candidates("yes")}
        assert 1 in values and "T" in values

    def test_ordinal(self):
        [candidate] = ordinal_candidates(span("fourth", SpanKind.ORDINAL))
        assert candidate.value == 4

    def test_month_wildcards(self):
        values = {c.value for c in month_candidates(span("August", SpanKind.MONTH))}
        assert "%-08-%" in values and "8/%" in values

    def test_superlative_word_yields_limit_one(self):
        values = [c.value for c in question_word_candidates(["the", "oldest"])]
        assert 1 in values


class TestDedupe:
    def test_keeps_first_merges_locations(self):
        loc_a = ValueLocation("t", "a")
        loc_b = ValueLocation("t", "b")
        candidates = [
            ValueCandidate("France", "question", (loc_a,)),
            ValueCandidate("france", "similarity", (loc_b,)),
        ]
        [merged] = dedupe_candidates(candidates)
        assert merged.value == "France"
        assert set(merged.locations) == {loc_a, loc_b}

    def test_numeric_string_and_int_collapse(self):
        candidates = [ValueCandidate(3, "question"), ValueCandidate("3", "ngram")]
        assert len(dedupe_candidates(candidates)) == 1


class TestGeneration:
    @pytest.fixture
    def searcher(self, pets_db):
        return SimilaritySearcher(InvertedIndex.build(pets_db))

    def test_verbatim_always_included(self, searcher):
        generator = CandidateGenerator(searcher)
        candidates = generator.generate(["20"], [span("20", SpanKind.NUMBER)])
        assert any(c.value == 20 for c in candidates)

    def test_numbers_skip_similarity(self, searcher):
        generator = CandidateGenerator(searcher)
        candidates = generator.generate(["20"], [span("20", SpanKind.NUMBER)])
        assert all(c.source != "similarity" for c in candidates)

    def test_similarity_expansion(self, searcher):
        generator = CandidateGenerator(searcher)
        candidates = generator.generate(["Frnace"], [span("Frnace")])
        assert any(c.value == "France" for c in candidates)

    def test_ngram_expansion(self, searcher):
        generator = CandidateGenerator(searcher)
        candidates = generator.generate([], [span("Ann Miller Senior")])
        values = {str(c.value) for c in candidates}
        assert "Ann Miller" in values  # bigram found the real DB value

    def test_gender_word_from_question(self, searcher):
        generator = CandidateGenerator(searcher)
        candidates = generator.generate(["female", "students"], [])
        assert any(c.value == "F" for c in candidates)

    def test_cap_respected(self, searcher):
        generator = CandidateGenerator(
            searcher, GenerationConfig(max_candidates=3)
        )
        spans = [span(t) for t in ("Ann Miller", "Bob Smith", "Cid Rossi")]
        candidates = generator.generate([], spans)
        assert len(candidates) <= 3

    def test_no_searcher_still_works(self):
        generator = CandidateGenerator(None)
        candidates = generator.generate(["x"], [span("France")])
        assert any(c.value == "France" for c in candidates)


class TestValidation:
    @pytest.fixture
    def validator(self, pets_db):
        return CandidateValidator(InvertedIndex.build(pets_db))

    def test_found_candidates_get_locations(self, validator):
        [candidate] = validator.validate([ValueCandidate("France", "question")])
        assert candidate.locations == (ValueLocation("student", "home_country"),)

    def test_db_spelling_preferred(self, validator):
        [candidate] = validator.validate([ValueCandidate("france", "question")])
        assert candidate.value == "France"

    def test_unfound_text_dropped(self, validator):
        assert validator.validate([ValueCandidate("Atlantis", "ngram")]) == []

    def test_numbers_exempt(self, validator):
        # paper: "the value 3 is not part of the database but is used in
        # the SQL query to limit the results" -- numbers absent from the
        # base data survive validation unlocated
        [candidate] = validator.validate([ValueCandidate(999, "question")])
        assert candidate.locations == ()

    def test_quoted_exempt(self, validator):
        [candidate] = validator.validate(
            [ValueCandidate("goodbye", "question")],
            quoted_values={"goodbye"},
        )
        assert candidate.value == "goodbye"

    def test_wildcard_exempt(self, validator):
        [candidate] = validator.validate([ValueCandidate("%-08-%", "heuristic")])
        assert candidate.value == "%-08-%"

    def test_config_disables_exemptions(self, pets_db):
        validator = CandidateValidator(
            InvertedIndex.build(pets_db),
            ValidationConfig(keep_quoted=False, keep_numeric=False),
        )
        assert validator.validate([ValueCandidate(999, "question")]) == []

    def test_located_candidates_sort_first(self, validator):
        candidates = validator.validate(
            [ValueCandidate(999, "question"), ValueCandidate("France", "question")]
        )
        assert candidates[0].value == "France"

    def test_cap(self, pets_db):
        validator = CandidateValidator(
            InvertedIndex.build(pets_db), ValidationConfig(max_candidates=1)
        )
        out = validator.validate(
            [ValueCandidate("France", "question"), ValueCandidate("Italy", "question")]
        )
        assert len(out) == 1


class TestEndToEndCandidateFlow:
    def test_paper_running_example(self, pets_db):
        """'French students older than 20' -> candidates France + 20."""
        from repro.preprocessing import Preprocessor

        pre = Preprocessor(pets_db).run(
            "How many pets are owned by French students that are older than 20?"
        )
        values = {str(c.value) for c in pre.candidates}
        assert "France" in values
        assert "20" in values

    def test_candidate_describe(self):
        candidate = ValueCandidate("x", "question", (ValueLocation("t", "c"),))
        assert "t.c" in candidate.describe()
