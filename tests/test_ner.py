"""Unit tests for repro.ner: heuristics, tagger, gazetteer, combiner."""

from __future__ import annotations

import pytest

from repro.ner import (
    ExtractedValue,
    GazetteerRecognizer,
    PerceptronTagger,
    SpanKind,
    ValueExtractor,
    extract_capitalized,
    extract_heuristic_values,
    extract_months,
    extract_numbers,
    extract_ordinals,
    extract_quoted,
    extract_single_letters,
    merge_spans,
    ordinal_to_int,
)


class TestHeuristics:
    def test_quoted_extraction(self):
        # paper's example: "Whose head's name has the substring 'Ha'?"
        values = extract_quoted("Whose head's name has the substring 'Ha'?")
        assert [v.text for v in values] == ["Ha"]
        assert values[0].kind is SpanKind.QUOTED

    def test_double_quotes(self):
        values = extract_quoted('albums starting with "goodbye"')
        assert [v.text for v in values] == ["goodbye"]

    def test_capitalized_run(self):
        # paper's example: "Show all flight numbers with aircraft Airbus A340-300"
        values = extract_capitalized(
            "Show all flight numbers with aircraft Airbus A340"
        )
        texts = [v.text for v in values]
        assert "Airbus A340" in texts

    def test_sentence_initial_not_extracted(self):
        values = extract_capitalized("Show all flights.")
        assert values == []

    def test_sentence_initial_proper_noun_kept(self):
        values = extract_capitalized("John F Kennedy is an airport.")
        assert any("John" in v.text for v in values)

    def test_multiword_proper_noun(self):
        values = extract_capitalized(
            "Find routes to John F Kennedy International Airport now"
        )
        assert any(
            v.text == "John F Kennedy International Airport" for v in values
        )

    def test_single_letter(self):
        # paper's example about "the letter M"
        values = extract_single_letters(
            "employees whose first name does not contain the letter M"
        )
        assert [v.text for v in values] == ["M"]
        assert values[0].kind is SpanKind.LETTER

    def test_numbers_and_years(self):
        values = extract_numbers("3 pets older than 20 since 2010")
        kinds = {v.text: v.kind for v in values}
        assert kinds["3"] is SpanKind.NUMBER
        assert kinds["20"] is SpanKind.NUMBER
        assert kinds["2010"] is SpanKind.YEAR

    def test_ordinals(self):
        values = extract_ordinals("the fourth-grade classroom and the 9th row")
        texts = {v.text for v in values}
        assert "fourth" in texts and "9th" in texts

    def test_ordinal_to_int(self):
        assert ordinal_to_int("fourth") == 4
        assert ordinal_to_int("9th") == 9
        assert ordinal_to_int("banana") is None

    def test_months(self):
        values = extract_months("trips starting from the 9th of August 2010")
        assert [v.text for v in values] == ["August"]
        assert values[0].kind is SpanKind.MONTH

    def test_combined_sorted_by_position(self):
        values = extract_heuristic_values(
            "Which start station had the most trips starting from the "
            "9th of August 2010?"
        )
        starts = [v.start for v in values]
        assert starts == sorted(starts)

    def test_spans_match_question_text(self):
        question = "Find flights to Paris with a duration over 6 hours"
        for value in extract_heuristic_values(question):
            assert question[value.start:value.end] == value.text


class TestMergeSpans:
    def test_dedup_same_text(self):
        a = ExtractedValue("Paris", 0, 5, SpanKind.TEXT, "heuristic")
        b = ExtractedValue("paris", 10, 15, SpanKind.TEXT, "gazetteer")
        assert len(merge_spans([a, b])) == 1

    def test_same_source_containment_dropped(self):
        outer = ExtractedValue("John F Kennedy", 0, 14, SpanKind.TEXT, "heuristic")
        inner = ExtractedValue("Kennedy", 7, 14, SpanKind.TEXT, "heuristic")
        kept = merge_spans([outer, inner])
        assert [s.text for s in kept] == ["John F Kennedy"]

    def test_cross_source_containment_kept(self):
        outer = ExtractedValue("John F Kennedy", 0, 14, SpanKind.TEXT, "gazetteer")
        inner = ExtractedValue("Kennedy", 7, 14, SpanKind.TEXT, "tagger")
        assert len(merge_spans([outer, inner])) == 2


class TestGazetteer:
    def test_country_recognition(self):
        spans = GazetteerRecognizer().extract("students from France and Italy")
        assert {s.text for s in spans} == {"France", "Italy"}

    def test_multiword_longest_match(self):
        spans = GazetteerRecognizer().extract("flights to New York today")
        assert any(s.text == "New York" for s in spans)

    def test_months_typed(self):
        spans = GazetteerRecognizer().extract("bookings in august")
        assert spans and spans[0].kind is SpanKind.MONTH

    def test_case_insensitive(self):
        spans = GazetteerRecognizer().extract("who lives in PARIS")
        assert [s.text for s in spans] == ["PARIS"]


class TestPerceptronTagger:
    @pytest.fixture
    def trained(self):
        examples = []
        for country in ["France", "Italy", "Spain", "Greece", "Poland"]:
            question = f"List all students from {country} please"
            start = question.index(country)
            examples.append((question, [(start, start + len(country))]))
            question2 = f"How many people living in {country} are there?"
            start2 = question2.index(country)
            examples.append((question2, [(start2, start2 + len(country))]))
        examples.append(("How many students are there?", []))
        examples.append(("List the names of all pets.", []))
        tagger = PerceptronTagger()
        tagger.train(examples, epochs=6)
        return tagger

    def test_learns_pattern(self, trained):
        spans = trained.extract("List all students from Norway please")
        assert any(s.text == "Norway" for s in spans)

    def test_no_values_question(self, trained):
        # a question seen in training with no value spans stays empty or
        # at worst produces no span covering the country position
        spans = trained.extract("How many students are there?")
        assert all("France" not in s.text for s in spans)

    def test_save_load(self, trained, tmp_path):
        path = tmp_path / "tagger.json"
        trained.save(path)
        loaded = PerceptronTagger.load(path)
        q = "List all students from Norway please"
        assert [s.text for s in loaded.extract(q)] == [
            s.text for s in trained.extract(q)
        ]

    def test_numbers_typed(self):
        tagger = PerceptronTagger()
        tagger.train(
            [("pets older than 20", [(16, 18)])] * 3, epochs=4
        )
        spans = tagger.extract("pets older than 30")
        numeric = [s for s in spans if s.text == "30"]
        for s in numeric:
            assert s.kind is SpanKind.NUMBER


class TestValueExtractor:
    def test_heuristics_only(self):
        extractor = ValueExtractor()
        spans = extractor.extract("students older than 20 from 'France'")
        texts = {s.text for s in spans}
        assert "20" in texts and "France" in texts

    def test_with_gazetteer(self):
        extractor = ValueExtractor()
        spans = extractor.extract("all female students from france")  # lower case!
        assert any(s.text == "france" for s in spans)
