"""Unit and property tests for repro.index."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import (
    BlockedValuePool,
    InvertedIndex,
    SimilaritySearcher,
    ValueLocation,
    normalize_value,
)
from repro.text.distance import damerau_levenshtein


class TestNormalizeValue:
    def test_strings_lowered(self):
        assert normalize_value("  France ") == "france"

    def test_integral_floats_collapse(self):
        assert normalize_value(3.0) == "3"
        assert normalize_value(3.5) == "3.5"

    def test_ints(self):
        assert normalize_value(42) == "42"


class TestInvertedIndex:
    @pytest.fixture
    def index(self, pets_db):
        return InvertedIndex.build(pets_db)

    def test_lookup_exact(self, index):
        locations = index.lookup("France")
        assert ValueLocation("student", "home_country") in locations

    def test_lookup_case_insensitive(self, index):
        assert index.lookup("france") == index.lookup("FRANCE")

    def test_lookup_missing(self, index):
        assert index.lookup("Atlantis") == set()

    def test_contains(self, index):
        assert index.contains("Dog")
        assert not index.contains("Unicorn")

    def test_original_forms(self, index):
        assert "France" in index.original_forms("france")

    def test_numeric_columns_tracked(self, index):
        # Indexed for lookup, never listed for the similarity pool.
        age = ValueLocation("student", "age")
        assert age in index.lookup(22)
        assert age not in index.text_locations()
        assert all(location != age for _, location in index.iter_text_values())

    def test_numeric_values_indexed_for_lookup(self, index):
        # numbers are findable (validation) even if not in the text pool
        assert index.lookup(22)

    def test_values_in_column_distinct(self, index):
        pet_type = ValueLocation("pet", "pet_type")
        values = [v for v, loc in index.iter_text_values() if loc == pet_type]
        assert sorted(values) == ["Cat", "Dog"]  # distinct, original case

    def test_iter_text_values(self, index):
        pairs = list(index.iter_text_values())
        assert ("France", ValueLocation("student", "home_country")) in pairs

    def test_num_distinct_values(self, index):
        assert index.num_distinct_values > 5


def pool_candidates(values, query, max_distance):
    pool = BlockedValuePool(values)
    return [values[i] for i in pool.candidate_indices(query, max_distance=max_distance)]


class TestBlocking:
    def test_candidates_superset_of_matches(self):
        values = ["France", "Frankreich", "Greece", "Brazil", "Francia"]
        candidates = pool_candidates(values, "france", 2)
        # every true match must be in the candidate set
        for value in values:
            if damerau_levenshtein("france", value.lower()) <= 2:
                assert value in candidates

    def test_length_band_guarantees_recall(self):
        # differs in first char
        assert "xrance" in pool_candidates(["xrance"], "france", 1)

    @given(
        st.lists(st.text(alphabet="abcdef", min_size=1, max_size=8), max_size=25),
        st.text(alphabet="abcdef", min_size=1, max_size=8),
        st.integers(0, 3),
    )
    @settings(max_examples=80)
    def test_recall_property(self, values, query, max_distance):
        """Blocking never loses a value within the distance bound."""
        candidates = set(pool_candidates(values, query, max_distance))
        for value in values:
            if damerau_levenshtein(query.lower(), value.lower()) <= max_distance:
                assert value in candidates

    def test_len(self):
        assert len(BlockedValuePool(["a", "b"])) == 2


class TestSimilaritySearcher:
    @pytest.fixture
    def searcher(self, pets_db):
        return SimilaritySearcher(InvertedIndex.build(pets_db))

    def test_typo_recovery(self, searcher):
        matches = searcher.search("Frnace")
        assert matches and matches[0].value == "France"
        assert matches[0].distance == 1

    def test_case_variation(self, searcher):
        matches = searcher.search("france")
        assert matches[0].distance == 0

    def test_results_sorted_by_distance(self, searcher):
        matches = searcher.search("Fran", max_distance=3)
        distances = [m.distance for m in matches]
        assert distances == sorted(distances)

    def test_max_results_cap(self, searcher):
        matches = searcher.search("a", max_distance=10, max_results=2)
        assert len(matches) <= 2

    def test_best_match(self, searcher):
        best = searcher.best_match("Itly")
        assert best is not None and best.value == "Italy"

    def test_no_match_out_of_range(self, searcher):
        assert searcher.best_match("zzzzzzzzz") is None

    def test_similarity_property(self, searcher):
        match = searcher.search("Frnace")[0]
        assert 0.0 < match.similarity <= 1.0

    def test_numbers_not_in_text_pool(self, searcher):
        # similarity search covers text columns only (paper: numbers are
        # their own candidates)
        matches = searcher.search("22", max_distance=0)
        assert all(m.value != "22" for m in matches)
