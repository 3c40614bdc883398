"""Sub-linear value search: differential properties, persistence, registry.

The q-gram count filter and the banded distance kernel are *filters* in
front of the reference Damerau-Levenshtein scan — correctness means they
never drop a true match.  Every test here checks against the full DP or
the naive all-pairs scan, so a regression in the fast path cannot hide.
The columnar pool's array code is held to per-value references: the
scalar kernels of :mod:`repro.text.distance` for the batched verify, and
:func:`reference_candidates` (the filter conditions spelled out with
``Counter`` and ``padded_qgrams``) for the filter.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import random
import sqlite3
import subprocess
import sys
import threading
import tracemalloc
import urllib.request
import zlib
from array import array
from collections import Counter
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.worker import ServingStack, WorkerSpec
from repro.db import Database
from repro.index import (
    BlockedValuePool,
    IndexRegistry,
    InvertedIndex,
    SearchStats,
    SimilaritySearcher,
    ValueLocation,
    load_bundle,
    normalize_value,
    save_bundle,
)
from repro.index.persistence import FORMAT_VERSION
from repro.preprocessing import Preprocessor
from repro.schema import Column, ColumnType, Schema, Table
from repro.serving import DatabaseRuntime, ServingServer, TranslationService
from repro.spider import CorpusConfig, generate_corpus
from repro.text.distance import damerau_levenshtein, damerau_levenshtein_banded
from repro.text.ngrams import padded_qgrams
from tests.reference_index import (
    packed_keys,
    packed_spellings,
    reference_build,
    reference_fanout,
    reference_pool,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def index_cells(
    cells: list[tuple[str, int]], *, columns: int = 3, **kwargs: int
) -> InvertedIndex:
    """``InvertedIndex.build`` (the path serving runs) over an in-memory
    one-table database: each ``(value, column)`` cell is one row of table
    ``t`` holding ``value`` in column ``c<column>`` and NULL elsewhere."""
    table = Table(
        "t", tuple(Column(f"c{i}", "t", ColumnType.TEXT) for i in range(columns))
    )
    database = Database.create(Schema("cells", [table]))
    database.insert_rows("t", [
        tuple(value if i == column else None for i in range(columns))
        for value, column in cells
    ])
    try:
        return InvertedIndex.build(database, **kwargs)
    finally:
        database.close()


def column_values(index: InvertedIndex, location: ValueLocation) -> list[str]:
    """The distinct original values the index lists for one text column."""
    return [value for value, at in index.iter_text_values() if at == location]


def naive_search(index: InvertedIndex, query: str, max_distance: int):
    """Reference: full DP against every indexed text value, no blocking."""
    lowered = query.lower()
    matches = []
    for value, location in index.iter_text_values():
        distance = damerau_levenshtein(lowered, value.lower())
        if distance <= max_distance:
            matches.append((value, location, distance))
    matches.sort(key=lambda m: (m[2], m[0].lower(), str(m[1])))
    return matches


def typo_queries(values: list[str]) -> list[str]:
    """Deterministic near-miss queries derived from real values."""
    queries = []
    for value in values:
        v = value.lower()
        if len(v) >= 2:
            queries.append(v[1:] + v[0])          # rotate
            queries.append(v[:-1])                # deletion
            queries.append(v[0] + "x" + v[1:])    # insertion
            mid = len(v) // 2
            queries.append(v[:mid] + v[mid + 1:mid] + v[mid:])  # no-op guard
            queries.append(v[:mid] + "z" + v[mid + 1:])         # substitution
        queries.append(v)
    return queries


def pool_candidates(values: list[str], query: str, k: int) -> list[str]:
    """The values the pool's filter lets through."""
    pool = BlockedValuePool(values)
    return [values[i] for i in pool.candidate_indices(query, max_distance=k)]


def reference_candidates(values: list[str], query: str, k: int, q: int = 3) -> list[int]:
    """The filter's conditions spelled out one value at a time: the exact
    index list ``candidate_indices`` must return (no looser, no tighter)."""
    query = query.lower()
    query_grams, query_chars = Counter(padded_qgrams(query, q)), Counter(query)
    picked = []
    for i, value in enumerate(values):
        value = value.lower()
        longest = max(len(query), len(value))
        if abs(len(query) - len(value)) > k:
            keep = False  # length band
        elif longest <= k:
            keep = True  # tiny: may match sharing nothing
        elif k <= q and longest > 1 + q * k:
            shared = sum((query_grams & Counter(padded_qgrams(value, q))).values())
            keep = shared >= longest - 1 - q * k  # q-gram count filter
        elif k <= q or len(value) <= 1 + q * q:
            shared = sum((query_chars & Counter(value)).values())
            keep = longest - shared <= k  # bag-of-characters filter
        else:
            keep = True  # k > q, too long for the character postings
        if keep:
            picked.append(i)
    return picked


_SYLLABLES = (
    "an ber cor dan el fen gor hal in jor kel lum mar nor ol per qui ran "
    "sel tor ul ver win xan yor zel"
).split()


def seeded_corpus() -> tuple[list[str], list[str]]:
    """3 000 distinct entity-like strings and 300 near-miss queries."""
    rng = random.Random(11)
    values: set[str] = set()
    while len(values) < 3000:
        values.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4))))
    ordered = sorted(values)
    return ordered, typo_queries(ordered[::60])


# --------------------------------------------------------------- kernels


class TestBandedDistance:
    @given(
        st.text(alphabet="abcde", max_size=12),
        st.text(alphabet="abcde", max_size=12),
        st.integers(0, 4),
    )
    @settings(max_examples=300)
    def test_matches_full_dp(self, a, b, k):
        full = damerau_levenshtein(a, b)
        expected = full if full <= k else k + 1
        assert damerau_levenshtein_banded(a, b, max_distance=k) == expected

    def test_transposition(self):
        assert damerau_levenshtein_banded("jfk", "jkf", max_distance=2) == 1

    def test_band_prunes_far_pairs(self):
        assert damerau_levenshtein_banded("abcdefgh", "zyxwvuts", max_distance=2) == 3

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            damerau_levenshtein_banded("a", "b", max_distance=-1)


class TestQGramPool:
    @given(
        st.lists(st.text(alphabet="abcdef", max_size=9), max_size=30),
        st.text(alphabet="abcdef", max_size=9),
        st.integers(0, 4),
    )
    @settings(max_examples=200)
    @example(values=["a" * 300], query="a" * 299, k=1)  # gram counts past 255
    @example(values=["a" * 299, "a" * 300 + "b"], query="a" * 300, k=2)
    def test_count_filter_never_drops_a_true_match(self, values, query, k):
        candidates = pool_candidates(values, query, k)
        for value in values:
            if damerau_levenshtein(query.lower(), value.lower()) <= k:
                assert value in candidates

    def test_filter_actually_prunes(self):
        # Same-length values far in content must be dropped by the count
        # filter even though the length band admits all of them.
        values = ["abcdefgh", "ijklmnop", "qrstuvwx", "abcdefgx"]
        candidates = pool_candidates(values, "abcdefgh", 1)
        assert "abcdefgh" in candidates and "abcdefgx" in candidates
        assert "ijklmnop" not in candidates and "qrstuvwx" not in candidates

    def test_short_strings_fall_back_to_length_band(self):
        candidates = pool_candidates(["ab", "xy", "a", "abcdefgh"], "ab", 2)
        # max(|s|,|t|) <= 1 + q*k: zero shared grams required
        assert "xy" in candidates and "a" in candidates
        assert "abcdefgh" not in candidates  # outside the length band

    def test_large_bounds_drop_the_gram_filter(self):
        # k > q: the count threshold is no longer a safe necessary
        # condition.  True matches anywhere in the length band must come
        # back; the bag-of-characters bound may still prune short values.
        values = ["abcdefgh", "abcdefghijkl", "ijklmnop", "abcdefghijklmnop"]
        candidates = pool_candidates(values, "abcdefgh", 4)
        assert "abcdefgh" in candidates
        assert "abcdefghijkl" in candidates  # distance 4: four insertions
        # distance 8, zero shared characters: bag bound prunes it
        assert "ijklmnop" not in candidates
        # outside the length band entirely
        assert "abcdefghijklmnop" not in candidates

    def test_state_round_trip(self):
        pool = BlockedValuePool(["France", "Francia", "Greece", "a", ""])
        restored = BlockedValuePool.from_state(
            pickle.loads(pickle.dumps(pool.state_dict()))
        )
        assert len(restored) == len(pool) == 5
        # the start offsets are not persisted: the load derives them
        assert "starts" not in pool.state_dict()
        for built in (pool, restored):
            assert built._starts.dtype == np.uint32
            assert built._starts.tolist() == [0, 6, 13, 19, 20]
        everything = np.arange(len(pool))
        for query in ("france", "grece", "", "q"):
            for k in (0, 1, 2, 4):
                assert (
                    restored.candidate_indices(query, max_distance=k).tolist()
                    == pool.candidate_indices(query, max_distance=k).tolist()
                )
                assert (
                    restored.distances(query, everything, max_distance=k).tolist()
                    == pool.distances(query, everything, max_distance=k).tolist()
                )

    @given(
        st.lists(st.text(alphabet="abcd\x00", max_size=14), max_size=25),
        st.text(alphabet="abcdz\x00", max_size=14),
        st.integers(0, 4),
    )
    @settings(max_examples=200)
    @example(values=["a" * 300, "a" * 298 + "b"], query="a" * 299, k=2)
    def test_filter_is_exactly_the_stated_conditions(self, values, query, k):
        pool = BlockedValuePool(values)
        assert pool.candidate_indices(query, max_distance=k).tolist() == (
            reference_candidates(values, query, k)
        )

    def test_multiplicities_do_not_saturate(self):
        # 298 copies of one trigram: a count clamped at 255 would read
        # min(query count, value count) 42 short and drop the exact match
        long_run = "a" * 300
        assert pool_candidates([long_run, "b" * 300], long_run, 0) == [long_run]
        assert pool_candidates([long_run], "a" * 299, 1) == [long_run]

    def test_survivors_pinned_on_seeded_corpus(self):
        """The retired bench's bar, as counts: the filter passes >= 5x fewer
        values to the DP than the length band would — and exactly as many
        as when this number was pinned, so loosening it cannot go unseen."""
        values, queries = seeded_corpus()
        pool = BlockedValuePool(values)
        lengths = np.array([len(value) for value in values])
        survivors = sum(
            len(pool.candidate_indices(query, max_distance=2)) for query in queries
        )
        length_band = sum(
            int(np.count_nonzero(np.abs(lengths - len(query)) <= 2))
            for query in queries
        )
        assert (len(queries), survivors, length_band) == (300, 47_028, 478_971)
        assert length_band >= 5 * survivors

    def test_q_must_be_positive(self):
        with pytest.raises(ValueError):
            BlockedValuePool(["a"], q=0)


#: text the batched kernel must get right: empty strings, repeats, adjacent
#: transpositions, the pad character, a non-BMP code point
_POOL_TEXT = st.text(alphabet="ab\x00é\U0001d518", max_size=10)
#: ... and queries with characters no pooled value contains
_QUERY_TEXT = st.text(alphabet="abz\x00é\U0001d518\U0001f600", max_size=10)


class TestBatchedDistances:
    @given(st.lists(_POOL_TEXT, max_size=20), _QUERY_TEXT, st.integers(0, 4))
    @settings(max_examples=300)
    @example(values=["", "ab", "ba", "aab", "\x00"], query="ab", k=1)
    @example(values=["abcdef", "badcfe", "abdcef"], query="abcdef", k=3)
    @example(values=["\U0001d518b", "b\U0001d518"], query="\U0001f600b", k=2)
    def test_equals_scalar_kernels(self, values, query, k):
        pool = BlockedValuePool(values)
        got = pool.distances(query, np.arange(len(values)), max_distance=k).tolist()
        lowered = query.lower()
        assert got == [
            damerau_levenshtein_banded(lowered, value.lower(), max_distance=k)
            for value in values
        ]
        assert got == [
            min(damerau_levenshtein(lowered, value.lower()), k + 1)
            for value in values
        ]

    def test_subset_and_order_of_candidates_respected(self):
        pool = BlockedValuePool(["france", "greece", "franc", "x" * 40])
        assert pool.distances("france", [3, 2, 0], max_distance=2).tolist() == [3, 1, 0]
        assert pool.distances("france", [], max_distance=2).tolist() == []

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            BlockedValuePool(["a"]).distances("a", [0], max_distance=-1)


#: (first code point, alphabet size, character-id dtype) of pools whose
#: ids fit one byte, need two and need four: a byte holds the pad, 253
#: characters and the two reserved ids ("outside the alphabet" and the
#: distance kernel's filler), two bytes the pad, 65 533 and those two
_CODE_WIDTHS = [
    (ord("a"), 26, np.uint8),
    (0x4E00, 400, np.uint16),
    (0x20000, 70_000, np.uint32),
]


class TestCharacterIdWidths:
    @pytest.fixture(scope="class", params=_CODE_WIDTHS, ids=["uint8", "uint16", "uint32"])
    def coded(self, request):
        """Every character of the alphabet once, in 10-character values,
        then 300 short values over its first 30 characters; queries are
        values, typos, and characters outside the alphabet."""
        first, size, dtype = request.param
        alphabet = [chr(first + i) for i in range(size)]
        outside = chr(first + size)  # in no value
        rng = random.Random(size)
        values = ["".join(alphabet[i:i + 10]) for i in range(0, size, 10)]
        values += [
            "".join(rng.choice(alphabet[:30]) for _ in range(rng.randint(0, 12)))
            for _ in range(300)
        ]
        queries = [
            values[3], values[3][1:] + values[3][0], values[-5] + outside,
            outside + values[7][:-1], values[-9][:2] + outside + values[-9][3:],
            outside * 3, "",
        ]
        return values, queries, dtype

    def test_ids_take_the_narrowest_dtype_and_match_the_reference(self, coded):
        values, _, dtype = coded
        pool = BlockedValuePool(values)
        assert pool._codes.dtype == dtype
        assert pool_fields(pool.state_dict()) == pool_fields(
            reference_pool(values).state_dict()
        )
        restored = BlockedValuePool.from_state(pickle.loads(pickle.dumps(pool.state_dict())))
        assert restored._codes.dtype == dtype

    @pytest.mark.parametrize("size, dtype", [(253, np.uint8), (254, np.uint16)])
    def test_a_byte_holds_253_characters(self, size, dtype):
        values = [chr(0x4E00 + i) for i in range(size)]
        pool = BlockedValuePool(values)
        assert pool._codes.dtype == dtype
        # the last character's id and the unseen one's sit next to the filler
        query = values[-1] + chr(0x4E00 + size)
        assert pool.distances(query, np.arange(size), max_distance=1).tolist() == [
            damerau_levenshtein_banded(query, value, max_distance=1) for value in values
        ]

    def test_filter_and_distances_equal_the_scalar_kernels(self, coded):
        values, queries, _ = coded
        pool = BlockedValuePool(values)
        everything = np.arange(len(values))
        for query in queries:
            for k in (0, 1, 2, 4):
                assert pool.candidate_indices(query, max_distance=k).tolist() == (
                    reference_candidates(values, query, k)
                )
                assert pool.distances(query, everything, max_distance=k).tolist() == [
                    damerau_levenshtein_banded(query, value, max_distance=k)
                    for value in values
                ]


# -------------------------------------------------- differential searcher


@pytest.fixture(scope="module")
def spider_corpus():
    return generate_corpus(CorpusConfig(train_per_domain=4, dev_per_domain=3))


def assert_search_matches_naive(database, *, max_distance):
    index = InvertedIndex.build(database)
    searcher = SimilaritySearcher(index)
    values = [value for value, _ in index.iter_text_values()]
    sample = values[:: max(1, len(values) // 25)]  # ~25 spread-out values
    for query in typo_queries(sample):
        expected = naive_search(index, query, max_distance)
        got = searcher.search(
            query, max_distance=max_distance, max_results=len(values) + len(expected) + 1
        )
        assert [(m.value, m.location, m.distance) for m in got] == expected, (
            f"mismatch for query {query!r} at k={max_distance}"
        )


class TestDifferentialAgainstNaive:
    def test_pets_database(self, pets_db):
        for k in (0, 1, 2):
            assert_search_matches_naive(pets_db, max_distance=k)

    def test_one_spider_database(self, spider_corpus):
        domain = sorted(spider_corpus.domains)[0]
        assert_search_matches_naive(
            spider_corpus.database(domain), max_distance=2
        )

    @pytest.mark.slow
    def test_all_spider_databases_exhaustive(self, spider_corpus):
        """Acceptance sweep: identical candidate sets on every synthetic
        Spider database for every k <= 2."""
        for domain in sorted(spider_corpus.domains):
            database = spider_corpus.database(domain)
            for k in (0, 1, 2):
                assert_search_matches_naive(database, max_distance=k)

    @given(
        st.lists(
            st.tuples(st.text(alphabet="abcAB ", min_size=1, max_size=8),
                      st.integers(0, 2)),
            max_size=30,
        ),
        st.text(alphabet="abcAB ", max_size=8),
        st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_search_equals_brute_force_oracle(self, cells, query, k):
        """Values, locations, distances and order of ``search`` equal the
        full DP over every pooled value, for arbitrary small indexes
        (case variants and repeats across columns included)."""
        index = index_cells(cells)
        searcher = SimilaritySearcher(index)
        got = searcher.search(query, max_distance=k, max_results=10 * len(cells) + 1)
        assert [(m.value, m.location, m.distance) for m in got] == naive_search(
            index, query, k
        )

    def test_cross_column_fanout(self):
        """A string in many columns is returned once per location."""
        index = index_cells([("Paris", i) for i in range(5)], columns=5)
        locations = [ValueLocation("t", f"c{i}") for i in range(5)]
        searcher = SimilaritySearcher(index)
        matches = searcher.search("paris", max_distance=1, max_results=50)
        assert sorted((m.location for m in matches), key=str) == sorted(
            locations, key=str
        )
        assert all(m.distance == 0 for m in matches)

    def test_build_dedupes_caps_and_skips_blank_cells(self):
        """A column's pool keeps one spelling per normalized key and at
        most ``max_values_per_column`` rows; blank cells are not indexed."""
        cells = [("Paris", 0), ("paris", 0), (" Paris ", 0), ("   ", 0)]
        cells += [(f"value{i}", 1) for i in range(10)]
        index = index_cells(cells, columns=2, max_values_per_column=5)
        assert column_values(index, ValueLocation("t", "c0")) == ["Paris"]
        assert index.lookup("PARIS") == {ValueLocation("t", "c0")}
        assert len(column_values(index, ValueLocation("t", "c1"))) == 5
        assert index.num_distinct_values == 1 + 5


# ----------------------------------------------------- searcher behavior


class TestSearcherCacheAndStaleness:
    def test_memo_hits_and_misses_counted(self, pets_db):
        searcher = SimilaritySearcher(InvertedIndex.build(pets_db))
        searcher.search("frnace")
        searcher.search("frnace")
        searcher.search("frnace", max_distance=1)  # different bound: miss
        assert searcher.stats.cache_hits == 1
        assert searcher.stats.cache_misses == 2
        assert searcher.stats.searches == 3

    def test_memoized_results_identical(self, pets_db):
        searcher = SimilaritySearcher(InvertedIndex.build(pets_db))
        first = searcher.search("frnace")
        second = searcher.search("frnace")
        assert first == second

    def test_memo_respects_max_results(self, pets_db):
        searcher = SimilaritySearcher(InvertedIndex.build(pets_db))
        full = searcher.search("fran", max_distance=3, max_results=50)
        assert len(searcher.search("fran", max_distance=3, max_results=1)) == 1
        assert searcher.search("fran", max_distance=3, max_results=50) == full

    def test_dp_call_accounting(self, pets_db):
        searcher = SimilaritySearcher(InvertedIndex.build(pets_db))
        searcher.search("frnace")
        assert searcher.stats.dp_calls >= 1
        calls = searcher.stats.dp_calls
        searcher.search("frnace")  # memo hit: no new DP work
        assert searcher.stats.dp_calls == calls

    def test_dp_calls_count_the_survivors_verified(self, pets_db):
        searcher = SimilaritySearcher(InvertedIndex.build(pets_db))
        searcher.search("frnace", max_distance=2)
        assert searcher.stats.dp_calls == len(
            searcher._pool.candidate_indices("frnace", max_distance=2)
        )


# -------------------------------------------------------- compact index


class TestCompactIndex:
    def test_cold_build_and_round_trip_share_one_set_per_combination(self):
        """A cold build and its ``from_state(state_dict())`` round trip
        answer every key alike, and both hand out one location-set object
        per distinct column combination, held once in the set table."""
        cells = [
            ("Paris", 0), ("paris", 1), (" Paris ", 2),  # case clash, padding
            ("Rome", 0), ("Rome", 1), ("Berlin", 0),
            ("Oslo", 1), ("Oslo", 2), ("Lima", 1), ("LIMA", 2),
            ("Quito", 2), ("Rome", 0),
        ]
        keys = sorted({normalize_value(value) for value, _ in cells})
        cold = index_cells(cells)
        warm = InvertedIndex.from_state(cold.state_dict())
        assert cold.num_distinct_values == warm.num_distinct_values == len(keys)
        for key in keys:
            for probe in (key, key.upper(), f" {key.title()} "):
                assert cold.lookup(probe) == warm.lookup(probe)
                assert cold.original_forms(probe) == warm.original_forms(probe)
                assert cold.contains(probe) and warm.contains(probe)
            for location in cold.lookup(key):
                assert column_values(cold, location) == column_values(
                    warm, location
                )
        assert cold.original_forms("paris") == ("Paris", "paris", " Paris ")
        assert cold.original_forms("lima") == ("Lima", "LIMA")
        assert cold.lookup("quito") == {ValueLocation("t", "c2")}

        combinations = {frozenset(cold.lookup(key)) for key in keys}
        assert len(combinations) == 5  # {c0,c1,c2} {c0,c1} {c0} {c1,c2} {c2}
        for index in (cold, warm):
            held = [index.lookup(key) for key in keys]
            assert len({id(locations) for locations in held}) == len(combinations)
            # the set table holds the combinations in use, no more
            assert len(index.state_dict()["locset_table"]) == len(combinations)
            # each distinct spelling stored once, however many columns hold it
            assert sorted(packed_spellings(index.state_dict())) == sorted(
                {value for value, _ in cells}
            )
        assert pickle.dumps(warm.state_dict()) == pickle.dumps(cold.state_dict())

    def test_integer_key_is_stored_once(self):
        """An integer met in several rows and columns is one key in the
        key blob and one spelling in the spelling blob."""
        table = Table("t", (
            Column("n", "t", ColumnType.NUMBER), Column("m", "t", ColumnType.NUMBER),
        ))
        database = Database.create(Schema("numbers", [table]))
        database.insert_rows("t", [(12, 7), (7, None), (12, 12)])
        index = InvertedIndex.build(database)
        database.close()
        assert index.original_forms(12) == ("12",)
        assert index.lookup(7.0) == {ValueLocation("t", "n"), ValueLocation("t", "m")}
        assert sorted(packed_spellings(index.state_dict())) == ["12", "7"]
        assert sorted(packed_keys(index.state_dict())) == ["12", "7"]

    def test_build_memory_per_key_is_bounded(self):
        """The traced bytes an index build keeps, per distinct key, stay
        small: 49.8 B on CPython 3.11 and numpy 2.4, bounded at 57 (15 %
        over), of which 15 are the key's spelling (its 11 bytes in the
        spelling blob and their offset).  A spelling string per key
        (102.8 B, the spelling list the blob replaced) and the
        dict-per-key layout before it (170 B: a key string and two dict
        entries per key) do not fit."""
        cells = [(f"Value {i:05d}", i % 2) for i in range(20_000)]
        gc.collect()
        tracemalloc.start()
        try:
            index = index_cells(cells, columns=2, max_values_per_column=20_000)
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.num_distinct_values == 20_000
        assert kept / index.num_distinct_values < 57

    def test_pool_build_memory_is_bounded(self):
        """A 20 000-value pool (289 464 characters) keeps 5.3 traced bytes
        per pooled character on CPython 3.11 and numpy 2.4 (0.28 of them
        the ``uint32`` start offsets), bounded at 5.6 (6 % over), and its
        build peaks 14.8 bytes per character above what it keeps, bounded
        at 16 (8 % over).  ``int32`` posting value indexes with an
        ``int64`` offset array beside the lengths (8.0 B kept), four-byte
        code points (11.3 B) or the build's former int64
        index arithmetic and second lower-cased copy of every value
        (41.9 B above) do not fit."""
        rng = random.Random(46)
        values: set[str] = set()
        while len(values) < 20_000:
            values.add(" ".join(
                "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
                for _ in range(rng.randint(1, 2))
            ).title())
        characters = sum(map(len, values))
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            pool = BlockedValuePool(sorted(values))
            gc.collect()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pool) == 20_000
        assert (kept - base) / characters < 5.6
        assert (peak - kept) / characters < 16


# ----------------------------------------- bulk build against per-value


def untyped_database(columns: list[tuple[ColumnType, list[object]]]) -> Database:
    """One in-memory table ``t``: column ``c<i>`` has the logical type and
    the cells (``None`` for NULL) of ``columns[i]``, shorter columns
    padded with NULL.  The SQL columns carry no declared type, so SQLite
    hands every cell back as the Python type it went in as."""
    names = [f"c{i}" for i in range(len(columns))]
    table = Table("t", tuple(
        Column(name, "t", kind) for name, (kind, _) in zip(names, columns)
    ))
    connection = sqlite3.connect(":memory:", check_same_thread=False)
    connection.execute(f"CREATE TABLE t ({', '.join(names)})")
    connection.executemany(
        f"INSERT INTO t VALUES ({', '.join('?' * len(names))})",
        zip_longest(*(cells for _, cells in columns)),
    )
    return Database(Schema("mixed", [table]), connection)


def assert_build_matches_reference(database: Database, **kwargs: int) -> None:
    """The bulk build yields what the per-value build does: keys, location
    sets and spellings in order, column value lists, the searcher's
    fan-out arrays and the pool's arrays with their dtypes."""
    index = InvertedIndex.build(database, **kwargs)
    reference = reference_build(database, **kwargs)
    assert sorted(packed_keys(index.state_dict())) == sorted(reference.locations)
    for key, locations in reference.locations.items():
        assert index.lookup(key) == locations
        assert index.original_forms(key) == reference.originals[key]
        assert index.find(key) == (locations, reference.originals[key])
    for table in database.schema.tables:
        for column in table.columns:
            for value in database.column_values(column):
                key = normalize_value(value)
                assert index.lookup(value) == reference.locations.get(key, frozenset())
    assert list(index.iter_text_values()) == list(reference.iter_text_values())

    state = SimilaritySearcher(index).state_dict()
    values, loc_table, offsets, originals, location_ids = reference_fanout(reference)
    assert state["loc_table"] == [(loc.table, loc.column) for loc in loc_table]
    for got, expected in ((state["offsets"], offsets), (state["location_ids"], location_ids)):
        assert (got.typecode, got) == (expected.typecode, expected)
    assert [index.spelling(i) for i in state["spelling_ids"]] == originals
    assert pool_fields(state["pool"]) == pool_fields(reference_pool(values).state_dict())


def pool_fields(state: dict) -> list[tuple]:
    """A pool state's fields, each array as its dtype and values."""
    return [
        (name, part.dtype, part.tolist()) if isinstance(part, np.ndarray) else (name, part)
        for name, field in state.items()
        for part in (field if isinstance(field, tuple) else (field,))
    ]


#: cells of every kind a column may hand back: case clashes, padding and
#: blanks, NULL, integers, integral and non-integral floats (``1e16`` is
#: integral but prints as ``1e+16``), and strings that read as numbers
_CELL_TEXT = st.text(alphabet="abAB \t", max_size=5)
_CELL = st.one_of(
    st.none(),
    _CELL_TEXT,
    st.sampled_from(["7", "7.0", " 7 "]),
    st.integers(-3, 12),
    st.integers(-3, 12).map(float),
    st.sampled_from([0.5, -2.25, 1e16, 3e-07]),
)
#: a column of strings, of integers, or of anything
_COLUMN_CELLS = st.one_of(
    st.lists(st.one_of(st.none(), _CELL_TEXT), max_size=24),
    st.lists(st.one_of(st.none(), st.integers(-3, 12)), max_size=24),
    st.lists(_CELL, max_size=24),
)


class TestBulkBuildAgainstReference:
    @given(
        st.lists(
            st.tuples(st.sampled_from(list(ColumnType)), _COLUMN_CELLS),
            min_size=1, max_size=4,
        ),
        st.integers(1, 30),
    )
    @settings(max_examples=150, deadline=None)
    @example(
        columns=[
            (ColumnType.TEXT, ["Rome", "  ", "Paris", None, "paris", " Paris ", "Oslo"]),
            (ColumnType.NUMBER, [3, 3.0, 2.5, 1e16, 7, "7", None]),
            (ColumnType.OTHERS, ["ROME", 3, "rome", "x", "y", "oslo"]),
        ],
        max_values=5,
    )
    def test_mixed_cells_match_the_per_value_build(self, columns, max_values):
        database = untyped_database(columns)
        try:
            assert_build_matches_reference(database, max_values_per_column=max_values)
        finally:
            database.close()

    @pytest.mark.slow
    def test_generated_database_matches_the_per_value_build(self):
        """5 000 rows of five columns, a fifth of the cells NULL: about
        20 000 values with every cell kind, repeats across columns, and
        two columns past ``max_values_per_column``."""
        rng = random.Random(44)

        def name() -> str:
            text = " ".join(
                "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 2))
            )
            text = rng.choice((str.lower, str.title, str.upper))(text)
            return f" {text}" if rng.random() < 0.05 else text

        def cells(make) -> list[object]:
            return [None if rng.random() < 0.2 else make() for _ in range(5_000)]

        def anything() -> object:
            return rng.choice((
                name, lambda: rng.randint(0, 500), lambda: rng.randint(0, 50) / 2,
                lambda: str(rng.randint(0, 500)), lambda: "",
            ))()

        names = [name() for _ in range(1_500)]
        database = untyped_database([
            (ColumnType.TEXT, cells(name)),
            (ColumnType.TEXT, cells(lambda: rng.choice(names))),
            (ColumnType.NUMBER, cells(lambda: rng.randint(0, 3_000))),
            (ColumnType.OTHERS, cells(anything)),
            (ColumnType.TIME, cells(lambda: rng.choice(names).upper())),
        ])
        try:
            assert_build_matches_reference(database, max_values_per_column=3_800)
        finally:
            database.close()

    def test_wide_gram_keys_match_the_stated_conditions(self):
        """1 700 distinct CJK characters make a q = 3 gram key wider than
        32 bits: the postings are built by the stable argsort, fit
        together, and filter exactly as the stated conditions say."""
        rng = random.Random(3)
        alphabet = [chr(0x4E00 + i) for i in range(1_700)]
        values = ["".join(alphabet[i:i + 4]) for i in range(0, len(alphabet), 4)]
        values += [
            "".join(rng.choice(alphabet[:40]) for _ in range(rng.randint(1, 12)))
            for _ in range(200)
        ]
        pool = BlockedValuePool(values)
        assert pool._key_dtype == np.uint64
        for postings in (pool._grams, pool._chars):
            assert postings.keys.dtype == np.uint64
            postings.check(pool._key_dtype, len(pool))
        expected = reference_pool(values)
        for got, want in zip((*pool._grams, *pool._chars), (*expected._grams, *expected._chars)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        queries = [value[1:] + value[0] for value in values[::40]]
        queries += [value[:-1] + "\u3042" for value in values[5::40]]
        for query in queries:
            for k in (0, 1, 2, 4):
                assert pool.candidate_indices(query, max_distance=k).tolist() == (
                    reference_candidates(values, query, k)
                )


#: text cells beyond ASCII: two-byte (é, ß), three-byte (İ lower-cases
#: to two characters, Σ to σ or a final ς) and astral characters (𐐀
#: lower-cases to 𐐨), with case clashes, padding, tabs and NULs (the
#: character the spelling fold splits at)
_UNICODE_TEXT = st.text(alphabet="aAéÉßİΣσ𐐀𐐨😀 \t\0", max_size=5)
_UNICODE_CELL = st.one_of(
    st.none(),
    _UNICODE_TEXT,
    st.integers(-3, 12),
    st.integers(-3, 12).map(float),
    st.sampled_from([0.5, 1e16, "7", "7.0", " 7 "]),
)


def assert_probes_match_reference(index: InvertedIndex, reference, probes) -> None:
    """Every probe — present or absent — answers what the per-value build
    holds for its normalized key, through each query and ``find``."""
    for probe in probes:
        key = normalize_value(probe)
        locations = reference.locations.get(key, frozenset())
        spellings = reference.originals.get(key, ())
        assert index.lookup(probe) == locations
        assert index.contains(probe) == bool(locations)
        assert index.original_forms(probe) == spellings
        assert index.find(probe) == ((locations, spellings) if locations else None)


def assert_spellings_match_reference(index: InvertedIndex, reference) -> None:
    """The spelling blob holds each key's spellings contiguously, in the
    per-value build's order, and hands them out decoded: one at a time,
    folded in one piece (as ``str.lower`` folds each) and per column."""
    state = index.state_dict()
    ranges = state["spelling_offsets"].tolist()
    spellings = packed_spellings(state)
    assert [tuple(spellings[a:b]) for a, b in zip(ranges, ranges[1:])] == [
        reference.originals[key] for key in packed_keys(state)
    ]
    assert [index.spelling(i) for i in range(len(spellings))] == spellings
    ids = np.arange(len(spellings), dtype=np.uint32)[::-1]
    assert index.folded_spellings(ids) == [spellings[i].lower() for i in ids]
    assert list(index.iter_text_values()) == list(reference.iter_text_values())


class TestPackedTable:
    @given(
        st.lists(
            st.tuples(st.sampled_from(list(ColumnType)), st.lists(_UNICODE_CELL, max_size=20)),
            min_size=1, max_size=4,
        ),
        st.lists(st.one_of(_UNICODE_TEXT, st.integers(-5, 20)), max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    @example(
        columns=[
            (ColumnType.TEXT, ["İstanbul", "i̇stanbul", "ΟΔΟΣ", "οδος", " Ünï ", "𐐀x"]),
            (ColumnType.OTHERS, ["𐐨X", 3.0, "3", 1e16, "ÜNÏ", "😀"]),
        ],
        absent=["istanbul", "οδοσ", "𐐀y", "😀😀", 4, "ü"],
    )
    @example(
        columns=[
            (ColumnType.TEXT, ["ΑΣ", "Σα", "ΑΣ\0Σ", "\0", " aΣ ", "aσ", "AΣ"]),
            (ColumnType.TIME, ["ΑΣ\0", "ας", "😀Σ", "İ\0İ"]),
        ],
        absent=["ασ", "α", "\0\0"],
    )
    def test_unicode_cells_and_absent_keys_match_the_per_value_build(
        self, columns, absent
    ):
        """Keys with multi-byte and astral characters, case clashes that
        lower-case to one key with several spellings, padding, NULs and
        integral floats: the packed table, and its round trip through
        :meth:`InvertedIndex.state_dict`, answer as the per-value build
        does for every cell and for keys it does not hold, and hold the
        same spellings in the same order."""
        database = untyped_database(columns)
        try:
            assert_build_matches_reference(database)
            index = InvertedIndex.build(database)
            reference = reference_build(database)
            cells = [cell for _, column in columns for cell in column if cell is not None]
            for built in (index, InvertedIndex.from_state(index.state_dict())):
                assert_probes_match_reference(built, reference, cells + absent)
                assert_spellings_match_reference(built, reference)
        finally:
            database.close()

    def test_many_keys_in_one_bucket(self):
        """Sixteen of 64 keys share their low six hash bits, so they fill
        one of the 64 buckets: each is still found with its own column,
        and absent keys hashing into that bucket miss."""
        by_bucket: dict[int, list[str]] = {}
        for i in range(100_000):
            text = f"key {i}"
            by_bucket.setdefault(zlib.crc32(text.encode()) & 63, []).append(text)
        bucket, crowded = max(by_bucket.items(), key=lambda item: len(item[1]))
        assert len(crowded) >= 16 + 8
        keys, strangers = crowded[:16], crowded[16:24]
        keys += [text for b, texts in sorted(by_bucket.items()) if b != bucket for text in texts][:48]
        index = index_cells([(key.title(), i % 3) for i, key in enumerate(keys)])
        starts = index.state_dict()["bucket_starts"]
        assert starts.size == 64 + 1
        assert starts[bucket + 1] - starts[bucket] >= 16
        for i, key in enumerate(keys):
            assert index.lookup(key) == {ValueLocation("t", f"c{i % 3}")}
            assert index.original_forms(key) == (key.title(),)
        for stranger in strangers:
            assert not index.contains(stranger)
            assert index.find(stranger) is None

    def test_folding_spans_gather_steps(self):
        """Folding more spellings than one gather step takes, in an order
        unlike the blob's, with final sigmas and NULs on either side of
        each step's end, gives what lower-casing each one does."""
        words = [
            f"{'ΟΔΟΣ' if i % 3 else 'ΑΣ'}\0{i}" if i % 7 == 0 else f"Ab Σ{i}Σ"
            for i in range(9_000)
        ]
        index = index_cells([(word, i % 2) for i, word in enumerate(words)], columns=2)
        assert index.num_spellings == len(words)
        ids = np.random.default_rng(5).permutation(len(words)).astype(np.uint32)
        assert index.folded_spellings(ids) == [index.spelling(i).lower() for i in ids]
        assert index.folded_spellings(ids[:0]) == []

    def test_a_lone_surrogate_probe_misses(self):
        """A question may carry a lone surrogate (JSON allows ``\\ud800``);
        probing with one misses instead of raising."""
        index = index_cells([("Paris", 0)])
        assert index.lookup("\ud800") == frozenset()
        assert not index.contains("pa\udc80ris")
        assert index.find("\ud800") is None


_SNAPSHOT_BYTES = """
import pickle, sys
from repro.db import Database
from repro.index import InvertedIndex, SimilaritySearcher
index = InvertedIndex.build(Database.open(sys.argv[1]))
print(pickle.dumps(index.state_dict()).hex())
print(pickle.dumps(SimilaritySearcher(index).state_dict()).hex())
"""


def test_snapshots_do_not_depend_on_the_hash_seed(pets_file):
    """One database gives byte-equal index and searcher snapshots under
    two string-hash seeds: nothing in them follows set iteration order."""
    dumps = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", _SNAPSHOT_BYTES, pets_file.path],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        dumps.append(done.stdout)
    assert dumps[0] == dumps[1]


# ------------------------------------------------------------ persistence


class TestPersistence:
    def test_round_trip_equality(self, pets_db, tmp_path):
        index = InvertedIndex.build(pets_db)
        searcher = SimilaritySearcher(index)
        path = tmp_path / "pets.index"
        save_bundle(path, fingerprint="fp", index=index, searcher=searcher)
        loaded = load_bundle(path, fingerprint="fp")
        assert loaded is not None
        loaded_index, loaded_searcher = loaded
        assert loaded_index.lookup("France") == index.lookup("France")
        assert loaded_index.num_distinct_values == index.num_distinct_values
        assert sorted(map(str, loaded_index.text_locations())) == sorted(
            map(str, index.text_locations())
        )
        for query in ("frnace", "dog", "itly", "ann miller"):
            assert loaded_searcher.search(query) == searcher.search(query)

    def test_fingerprint_mismatch_returns_none(self, pets_db, tmp_path):
        index = InvertedIndex.build(pets_db)
        path = tmp_path / "pets.index"
        save_bundle(
            path, fingerprint="fp", index=index, searcher=SimilaritySearcher(index)
        )
        assert load_bundle(path, fingerprint="other") is None

    def test_format_version_mismatch_returns_none(self, pets_db, tmp_path):
        index = InvertedIndex.build(pets_db)
        path = tmp_path / "pets.index"
        save_bundle(
            path, fingerprint="fp", index=index, searcher=SimilaritySearcher(index)
        )
        payload = pickle.loads(path.read_bytes())
        assert payload["format_version"] == FORMAT_VERSION
        payload["format_version"] = FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        assert load_bundle(path, fingerprint="fp") is None

    def test_v1_bundle_returns_none(self, pets_db, tmp_path):
        """A bundle from before the columnar pool (format 1: string list,
        dict-of-array postings) is rebuilt, whatever version it claims."""
        index = InvertedIndex.build(pets_db)
        path = tmp_path / "pets.index"
        save_bundle(
            path, fingerprint="fp", index=index, searcher=SimilaritySearcher(index)
        )
        payload = pickle.loads(path.read_bytes())
        payload["searcher"]["pool"] = {
            "q": 3,
            "values": ["france"],
            "lengths": array("I", [6]),
            "by_length": {6: array("I", [0])},
            "postings": {"fra": array("I", [0, 1])},
            "char_postings": {"f": array("I", [0, 1])},
        }
        for version in (1, FORMAT_VERSION):
            payload["format_version"] = version
            path.write_bytes(pickle.dumps(payload))
            assert load_bundle(path, fingerprint="fp") is None

    @pytest.mark.parametrize("damage", [
        "ptr_past_postings", "ptr_not_monotone", "idx_wrong_dtype",
        "idx_outside_pool", "keys_wrong_dtype", "lengths_disagree",
        "fanout_disagrees", "char_id_outside_alphabet", "char_ids_wrong_dtype",
        "key_offsets_past_blob", "key_offsets_not_increasing", "key_hash_outside_bucket",
        "bucket_count_not_power_of_two", "locset_id_outside_table",
        "locset_ids_wrong_dtype", "spelling_offsets_past_list", "spellings_not_bytes",
        "spellings_not_utf8", "spelling_bytes_past_blob", "spelling_bytes_not_increasing",
        "spelling_bytes_inside_utf8_sequence",
        "text_value_outside_spellings", "text_offsets_past_values",
        "fanout_spelling_outside_list", "fanout_location_outside_table",
        "fanout_offsets_not_increasing",
    ])
    def test_inconsistent_arrays_return_none(self, pets_db, tmp_path, damage):
        """A bundle that unpickles but whose arrays do not fit together is
        rejected at load time instead of raising inside a later query."""
        index = InvertedIndex.build(pets_db)
        path = tmp_path / "pets.index"
        save_bundle(
            path, fingerprint="fp", index=index, searcher=SimilaritySearcher(index)
        )
        payload = pickle.loads(path.read_bytes())
        table, searcher = payload["index"], payload["searcher"]
        pool = searcher["pool"]
        keys, ptr, idx, mult = (a.copy() for a in pool["grams"])
        if damage == "ptr_past_postings":
            ptr[-1] += 1
        elif damage == "ptr_not_monotone":
            ptr[1], ptr[2] = ptr[2], ptr[1]
        elif damage == "idx_wrong_dtype":
            idx = idx.astype(np.int64)
        elif damage == "idx_outside_pool":
            idx[0] = pool["lengths"].size
        elif damage == "keys_wrong_dtype":
            keys = keys.astype(np.uint64)
        elif damage == "lengths_disagree":
            pool["lengths"] = pool["lengths"] + 1
        elif damage == "fanout_disagrees":
            payload["searcher"]["offsets"] = payload["searcher"]["offsets"][:-1]
        elif damage == "char_id_outside_alphabet":
            pool["codes"] = pool["codes"].copy()
            pool["codes"][0] = pool["alphabet"].size  # the id of an unseen character
        elif damage == "char_ids_wrong_dtype":
            pool["codes"] = pool["codes"].astype(np.uint32)
        elif damage == "key_offsets_past_blob":
            table["keys"] = table["keys"][:-1]
        elif damage == "key_offsets_not_increasing":
            table["key_offsets"][1] = 0  # an empty first key
        elif damage == "key_hash_outside_bucket":
            table["hashes"][0] += 1
        elif damage == "bucket_count_not_power_of_two":
            table["bucket_starts"] = np.append(table["bucket_starts"], table["bucket_starts"][-1])
        elif damage == "locset_id_outside_table":
            table["locset_ids"][0] = len(table["locset_table"])
        elif damage == "locset_ids_wrong_dtype":
            table["locset_ids"] = table["locset_ids"].astype(np.uint32)
        elif damage == "spelling_offsets_past_list":
            table["spelling_offsets"][-1] += 1  # the last key's range
        elif damage == "spellings_not_bytes":
            table["spellings"] = bytearray(table["spellings"])
        elif damage == "spellings_not_utf8":
            table["spellings"] = b"\xff" + table["spellings"][1:]
        elif damage == "spelling_bytes_past_blob":
            table["spellings"] = table["spellings"][:-1]
        elif damage == "spelling_bytes_not_increasing":
            table["spelling_bytes"][1] = 0  # an empty first spelling
        elif damage == "spelling_bytes_inside_utf8_sequence":
            # the blob stays UTF-8, but "é" now spans the second
            # spelling's start, which falls on its continuation byte
            start, blob = int(table["spelling_bytes"][1]), table["spellings"]
            assert blob.isascii()
            table["spellings"] = blob[:start - 1] + "é".encode() + blob[start + 1:]
        elif damage == "text_value_outside_spellings":
            table["text_values"][0] = table["spelling_bytes"].size - 1
        elif damage == "text_offsets_past_values":
            table["text_values"] = table["text_values"][:-1]
        elif damage == "fanout_spelling_outside_list":
            searcher["spelling_ids"][0] = table["spelling_bytes"].size - 1
        elif damage == "fanout_location_outside_table":
            searcher["location_ids"][0] = len(searcher["loc_table"])
        elif damage == "fanout_offsets_not_increasing":
            searcher["offsets"][1] = 0
        pool["grams"] = (keys, ptr, idx, mult)
        path.write_bytes(pickle.dumps(payload))
        assert load_bundle(path, fingerprint="fp") is None

    def test_corrupt_file_returns_none(self, tmp_path):
        path = tmp_path / "junk.index"
        path.write_bytes(b"not a pickle")
        assert load_bundle(path, fingerprint="fp") is None

    def test_missing_file_returns_none(self, tmp_path):
        assert load_bundle(tmp_path / "absent.index", fingerprint="fp") is None


# --------------------------------------------------------------- registry


@pytest.fixture
def pets_file(pets_db, pets_schema, tmp_path):
    """The conftest pets database copied to a file (a registry keys files)."""
    path = tmp_path / "pets.sqlite"
    target = sqlite3.connect(path)
    pets_db.connection.backup(target)
    target.close()
    database = Database.open(path, pets_schema)
    yield database
    database.close()


@pytest.fixture
def spider_files(spider_corpus, tmp_path):
    """The first four corpus databases, each written to its own file."""
    databases = {
        domain: spider_corpus.domains[domain].build_database(
            str(tmp_path / f"{domain}.sqlite")
        )
        for domain in sorted(spider_corpus.domains)[:4]
    }
    yield databases
    for database in databases.values():
        database.close()


def _students_file(path, name: str, country: str) -> str:
    """Student 1 is ``name`` from ``country``; student 2, from Peru, makes
    an answer that lost the country filter wrong."""
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(path)
    conn.execute(
        "CREATE TABLE student (stuid INTEGER PRIMARY KEY, name TEXT, "
        "home_country TEXT)"
    )
    conn.executemany(
        "INSERT INTO student VALUES (?, ?, ?)",
        [(1, name, country), (2, "Cid", "Peru")],
    )
    conn.commit()
    conn.close()
    return str(path)


def _stack(databases, **spec) -> ServingStack:
    """A one-thread serving stack hosting every ``(db_id, path)`` pair."""
    return ServingStack(WorkerSpec(
        worker_id=0,
        databases=tuple(databases),
        shard=tuple(db_id for db_id, _ in databases),
        threads=1,
        **spec,
    ))


def _from(stack, db_id: str, country: str):
    response = stack.service.translate(
        f"Which students are from {country}?", db_id, execute=True
    )
    return [tuple(row) for row in response.rows or ()]


class TestRegistry:
    def test_preprocessors_share_one_index(self, pets_file):
        registry = IndexRegistry()
        first = Preprocessor(pets_file, registry=registry)
        second = Preprocessor(pets_file, registry=registry)
        assert first.index is second.index
        assert first.searcher is second.searcher
        assert registry.build_count == 1
        assert registry.hit_count >= 1

    def test_in_memory_database_is_refused(self, pets_db):
        with pytest.raises(ValueError):
            IndexRegistry().get(pets_db)
        # Without a registry a preprocessor scans into a private bundle.
        assert Preprocessor(pets_db).index is not Preprocessor(pets_db).index

    def test_fingerprint_change_triggers_rebuild(self, pets_file):
        registry = IndexRegistry()
        first = Preprocessor(pets_file, registry=registry)
        pets_file.insert_rows("student", [(99, "Zed Quirk", 30, "Xanadu", "M")])
        second = Preprocessor(pets_file, registry=registry)
        assert second.index is not first.index
        assert registry.build_count == 2
        assert second.index.contains("Xanadu")

    def test_fingerprint_is_content_sensitive(self, pets_file):
        """A count- and size-preserving UPDATE is a new file state."""
        registry = IndexRegistry()
        before = registry.get(pets_file)
        with pets_file.connection as conn:
            conn.execute("UPDATE student SET home_country='Gabon' WHERE stuid=1")
        after = registry.get(pets_file)
        assert after is not before and after.state != before.state
        assert after.index.contains("Gabon") and not before.index.contains("Gabon")

    def test_is_current_until_a_commit(self, pets_file):
        """``is_current`` is the check ``get`` and the KB refresher share:
        a bundle stays current under reads and goes stale on a commit."""
        registry = IndexRegistry()
        entry = registry.get(pets_file)
        pets_file.execute("SELECT * FROM student")
        assert registry.is_current(entry)
        with pets_file.connection as conn:
            conn.execute("UPDATE student SET age=age+1 WHERE stuid=1")
        assert not registry.is_current(entry)
        assert registry.is_current(registry.get(pets_file))

    def test_serving_builds_exactly_one_index_per_database(self, pets_file):
        """Acceptance: the runtime, its pipeline, and its fallback share
        one InvertedIndex; a second runtime over the same file shares it
        too."""
        registry = IndexRegistry()
        runtime = DatabaseRuntime(
            pets_file, database_id="pets",
            preprocessor=Preprocessor(pets_file, registry=registry),
        )
        assert registry.build_count == 1
        assert runtime.fallback.preprocessor is runtime.preprocessor
        service = TranslationService([runtime], workers=1)
        with service:
            response = service.translate("How many students are from France?")
        assert response.sql is not None
        assert registry.build_count == 1

        second = DatabaseRuntime(
            pets_file, database_id="pets_replica",
            preprocessor=Preprocessor(pets_file, registry=registry),
        )
        assert second.preprocessor.index is runtime.preprocessor.index
        assert registry.build_count == 1

    def test_routing_ids_over_one_file_share_one_bundle(self, tmp_path):
        path = _students_file(tmp_path / "shop.sqlite", "Ann", "Zambia")
        stack = _stack([("front", path), ("back", path)])
        try:
            runtimes = stack.service.runtimes
            assert runtimes["front"].preprocessor.index is (
                runtimes["back"].preprocessor.index
            )
            stats = stack.registry.stats()
            assert (stats["entries"], stats["build_count"]) == (1, 1)
            assert _from(stack, "back", "Zambia") == [("Ann",)]
        finally:
            stack.close(timeout=10.0)

    def test_same_stem_files_answer_from_their_own_values(self, tmp_path):
        stack = _stack([
            ("storeA", _students_file(tmp_path / "a" / "shop.sqlite",
                                      "Ann", "Zambia")),
            ("storeB", _students_file(tmp_path / "b" / "shop.sqlite",
                                      "Bob", "Tuvalu")),
        ])
        try:
            assert _from(stack, "storeA", "Zambia") == [("Ann",)]
            assert _from(stack, "storeB", "Tuvalu") == [("Bob",)]
            stats = stack.registry.stats()
            assert (stats["entries"], stats["build_count"]) == (2, 2)
        finally:
            stack.close(timeout=10.0)

    def test_restart_after_offline_update_sees_new_value(self, tmp_path):
        path = _students_file(tmp_path / "shop.sqlite", "Ann", "Zambia")
        cache = tmp_path / "index-cache"
        _stack([("shop", path)], index_cache=str(cache)).close(timeout=10.0)
        # While no server runs: same row count, same value length.
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE student SET home_country='Tuvalu' WHERE stuid=1")
        conn.close()
        stack = _stack([("shop", path)], index_cache=str(cache))
        try:
            assert _from(stack, "shop", "Tuvalu") == [("Ann",)]
            assert stack.registry.stats()["load_count"] == 0
        finally:
            stack.close(timeout=10.0)

    def test_restart_after_live_refresh_sees_refreshed_value(self, tmp_path):
        path = _students_file(tmp_path / "shop.sqlite", "Ann", "Zambia")
        cache = tmp_path / "index-cache"
        stack = _stack(
            [("shop", path)], index_cache=str(cache), kb_refresh_interval_s=3600.0
        )
        try:
            with sqlite3.connect(path) as conn:
                conn.execute(
                    "UPDATE student SET home_country='Tuvalu' WHERE stuid=1"
                )
            conn.close()
            assert len(stack.refresher.refresh_now(force=False)) == 1
            assert _from(stack, "shop", "Tuvalu") == [("Ann",)]
        finally:
            stack.close(timeout=10.0)
        stack = _stack([("shop", path)], index_cache=str(cache))
        try:
            # The refresher saved what it swapped in: nothing to rebuild.
            stats = stack.registry.stats()
            assert (stats["load_count"], stats["build_count"]) == (1, 0)
            assert _from(stack, "shop", "Tuvalu") == [("Ann",)]
        finally:
            stack.close(timeout=10.0)

    def test_registry_disk_cache_roundtrip(self, pets_file, tmp_path):
        cold = IndexRegistry(cache_dir=tmp_path / "cache")
        entry = cold.get(pets_file)
        assert entry.source == "built"
        assert cold.build_count == 1

        warm = IndexRegistry(cache_dir=tmp_path / "cache")
        warm_entry = warm.get(pets_file)
        assert warm_entry.source == "disk"
        assert warm.build_count == 0 and warm.load_count == 1
        assert warm_entry.index.lookup("France") == entry.index.lookup("France")
        assert warm_entry.searcher.search("frnace") == entry.searcher.search("frnace")

    def test_stale_disk_cache_rebuilds(self, pets_file, tmp_path):
        cold = IndexRegistry(cache_dir=tmp_path / "cache")
        cold.get(pets_file)
        pets_file.insert_rows("student", [(97, "Ada Byron", 36, "England", "F")])
        warm = IndexRegistry(cache_dir=tmp_path / "cache")
        entry = warm.get(pets_file)
        assert entry.source == "built"  # the file changed since the save
        assert entry.index.contains("England")

    def test_warm_builds_each_database_once(self, spider_files):
        """Startup's loop: one get per database builds each once."""
        registry = IndexRegistry()
        entries = [registry.get(database) for database in spider_files.values()]
        assert registry.build_count == 4
        assert len({entry.path for entry in entries}) == 4
        # again: every entry is shared, nothing rebuilds
        again = [registry.get(database) for database in spider_files.values()]
        assert registry.build_count == 4
        assert all(a is b for a, b in zip(entries, again))

    def test_warm_start_from_disk_rederives_nothing(
        self, spider_files, tmp_path, monkeypatch
    ):
        """The retired bench's "warm start >= 10x faster than cold", as
        structure instead of a ratio: a start from the disk cache scans no
        column and builds no pool, and answers exactly what the cold start
        answers."""
        calls: Counter = Counter()

        def count_calls(owner, name):
            original = getattr(owner, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)

        count_calls(Database, "column_values")
        count_calls(BlockedValuePool, "_build")  # behind both constructors
        databases = list(spider_files.values())[:2]
        cache = tmp_path / "cache"
        cold = [IndexRegistry(cache_dir=cache).get(db) for db in databases]
        assert [entry.source for entry in cold] == ["built", "built"]
        assert calls["column_values"] > 0 and calls["_build"] == 2

        calls.clear()
        warm = [IndexRegistry(cache_dir=cache).get(db) for db in databases]
        assert [entry.source for entry in warm] == ["disk", "disk"]
        assert not calls
        for cold_entry, warm_entry in zip(cold, warm):
            values = [value for value, _ in cold_entry.index.iter_text_values()]
            for query in typo_queries(values[:: max(1, len(values) // 10)]):
                assert warm_entry.searcher.search(query) == cold_entry.searcher.search(query)


# ------------------------------------------------------ serving /healthz


class TestServingValueSearchHealth:
    @staticmethod
    def _value_search(server) -> dict:
        with urllib.request.urlopen(server.url + "/healthz", timeout=30) as reply:
            return json.loads(reply.read())["value_search"]

    def test_healthz_reports_the_current_searchers_stats(self, pets_db):
        runtime = DatabaseRuntime(pets_db, database_id="pets")
        service = TranslationService([runtime], workers=1).start()
        server = ServingServer(("127.0.0.1", 0), service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            service.translate("How many students are from France?")
            service.translate("students from Frnace")
            stats = self._value_search(server)["pets"]
            assert stats == runtime.preprocessor.searcher.stats.as_dict()
            assert stats["searches"] > 0
            assert stats["cache_hits"] + stats["cache_misses"] == stats["searches"]

            index = runtime.preprocessor.index
            fresh = SimpleNamespace(index=index, searcher=SimilaritySearcher(index))
            assert service.on_index_swap("pets", fresh)
            assert self._value_search(server)["pets"] == SearchStats().as_dict()
            service.translate("students from Italy")
            assert self._value_search(server)["pets"]["searches"] > 0
            assert self._value_search(server)["pets"] == fresh.searcher.stats.as_dict()
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
