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

import json
import pickle
import random
import threading
import urllib.request
from array import array
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.index import (
    BlockedValuePool,
    IndexRegistry,
    InvertedIndex,
    SearchStats,
    SimilaritySearcher,
    ValueLocation,
    database_fingerprint,
    get_default_registry,
    load_bundle,
    save_bundle,
    set_default_registry,
)
from repro.index.persistence import FORMAT_VERSION
from repro.preprocessing import Preprocessor
from repro.schema import Column, ColumnType, Schema, Table
from repro.serving import DatabaseRuntime, ServingServer, TranslationService
from repro.spider import CorpusConfig, generate_corpus
from repro.text.distance import damerau_levenshtein, damerau_levenshtein_banded
from repro.text.ngrams import padded_qgrams


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
        assert index.values_in_column(ValueLocation("t", "c0")) == ["Paris"]
        assert index.lookup("PARIS") == {ValueLocation("t", "c0")}
        assert len(index.values_in_column(ValueLocation("t", "c1"))) == 5
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
        "fanout_disagrees",
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
        pool = payload["searcher"]["pool"]
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
def fresh_registry():
    registry = IndexRegistry()
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)


class TestRegistry:
    def test_preprocessors_share_one_index(self, pets_db, fresh_registry):
        first = Preprocessor(pets_db)
        second = Preprocessor(pets_db)
        assert first.index is second.index
        assert first.searcher is second.searcher
        assert fresh_registry.build_count == 1
        assert fresh_registry.hit_count >= 1

    def test_fingerprint_change_triggers_rebuild(self, pets_db, fresh_registry):
        first = Preprocessor(pets_db)
        pets_db.insert_rows("student", [(99, "Zed Quirk", 30, "Xanadu", "M")])
        second = Preprocessor(pets_db)
        assert second.index is not first.index
        assert fresh_registry.build_count == 2
        assert second.index.contains("Xanadu")

    def test_fingerprint_is_content_sensitive(self, pets_db):
        before = database_fingerprint(pets_db)
        pets_db.insert_rows("student", [(98, "New Person", 20, "France", "M")])
        assert database_fingerprint(pets_db) != before

    def test_serving_builds_exactly_one_index_per_database(
        self, pets_db, fresh_registry
    ):
        """Acceptance: the runtime, its pipeline, and its fallback share
        one InvertedIndex; a second runtime over the same content shares
        it too."""
        runtime = DatabaseRuntime(pets_db, database_id="pets")
        assert fresh_registry.build_count == 1
        assert runtime.fallback.preprocessor is runtime.preprocessor
        service = TranslationService([runtime], workers=1)
        with service:
            response = service.translate("How many students are from France?")
        assert response.sql is not None
        assert fresh_registry.build_count == 1

        second = DatabaseRuntime(pets_db, database_id="pets_replica")
        assert second.preprocessor.index is runtime.preprocessor.index
        assert fresh_registry.build_count == 1

    def test_registry_disk_cache_roundtrip(self, pets_db, tmp_path):
        cold = IndexRegistry(cache_dir=tmp_path)
        entry = cold.get(pets_db)
        assert entry.source == "built"
        assert cold.build_count == 1

        warm = IndexRegistry(cache_dir=tmp_path)
        warm_entry = warm.get(pets_db)
        assert warm_entry.source == "disk"
        assert warm.build_count == 0 and warm.load_count == 1
        assert warm_entry.index.lookup("France") == entry.index.lookup("France")
        assert warm_entry.searcher.search("frnace") == entry.searcher.search("frnace")

    def test_stale_disk_cache_rebuilds(self, pets_db, tmp_path):
        cold = IndexRegistry(cache_dir=tmp_path)
        cold.get(pets_db)
        pets_db.insert_rows("student", [(97, "Ada Byron", 36, "England", "F")])
        warm = IndexRegistry(cache_dir=tmp_path)
        entry = warm.get(pets_db)
        assert entry.source == "built"  # fingerprint mismatch on disk
        assert entry.index.contains("England")

    def test_warm_builds_each_database_once(self, spider_corpus):
        registry = IndexRegistry()
        databases = {
            domain: spider_corpus.database(domain)
            for domain in sorted(spider_corpus.domains)[:4]
        }
        entries = registry.warm(databases)
        assert [entry.database_id for entry in entries] == list(databases)
        assert registry.build_count == 4
        # warm again: every entry is shared, nothing rebuilds
        registry.warm(databases)
        assert registry.build_count == 4
        assert registry.warm(databases, only={entries[0].database_id}) == entries[:1]

    def test_warm_start_from_disk_rederives_nothing(
        self, spider_corpus, tmp_path, monkeypatch
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
        count_calls(BlockedValuePool, "__init__")
        databases = {
            domain: spider_corpus.database(domain)
            for domain in sorted(spider_corpus.domains)[:2]
        }
        cold = IndexRegistry(cache_dir=tmp_path).warm(databases)
        assert [entry.source for entry in cold] == ["built", "built"]
        assert calls["column_values"] > 0 and calls["__init__"] == 2

        calls.clear()
        warm = IndexRegistry(cache_dir=tmp_path).warm(databases)
        assert [entry.source for entry in warm] == ["disk", "disk"]
        assert not calls
        for cold_entry, warm_entry in zip(cold, warm):
            values = [value for value, _ in cold_entry.index.iter_text_values()]
            for query in typo_queries(values[:: max(1, len(values) // 10)]):
                assert warm_entry.searcher.search(query) == cold_entry.searcher.search(query)

    def test_default_registry_swap_restores(self):
        original = get_default_registry()
        replacement = IndexRegistry()
        assert set_default_registry(replacement) is original
        assert get_default_registry() is replacement
        set_default_registry(original)
        assert get_default_registry() is original


# ------------------------------------------------------ serving /healthz


class TestServingValueSearchHealth:
    @staticmethod
    def _value_search(server) -> dict:
        with urllib.request.urlopen(server.url + "/healthz", timeout=30) as reply:
            return json.loads(reply.read())["value_search"]

    def test_healthz_reports_the_current_searchers_stats(
        self, pets_db, fresh_registry
    ):
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
