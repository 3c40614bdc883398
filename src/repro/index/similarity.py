"""Similarity search over indexed database values.

Implements the paper's first candidate-generation method (Section IV-B2):
scan the database for values whose Damerau-Levenshtein distance to a query
span is below a threshold.  Table II shows this value lookup dominating
translation time, so the scan is aggressively sub-linear:

* one **global pool** of distinct (case-folded) strings — a value like
  "USA" that appears in twenty columns is scored once per query, and the
  result fans back out to every :class:`ValueLocation`;
* **q-gram blocking** (:mod:`repro.index.blocking`) rejects nearly every
  non-match without running the distance DP;
* the surviving candidates are verified **together**: one batched
  Ukkonen-banded O(k·n) Damerau-Levenshtein pass over all of them
  (:meth:`repro.index.blocking.BlockedValuePool.distances`), not one
  Python call per value;
* an **LRU memo** on the (query, distance-bound) pair absorbs the heavy
  repetition produced by n-gram span expansion within and across
  questions.

The fan-out data (original spellings and locations per pooled string) is
held in flat parallel arrays indexed by pool position — compact in
memory, and a warm load (:meth:`SimilaritySearcher.from_state`) adopts
the arrays without any per-value rebuild.

The pool is derived once, in the constructor, and never mutated (the
index it reads is immutable), so scans read it without a lock; the one
lock guards the span memo and the :class:`SearchStats` (DP calls, cache
traffic, wall time), which :meth:`SimilaritySearcher.stats_snapshot`
reads for ``/healthz`` and the benchmark.
"""

from __future__ import annotations

import time
from array import array
from collections import OrderedDict
from dataclasses import dataclass

from repro.concurrency import make_lock
from repro.index.blocking import BlockedValuePool
from repro.index.inverted import InvertedIndex, ValueLocation


@dataclass(frozen=True)
class SimilarValue:
    """One similar database value with its location and distance."""

    value: str
    location: ValueLocation
    distance: int

    @property
    def similarity(self) -> float:
        """Normalized similarity in (0, 1]."""
        longest = max(len(self.value), 1)
        return 1.0 - self.distance / max(longest, self.distance, 1)


@dataclass
class SearchStats:
    """Counters for one searcher (guarded by the searcher's lock)."""

    searches: int = 0
    dp_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    search_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "searches": self.searches,
            "dp_calls": self.dp_calls,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "search_seconds": self.search_seconds,
        }


class SimilaritySearcher:
    """Finds database values similar to a question span.

    One searcher is built per database (sharing the inverted index) and
    reused across questions and threads; construction builds the global
    blocked pool once.  The index is immutable, so the pool never goes
    stale: new content arrives as a new index and a new searcher.
    """

    def __init__(self, index: InvertedIndex, *, cache_size: int = 2048):
        self._cache_size = cache_size
        self._cache: OrderedDict[tuple[str, int], list[SimilarValue]] = OrderedDict()  # guarded by: _lock
        self._lock = make_lock("SimilaritySearcher._lock")
        self.stats = SearchStats()  # guarded by: _lock
        self._build_pool(index)

    # ------------------------------------------------------- pool building

    def _build_pool(self, index: InvertedIndex) -> None:
        """Derive the global dedup pool from the index (constructor only).

        Fan-out state per pool index ``i``: the ``(original, location)``
        pairs live at flat positions ``offsets[i]:offsets[i+1]`` of
        ``_originals`` / ``_location_ids``.
        """
        loc_table: list[ValueLocation] = []
        loc_ids: dict[ValueLocation, int] = {}
        position: dict[str, int] = {}
        per_value: list[list] = []  # [[original, lid, original, lid, ...]]
        for value, location in index.iter_text_values():
            lowered = value.lower()
            i = position.get(lowered)
            if i is None:
                i = len(per_value)
                position[lowered] = i
                per_value.append([])
            lid = loc_ids.get(location)
            if lid is None:
                lid = len(loc_table)
                loc_ids[location] = lid
                loc_table.append(location)
            per_value[i] += (value, lid)
        offsets = array("I", [0])
        originals: list[str] = []
        location_ids = array("I")
        for flat in per_value:
            originals.extend(flat[0::2])
            location_ids.extend(flat[1::2])
            offsets.append(len(originals))
        self._pool = BlockedValuePool(position)  # dict order == pool index
        self._loc_table = loc_table
        self._offsets = offsets
        self._originals = originals
        self._location_ids = location_ids

    # ------------------------------------------------------------- queries

    def search(
        self,
        query: str,
        *,
        max_distance: int = 2,
        max_results: int = 20,
    ) -> list[SimilarValue]:
        """All text values within ``max_distance`` of ``query``.

        Results are sorted by ascending distance, then value, and truncated
        to ``max_results`` (the paper observes that too many candidates
        hurt model accuracy, Section IV-B3).
        """
        start = time.perf_counter()
        lowered = query.lower()
        key = (lowered, max_distance)
        with self._lock:
            matches = self._cache.get(key)
            if matches is not None:
                self._cache.move_to_end(key)
                self.stats.cache_hits += 1
        if matches is None:
            matches, dp_calls = self._scan(lowered, max_distance)
            with self._lock:
                self.stats.cache_misses += 1
                self.stats.dp_calls += dp_calls
                self._cache[key] = matches
                self._cache.move_to_end(key)
                while len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
        elapsed = time.perf_counter() - start
        with self._lock:
            self.stats.searches += 1
            self.stats.search_seconds += elapsed
        return matches[:max_results]

    def _scan(
        self, lowered: str, max_distance: int
    ) -> tuple[list[SimilarValue], int]:
        """Filter the pool, verify every survivor in one batched pass, fan
        the matches out to their locations.

        Reads the pool structures without the lock: they are built once
        and never mutated.
        """
        pool = self._pool
        loc_table = self._loc_table
        offsets, originals = self._offsets, self._originals
        location_ids = self._location_ids
        candidates = pool.candidate_indices(lowered, max_distance=max_distance)
        distances = pool.distances(lowered, candidates, max_distance=max_distance)
        within = distances <= max_distance
        matches: list[SimilarValue] = []
        for i, distance in zip(
            candidates[within].tolist(), distances[within].tolist()
        ):
            for j in range(offsets[i], offsets[i + 1]):
                matches.append(SimilarValue(
                    originals[j], loc_table[location_ids[j]], distance
                ))
        matches.sort(key=lambda m: (m.distance, m.value.lower(), str(m.location)))
        return matches, len(candidates)

    def best_match(self, query: str, *, max_distance: int = 2) -> SimilarValue | None:
        """The single closest value, or ``None`` when nothing is in range."""
        results = self.search(query, max_distance=max_distance, max_results=1)
        return results[0] if results else None

    # ------------------------------------------------------ observability

    def stats_snapshot(self) -> dict:
        with self._lock:
            return self.stats.as_dict()

    # -------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Plain-structure snapshot (pool included, so a warm load skips
        the expensive q-gram derivation entirely).  Locations are
        flattened to ``(table, column)`` tuples so the payload survives
        refactors of :class:`ValueLocation` itself."""
        return {
            "loc_table": [(loc.table, loc.column) for loc in self._loc_table],
            "offsets": self._offsets,
            "originals": self._originals,
            "location_ids": self._location_ids,
            "pool": self._pool.state_dict(),
        }

    @classmethod
    def from_state(  # lint: disable=LOCK-GUARD (fresh instance; not shared until returned)
        cls, state: dict, *, cache_size: int = 2048
    ) -> "SimilaritySearcher":
        """Rebuild a searcher from :meth:`state_dict`."""
        searcher = cls.__new__(cls)
        searcher._cache_size = cache_size
        searcher._cache = OrderedDict()
        searcher._lock = make_lock("SimilaritySearcher._lock")
        searcher.stats = SearchStats()
        searcher._loc_table = [
            ValueLocation(table, column) for table, column in state["loc_table"]
        ]
        searcher._offsets = array("I", state["offsets"])
        searcher._originals = list(state["originals"])
        searcher._location_ids = array("I", state["location_ids"])
        searcher._pool = BlockedValuePool.from_state(state["pool"])
        if len(searcher._pool) != len(searcher._offsets) - 1:
            raise ValueError("pool and fan-out arrays disagree on the value count")
        return searcher
