"""Similarity search over indexed database values.

Implements the paper's first candidate-generation method (Section IV-B2):
scan the database for values whose Damerau-Levenshtein distance to a query
span is below a threshold.  The paper's Table II reports this value
lookup as the largest stage of translation time, so the scan is
aggressively sub-linear:

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
held in flat parallel ``uint32`` arrays indexed by pool position: ids into
the index's packed spelling table (:mod:`repro.index.inverted`), decoded
only for the matches a scan hands out, and into a location table.  They
are derived from the index's column value ids by one array group-by over
their spellings, case-folded in one decode, and adopted by a warm load
(:meth:`SimilaritySearcher.from_state`) without any per-value rebuild.

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

import numpy as np

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

        Fan-out state per pool index ``i``: the ``(spelling, location)``
        pairs at flat positions ``offsets[i]:offsets[i+1]`` of
        ``_spelling_ids`` (the index's spelling ids) and
        ``_location_ids``, in the order
        :meth:`InvertedIndex.iter_text_values` yields them.  Built as an
        array group-by over the index's column value ids: their
        spellings are case-folded in one decode
        (:meth:`InvertedIndex.folded_spellings`), the folded strings are
        numbered in first-met order (the pool index), and one stable sort
        by pool index groups the values.
        """
        locations, column_offsets, ids = index.text_value_ids()
        sizes = column_offsets[1:].astype(np.intp) - column_offsets[:-1]
        filled = sizes > 0
        loc_table = [loc for loc, kept in zip(locations, filled.tolist()) if kept]
        location_ids = np.repeat(
            np.arange(len(loc_table), dtype=np.uint32), sizes[filled]
        )
        folded = index.folded_spellings(ids)
        position = dict.fromkeys(folded)  # first-met order == pool index
        for i, key in enumerate(position):
            position[key] = i
        group = np.fromiter(
            map(position.__getitem__, folded), dtype=np.uint32, count=ids.size
        )
        del folded
        order = np.argsort(group, kind="stable")
        offsets = np.zeros(len(position) + 1, dtype=np.uint32)
        np.cumsum(np.bincount(group, minlength=len(position)), out=offsets[1:])
        del group
        self._loc_table = loc_table
        self._spelling = index.spelling
        self._offsets = array("I", offsets.tobytes())
        self._spelling_ids = array("I", ids[order].tobytes())
        self._location_ids = array("I", location_ids[order].tobytes())
        del order, location_ids
        # last, with the fan-out's temporaries gone; the pool empties
        # ``pooled`` once joined, freeing the case-folded strings
        pooled = list(position)
        del position
        self._pool = BlockedValuePool.from_folded(pooled)

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
        loc_table, spelling = self._loc_table, self._spelling
        offsets, spelling_ids = self._offsets, self._spelling_ids
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
                    spelling(spelling_ids[j]), loc_table[location_ids[j]], distance
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
        refactors of :class:`ValueLocation` itself; spellings are ids
        into the index's table, which the index's own snapshot carries."""
        return {
            "loc_table": [(loc.table, loc.column) for loc in self._loc_table],
            "offsets": self._offsets,
            "spelling_ids": self._spelling_ids,
            "location_ids": self._location_ids,
            "pool": self._pool.state_dict(),
        }

    @classmethod
    def from_state(  # lint: disable=LOCK-GUARD (fresh instance; not shared until returned)
        cls, state: dict, index: InvertedIndex, *, cache_size: int = 2048
    ) -> "SimilaritySearcher":
        """Rebuild a searcher from :meth:`state_dict` over ``index``, the
        index it was built from, whose spelling table it reads.  Raises
        ``ValueError`` when the fan-out does not fit the pool, its
        location table or that spelling table."""
        searcher = cls.__new__(cls)
        searcher._cache_size = cache_size
        searcher._cache = OrderedDict()
        searcher._lock = make_lock("SimilaritySearcher._lock")
        searcher.stats = SearchStats()
        searcher._loc_table = [
            ValueLocation(table, column) for table, column in state["loc_table"]
        ]
        searcher._spelling = index.spelling
        searcher._offsets = array("I", state["offsets"])
        searcher._spelling_ids = array("I", state["spelling_ids"])
        searcher._location_ids = array("I", state["location_ids"])
        searcher._pool = BlockedValuePool.from_state(state["pool"])
        offsets = np.frombuffer(searcher._offsets, dtype=np.uint32).astype(np.int64)
        spelling_ids = np.frombuffer(searcher._spelling_ids, dtype=np.uint32)
        location_ids = np.frombuffer(searcher._location_ids, dtype=np.uint32)
        if (
            offsets.size != len(searcher._pool) + 1
            or offsets[0] != 0
            or np.any(np.diff(offsets) <= 0)
            or offsets[-1] != spelling_ids.size
            or location_ids.size != spelling_ids.size
        ):
            raise ValueError("pool and fan-out arrays disagree on the value count")
        if spelling_ids.size and (
            spelling_ids.max() >= index.num_spellings
            or location_ids.max() >= len(searcher._loc_table)
        ):
            raise ValueError("fan-out refers to a spelling or location it lacks")
        return searcher
