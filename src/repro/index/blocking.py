"""Blocking and batched verification for the similarity scan over values.

Paper Section IV-B2: "By using smart indexes and computationally cheap
methods for blocking/indexing, this effort can be optimized."  A naive
similarity search computes an edit distance between the query span and
*every* value in the database; blocking first filters values by cheap
necessary conditions so only a small bucket needs the expensive distance.

Three filters are combined:

* **length band** — values whose length differs from the query's by more
  than the distance bound cannot match (each length unit costs one edit);
* **q-gram count filter** — a character-trigram inverted index over the
  pool.  Strings within Damerau-Levenshtein distance ``k`` must share at
  least ``max(|s|, |t|) - 1 - q·k`` padded q-grams (one edit operation
  destroys at most ``q`` grams, an adjacent transposition at most
  ``q + 1``; the ``-1`` slack absorbs the transposition surplus for all
  ``k <= q``).  Values failing the count filter are skipped without ever
  running the distance DP;
* **bag-of-characters filter** — for short strings the q-gram threshold
  is vacuous (``max(|s|, |t|) <= 1 + q·k`` admits zero shared grams), so
  short values fall back to the *bag distance* lower bound instead:
  ``max(|s|, |t|) - |multiset intersection of characters|`` never exceeds
  the Damerau-Levenshtein distance (a transposition leaves the bag
  unchanged; every other edit shifts the intersection by at most one).
  A unigram posting list over the short values applies the bound without
  scanning the pool.

Distance bounds above ``q`` (where the count threshold is no longer a
safe necessary condition) drop the q-gram filter and use the length band
plus the bag filter, so recall is guaranteed for every configuration.

The pool is **columnar**: the strings live as one flat array of
per-pool character ids (ids into the pool's sorted alphabet, in the
narrowest unsigned dtype that holds them, ``uint8`` for most databases)
with their lengths and ``uint32`` start offsets (persisted as lengths
only; a load derives the starts), and both posting indexes are CSR
arrays (sorted unique gram keys, row pointers, value index in the
narrowest unsigned dtype that numbers the pool, multiplicity).
Each is built in bulk, in place, by one sort: of its ``(key, value)``
pairs packed into ``uint64`` words when a key fits 32 bits, read back
through ``uint32`` views of the sorted words, else a stable argsort by
key.  A search is therefore a fixed number of array operations, not a
Python loop per value: the
filter is one ``np.bincount`` over the gathered posting slices plus
boolean masks, and :meth:`BlockedValuePool.distances` runs the banded
Damerau-Levenshtein recurrence once across every survivor.  The scalar
kernels in :mod:`repro.text.distance` are the reference the tests hold
this module to.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.text.ngrams import QGRAM_PAD

#: Trigrams: the classic blocking sweet spot for short-to-medium strings.
DEFAULT_Q = 3

#: The gram pad's code point.  It is 0, the smallest there is, so the pad
#: sorts first in every alphabet and is always character id 0.
_PAD_CODE = ord(QGRAM_PAD)


def _code_points(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _check_array(array: object, dtype: type | np.dtype | None) -> None:
    """``ValueError`` unless ``array`` is a 1-d numpy array of ``dtype``
    (``None``: any unsigned integer type)."""
    if not isinstance(array, np.ndarray) or array.ndim != 1:
        raise ValueError("expected a 1-d numpy array")
    fits = array.dtype.kind == "u" if dtype is None else array.dtype == dtype
    if not fits:
        raise ValueError(f"unexpected array dtype {array.dtype}")


def _index_dtype(count: int) -> np.dtype:
    """The narrowest unsigned dtype numbering ``count`` pooled values."""
    return np.min_scalar_type(max(count - 1, 0))


class _Postings(NamedTuple):
    """CSR inverted index: the postings of ``keys[r]`` are the pairs
    ``(idx[p], mult[p])`` for ``p`` in ``ptr[r]:ptr[r + 1]``."""

    keys: np.ndarray  # sorted unique gram keys
    ptr: np.ndarray  # int64 row pointers, one more than keys
    idx: np.ndarray  # value index (narrowest unsigned), ascending within a row
    mult: np.ndarray  # occurrences of the gram in that value

    @classmethod
    def build(cls, keys: np.ndarray, counts: np.ndarray) -> "_Postings":
        """Index one ``(gram key, owning value)`` pair per gram occurrence:
        value ``i`` owns the next ``counts[i]`` keys.  Owners ascend along
        ``keys``, so a stable sort by key leaves each (key, owner) run
        contiguous.

        A key of at most 32 bits and its owner pack into one ``uint64``
        word, key high and owner low, whose plain sort is that stable sort
        by key: a key's pairs tie on the high half and fall in owner order.
        The sorted keys and owners are then read as ``uint32`` views of
        those words, with no copy.  Wider keys take the stable argsort.
        Pass a fresh ``keys``: it is let go as soon as it is packed.
        """
        dtype, index_dtype = keys.dtype, _index_dtype(counts.size)
        if dtype.itemsize <= 4:
            packed = keys.astype(np.uint64)
            del keys
            packed <<= np.uint64(32)
            packed |= np.repeat(np.arange(counts.size, dtype=np.uint32), counts)
            packed.sort()
            halves = packed.view(np.uint32)  # (low, high) words in memory order
            del packed
            low = 0 if sys.byteorder == "little" else 1
            keys, owner = halves[1 - low::2], halves[low::2]
            del halves
        else:
            owner = np.repeat(np.arange(counts.size, dtype=index_dtype), counts)
            order = np.argsort(keys, kind="stable")
            keys, owner = keys[order], owner[order]
            del order
        size = keys.size
        key_starts = np.ones(size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=key_starts[1:])
        pair_starts = key_starts.copy()
        pair_starts[1:] |= owner[1:] != owner[:-1]
        keys, idx = keys[key_starts].astype(dtype, copy=False), owner[pair_starts]
        del owner  # the sorted words go with the last view of them
        idx = idx.astype(index_dtype, copy=False)  # narrowed once they are gone
        rows = np.flatnonzero(key_starts[pair_starts])
        del key_starts
        pairs = np.flatnonzero(pair_starts).astype(
            np.int32 if size <= np.iinfo(np.int32).max else np.int64
        )
        del pair_starts
        mult = np.empty_like(pairs)  # each pair's run: to the next pair or the end
        np.subtract(pairs[1:], pairs[:-1], out=mult[:-1])
        mult[-1:] = size - pairs[-1:]
        return cls(
            keys,
            np.append(rows, pairs.size).astype(np.int64),
            idx,
            # the dtype follows the data: a clamped count would under-count
            # min(query count, value count) and drop a true match
            mult.astype(np.min_scalar_type(int(mult.max(initial=1)))),
        )

    def check(self, key_dtype: np.dtype, pool_size: int) -> None:
        """Raise ``ValueError`` unless the arrays fit together (a persisted
        state is adopted as-is, so a bad one must fail at load time, not as
        an out-of-bounds gather in some later query)."""
        keys, ptr, idx, mult = self
        _check_array(keys, key_dtype)
        _check_array(ptr, np.int64)
        _check_array(idx, _index_dtype(pool_size))
        _check_array(mult, None)
        if ptr.size != keys.size + 1 or ptr[0] != 0 or ptr[-1] != idx.size:
            raise ValueError("row pointers do not span the postings")
        if np.any(np.diff(ptr) <= 0) or np.any(keys[1:] <= keys[:-1]):
            raise ValueError("gram keys or row pointers are not increasing")
        if mult.size != idx.size:
            raise ValueError("one multiplicity per posting required")
        if idx.size and idx.max() >= pool_size:
            raise ValueError("posting refers to a value outside the pool")


class BlockedValuePool:
    """A pool of strings indexed for cheap candidate pre-selection and
    batched distance verification.

    Built once, in bulk, from a list of strings (compared case-folded);
    the strings themselves are not retained — position ``i`` of the input
    is value index ``i`` everywhere.  :meth:`candidate_indices` intersects
    the query's gram and character profiles with the postings (multiset
    semantics, so repeated grams are counted correctly) and returns only
    the values passing the filters — a superset of the true matches that
    is typically orders of magnitude smaller than the length band;
    :meth:`distances` then verifies all of them in one pass.
    """

    def __init__(self, values: Iterable[str] = (), *, q: int = DEFAULT_Q):
        self._build([value.lower() for value in values], q)

    @classmethod
    def from_folded(cls, folded: list[str], *, q: int = DEFAULT_Q) -> "BlockedValuePool":
        """A pool of strings that are already case-folded.  The list is
        taken over: it is emptied once its strings are joined, so they can
        be freed before the postings are built."""
        pool = cls.__new__(cls)
        pool._build(folded, q)
        return pool

    def _build(self, folded: list[str], q: int) -> None:
        if q <= 0:
            raise ValueError(f"q must be positive, got {q}")
        self._q = q
        count = len(folded)
        lengths = np.fromiter(map(len, folded), dtype=np.int32, count=count)
        self._lengths = lengths
        code_points = _code_points("".join(folded))
        folded.clear()
        # Dense per-pool character ids, in code point order, keep a gram
        # key in 32 bits for any realistic alphabet and a stored character
        # in one byte for most; id 0 is the pad.  One lookup table over
        # the code points present maps each character to its id.
        present = np.zeros(int(code_points.max(initial=_PAD_CODE)) + 1, dtype=bool)
        present[code_points] = True
        present[_PAD_CODE] = True
        self._alphabet = np.flatnonzero(present).astype(np.uint32)
        del present
        lookup = np.zeros(int(self._alphabet[-1]) + 1, dtype=self._code_dtype)
        lookup[self._alphabet] = np.arange(self._alphabet.size)
        self._codes = lookup[code_points]
        del lookup, code_points
        self._key_dtype = self._pick_key_dtype()

        # Character postings cover every value short enough for the
        # q-gram threshold to be vacuous at some valid bound (k <= q).
        short = lengths <= self._short_cap
        self._chars = _Postings.build(
            self._codes[np.repeat(short, lengths)].astype(self._key_dtype),
            np.where(short, lengths, 0),
        )
        del short

        # Lay the values out with q - 1 pad ids before each and after the
        # last.  A value's padded grams are then exactly the windows that
        # start in the gap before it or at one of its characters, in
        # order, and none of them reaches past the gap after it.
        pad = q - 1
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if offsets[-1] >= 2**32:
            raise ValueError("values exceed the 4 Gi characters a uint32 start addresses")
        self._starts = offsets[:-1].astype(np.uint32)
        self._grams = _Postings.build(
            self._gram_keys(np.insert(self._codes, np.repeat(offsets, pad), 0)),
            lengths + pad,
        )

    def __len__(self) -> int:
        return self._lengths.size

    @property
    def _short_cap(self) -> int:
        return 1 + self._q * self._q

    @property
    def _code_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype holding every character id, the
        id of characters outside the alphabet and the filler id."""
        return np.min_scalar_type(self._filler)

    @property
    def _filler(self) -> int:
        """Fills code-matrix cells outside a value; equals no character
        id, not even that of a character outside the alphabet."""
        return self._alphabet.size + 1

    def _pick_key_dtype(self) -> np.dtype:
        keyspace = (self._alphabet.size + 1) ** self._q
        if keyspace <= 2**32:
            return np.dtype(np.uint32)
        if keyspace <= 2**64:
            return np.dtype(np.uint64)
        raise ValueError(f"q={self._q} grams over this alphabet overflow 64 bits")

    def _char_ids(self, codes: np.ndarray) -> np.ndarray:
        """Character ids of the code points ``codes``; a code point the
        pool has never seen gets id ``alphabet.size``."""
        alphabet = self._alphabet
        ids = np.minimum(np.searchsorted(alphabet, codes), alphabet.size - 1)
        return np.where(alphabet[ids] == codes, ids, alphabet.size).astype(
            self._code_dtype
        )

    def _gram_keys(self, ids: np.ndarray) -> np.ndarray:
        """Key of the q-gram starting at each position of ``ids``, in the
        key dtype: its characters read as digits in base
        ``alphabet.size + 1``."""
        count = max(ids.size - self._q + 1, 0)
        keys = np.zeros(count, dtype=self._key_dtype)
        for shift in range(self._q):
            keys *= self._alphabet.size + 1
            keys += ids[shift:shift + count]
        return keys

    def _shared(self, postings: _Postings, query_keys: np.ndarray) -> np.ndarray:
        """Per pooled value, the multiset intersection size between its
        grams and the query's: sum over grams of min(query count, value
        count)."""
        keys, ptr, idx, mult = postings
        query_keys, query_counts = np.unique(query_keys, return_counts=True)
        rows = np.searchsorted(keys, query_keys)
        hit = rows < keys.size  # compare only where a row exists
        hit[hit] = keys[rows[hit]] == query_keys[hit]
        rows, query_counts = rows[hit], query_counts[hit]
        starts = ptr[rows]
        sizes = ptr[rows + 1] - starts
        ends = np.cumsum(sizes)
        # positions of every posting of every hit row, rows back to back
        flat = np.arange(ends[-1] if ends.size else 0) + np.repeat(
            starts - ends + sizes, sizes
        )
        weights = np.minimum(mult[flat], np.repeat(query_counts, sizes))
        return np.bincount(idx[flat], weights=weights, minlength=len(self))

    # ----------------------------------------------------------- filtering

    def candidate_indices(self, query: str, *, max_distance: int) -> np.ndarray:
        """Ascending pool indices of values plausibly within ``max_distance``.

        The result is a superset-filter: every value whose (case-folded)
        Damerau-Levenshtein distance to ``query`` is within the bound is
        returned; values that provably cannot match are dropped without a
        distance computation.
        """
        k = max_distance
        if k < 0:
            return np.empty(0, dtype=np.intp)
        q = self._q
        query_ids = self._char_ids(_code_points(query.lower()))
        qlen = query_ids.size
        lo, hi = max(0, qlen - k), qlen + k
        lengths = self._lengths
        longest = np.maximum(lengths, qlen)
        in_band = (lengths >= lo) & (lengths <= hi)

        # Tiny strings: max(|s|,|t|) <= k can match while sharing nothing
        # at all (not even a character), so they are admitted blindly.
        picked = longest <= k

        if k <= q:
            # Short values (both lengths at or below the vacuous cap) can
            # match with zero shared grams; the bag filter covers them.
            vacuous_cap = 1 + q * k
            bag_hi = min(hi, vacuous_cap) if qlen <= vacuous_cap else -1
            gram_lo = vacuous_cap + 1 if qlen <= vacuous_cap else lo
        else:
            # The count threshold is not a safe necessary condition for
            # k > q: bag-filter the char-indexed short values, admit the
            # rest of the band blindly.
            bag_hi = min(hi, self._short_cap)
            gram_lo = -1
            picked |= in_band & (lengths > self._short_cap)

        if bag_hi >= lo:
            shared = self._shared(self._chars, query_ids)
            picked |= in_band & (lengths <= bag_hi) & (longest - shared <= k)

        if 0 <= gram_lo <= hi:
            pad = np.zeros(q - 1, dtype=query_ids.dtype)
            shared = self._shared(
                self._grams, self._gram_keys(np.concatenate((pad, query_ids, pad)))
            )
            picked |= (
                in_band & (lengths >= gram_lo) & (shared >= longest - (1 + q * k))
            )
        return np.flatnonzero(picked)

    # -------------------------------------------------------- verification

    def distances(
        self, query: str, candidates: np.ndarray, *, max_distance: int
    ) -> np.ndarray:
        """Damerau-Levenshtein distance (restricted, adjacent
        transpositions) from ``query`` to each value in ``candidates``,
        computed for all of them at once.

        Same contract as :func:`repro.text.distance.damerau_levenshtein_banded`:
        exact when the distance is ``<= max_distance``, else
        ``max_distance + 1``.

        Row ``i`` of the DP holds the ``2k + 1`` cells of the diagonal
        band, cell ``d`` standing for column ``j = i + d - k``; each cell is
        one contiguous vector over the candidates (arrays are laid out
        ``[row or cell, candidate]`` so every operation streams along the
        candidate axis).  Cells outside the band or outside the matrix hold
        ``k + 1``: their true value is at least that, so they can never
        lower a cell whose true value is ``<= k``, and everything above
        ``k`` is reported as ``k + 1`` anyway.
        """
        k = max_distance
        if k < 0:
            raise ValueError(f"max_distance must be >= 0, got {max_distance}")
        cap = k + 1
        a = self._char_ids(_code_points(query.lower()))
        rows = a.size
        candidates = np.asarray(candidates, dtype=np.intp)
        out = np.full(candidates.size, cap, dtype=np.int32)
        lengths = self._lengths[candidates]
        band = np.flatnonzero(np.abs(lengths - rows) <= k)
        if rows == 0 or band.size == 0:
            out[band] = lengths[band]  # empty query: every in-band length is <= k
            return out
        lengths = lengths[band]
        count, width = band.size, 2 * k + 1

        # Code matrix, one column per candidate: k filler rows, then the
        # value's character ids in |query| + k rows, filler past its end.
        positions = np.arange(rows + k)[:, None]
        codes = np.full((k + rows + k, count), self._filler, dtype=self._codes.dtype)
        inside = positions < lengths
        starts = self._starts[candidates[band]].astype(np.intp)
        codes[k:][inside] = self._codes[(starts + positions)[inside]]
        # window[i - 1, d] is the value character under cell d of row i
        window = sliding_window_view(codes, width, axis=0).transpose(0, 2, 1)
        a = a[:, None, None]
        substitution = (window != a).astype(np.int32)
        # [i - 2]: row i may close a transposition here, a[i-1] == b[j-2]
        # and a[i-2] == b[j-1]
        transposed = (window[:-1] == a[1:]) & (window[1:] == a[:-1])

        # three rotating rows, each with a k + 1 guard cell on both sides
        table = np.full((3, width + 2, count), cap, dtype=np.int32)
        table[0, 1 + k:-1] = np.arange(cap)[:, None]  # D[0][j] = j for j <= k
        scratch = np.empty((width, count), dtype=np.int32)
        for i in range(1, rows + 1):
            previous, current = table[(i - 1) % 3], table[i % 3, 1:-1]
            np.add(previous[2:], 1, out=current)  # deletion
            np.add(previous[1:-1], substitution[i - 1], out=scratch)
            np.minimum(current, scratch, out=current)
            if i >= 2:
                np.add(table[(i - 2) % 3, 1:-1], 1, out=scratch)
                np.minimum(current, scratch, out=current, where=transposed[i - 2])
            if i <= k:
                current[:k - i] = cap  # columns j < 0
                current[k - i] = i  # D[i][0] = i
            for d in range(1, width):  # insertions chain along the row
                np.add(current[d - 1], 1, out=scratch[0])
                np.minimum(current[d], scratch[0], out=current[d])
        final = table[rows % 3]
        out[band] = np.minimum(final[lengths - rows + cap, np.arange(count)], cap)
        return out

    # -------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Plain-structure snapshot for on-disk persistence.

        Arrays are shared (not copied): snapshots are taken for immediate
        serialization, and the pool is immutable once built.
        """
        return {
            "q": self._q,
            "codes": self._codes,
            "lengths": self._lengths,
            "alphabet": self._alphabet,
            "grams": tuple(self._grams),
            "chars": tuple(self._chars),
        }

    @classmethod
    def from_state(cls, state: dict) -> "BlockedValuePool":
        """Adopt the arrays of a :meth:`state_dict` as they are — no gram
        is re-derived.  Raises ``ValueError`` when they do not fit
        together."""
        pool = cls.__new__(cls)
        pool._q = int(state["q"])
        if pool._q <= 0:
            raise ValueError(f"q must be positive, got {pool._q}")
        pool._codes = state["codes"]
        pool._lengths = state["lengths"]
        pool._alphabet = state["alphabet"]
        _check_array(pool._lengths, np.int32)
        _check_array(pool._alphabet, np.uint32)
        alphabet = pool._alphabet
        if not alphabet.size or alphabet[0] != _PAD_CODE or np.any(
            alphabet[1:] <= alphabet[:-1]
        ):
            raise ValueError("alphabet must be increasing and start at the pad")
        _check_array(pool._codes, pool._code_dtype)
        if pool._codes.size and pool._codes.max() >= alphabet.size:
            raise ValueError("character id outside the alphabet")
        if np.any(pool._lengths < 0) or pool._lengths.sum(dtype=np.int64) != (
            pool._codes.size
        ):
            raise ValueError("lengths and character ids disagree")
        if pool._codes.size >= 2**32:
            raise ValueError("values exceed the 4 Gi characters a uint32 start addresses")
        # where each value starts, one past the end of the one before
        pool._starts = np.zeros(pool._lengths.size, dtype=np.uint32)
        np.cumsum(pool._lengths[:-1], dtype=np.uint32, out=pool._starts[1:])
        pool._key_dtype = pool._pick_key_dtype()
        pool._grams = _Postings(*state["grams"])
        pool._chars = _Postings(*state["chars"])
        for postings in (pool._grams, pool._chars):
            postings.check(pool._key_dtype, len(pool))
        return pool
