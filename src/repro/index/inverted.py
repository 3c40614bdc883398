"""Inverted index over database content.

Paper Section III: "As input our system expects a question in natural
language, the schema of the database, and access to the content of the
database, e.g. via an inverted index".  The index maps normalized value
tokens to the (table, column) locations where they occur, supports exact
lookups for candidate *validation* and feeds the similarity search used
for candidate *generation*.

The index is built once per database and kept in memory, so the
per-question work must not rescan base data.  Every serving process
holds one per database, so it is one packed table, not a dict of Python
objects per key:

* the distinct normalized keys as one UTF-8 ``bytes`` blob with
  ``uint32`` offsets, grouped by hash bucket, a ``uint32``
  :func:`zlib.crc32` per key and ``uint32`` bucket starts.  A probe
  hashes its key once and compares hashes, then bytes, within that one
  bucket; the hash is seed-free, so a table means the same in every
  process;
* per key, the narrow id of its location ``frozenset`` — values fall
  into a handful of column combinations, and every key of one
  combination hands out the same shared object;
* per key, a range into one list of spelling strings (original-cased
  forms, in the order the build met them).  Each text column's distinct
  values are ``uint32`` ids into that same list, and so is the
  similarity searcher's fan-out (:mod:`repro.index.similarity`), so a
  spelling is one Python string however many columns hold it.

A cold build walks each column as its distinct ``(key, spelling)``
pairs through a transient key → row dict, then packs the whole database
at once with a fixed number of array operations; a warm load from a
persisted bundle adopts the packed arrays as they are, after checking
that they fit together.

An index is immutable once built.  New database content arrives as a
whole new index: the background refresher
(:mod:`repro.evolve.refresher`) rebuilds it off the request path through
the :class:`~repro.index.registry.IndexRegistry` and swaps it into the
serving runtime.
"""

from __future__ import annotations

import zlib
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.db.database import Database
from repro.schema.model import Column, ColumnType


@dataclass(frozen=True)
class ValueLocation:
    """Where a value was found: one column of one table."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


def normalize_value(value: object) -> str:
    """Canonical string form used as index key (lower-cased, trimmed)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return str(value).strip().lower()


def _check_array(array: object, dtype: np.dtype, size: int) -> None:
    """``ValueError`` unless ``array`` is a 1-d numpy array of ``dtype``
    and ``size`` elements."""
    if not isinstance(array, np.ndarray) or array.ndim != 1:
        raise ValueError("expected a 1-d numpy array")
    if array.dtype != dtype or array.size != size:
        raise ValueError(f"unexpected array {array.dtype}[{array.size}]")


def _check_offsets(offsets: np.ndarray, end: int, *, empty: bool) -> None:
    """``ValueError`` unless ``offsets`` runs from 0 to ``end`` without
    stepping back (or, unless ``empty``, standing still)."""
    steps = np.diff(offsets.astype(np.int64))
    if offsets[0] != 0 or offsets[-1] != end or np.any(steps < (0 if empty else 1)):
        raise ValueError("offsets do not span their data")


#: Marks a build-time spelling id as a key's second or later spelling.
_LATER = 1 << 31


class _Build:
    """One database's keys as a cold build meets them, a column at a time.

    Rows number the distinct keys in first-met order, and a key's first
    spelling has its row as id; a later spelling (the same key spelled
    another way) is numbered apart, ``_LATER | j``.  A location set is an
    id into ``locsets``: each column adds its own one-column set, then a
    set per wider combination its keys reach, so every set holding this
    column has an id at or above the column's own.
    """

    def __init__(self) -> None:
        self.rows: dict[str, int] = {}  # key -> row
        self.spellings: list[str] = []  # row -> its key's first spelling
        self.combo: list[int] = []  # row -> location set id
        self.later: dict[int, list[int]] = {}  # row -> its later spellings' j
        self.later_spellings: list[str] = []  # j -> spelling
        self.locsets: list[frozenset[ValueLocation]] = []
        self.grown: dict[tuple[int, int], int] = {}  # (set, column's set) -> union
        self.text_ids = array("I")  # text columns' spelling ids, back to back
        self.text_offsets = [0]

    def add_column(self, location: ValueLocation, pairs, *, text: bool) -> None:
        """Add one column's distinct ``(key, spelling)`` pairs; a text
        column also lists the spelling of each of its keys' first pair."""
        rows, spellings, combo = self.rows, self.spellings, self.combo
        locsets, grown = self.locsets, self.grown
        alone = len(locsets)
        locsets.append(frozenset((location,)))
        column = self.text_ids if text else array("I")
        for key, spelling in pairs:
            if not key:
                continue
            row = rows.get(key)
            if row is None:
                rows[key] = row = len(spellings)
                spellings.append(spelling)
                combo.append(alone)
                column.append(row)
                continue
            held = combo[row]
            if held < alone:  # first time in this column
                wider = grown.get((held, alone))
                if wider is None:
                    wider = grown[held, alone] = len(locsets)
                    locsets.append(locsets[held] | locsets[alone])
                combo[row] = wider
                column.append(
                    row if spellings[row] == spelling else self._spelled(row, spelling)
                )
            elif spellings[row] != spelling:
                self._spelled(row, spelling)
        if text:
            self.text_offsets.append(len(column))

    def _spelled(self, row: int, spelling: str) -> int:
        """The id of key ``row`` spelled ``spelling`` (not its first
        spelling), numbering it if new."""
        later = self.later.setdefault(row, [])
        for j in later:
            if self.later_spellings[j] == spelling:
                return _LATER | j
        j = len(self.later_spellings)
        later.append(j)
        self.later_spellings.append(spelling)
        return _LATER | j

    def pack(self) -> dict:
        """The packed table of :class:`InvertedIndex`, built with a fixed
        number of array operations whatever the column count.

        Keys are laid out bucket by bucket (first-met order within one),
        each key's spellings contiguous in that order (its first, then
        its later ones in met order), and location sets numbered by
        creation among those still in use.  A key is encoded on its own
        only for its hash, and the blob in one piece, so no per-key
        ``bytes`` object outlives its hash.
        """
        keys = list(self.rows)
        self.rows = {}
        count, later = len(keys), len(self.later_spellings)
        hashes = np.fromiter(
            map(zlib.crc32, map(str.encode, keys)), dtype=np.uint32, count=count
        )
        buckets = 1 << max(count - 1, 0).bit_length()  # a power of two >= count
        # in the narrowest dtype, so the stable sort is a radix sort while
        # there are at most 65 536 buckets
        bucket = (hashes & np.uint32(buckets - 1)).astype(np.min_scalar_type(buckets - 1))
        order = np.argsort(bucket, kind="stable")
        bucket_starts = np.zeros(buckets + 1, dtype=np.uint32)
        np.cumsum(np.bincount(bucket, minlength=buckets), out=bucket_starts[1:])
        del bucket
        key_offsets = np.zeros(count + 1, dtype=np.intp)  # in characters
        np.cumsum(
            np.fromiter(map(len, keys), dtype=np.intp, count=count)[order],
            out=key_offsets[1:],
        )
        blob = "".join(np.fromiter(keys, dtype=object, count=count)[order]).encode()
        del keys
        if len(blob) >= 2**32:
            raise ValueError("keys exceed the 4 GiB a uint32 offset addresses")
        if len(blob) > key_offsets[-1]:
            # some key is not ASCII: a character starts at each byte that
            # does not continue a UTF-8 sequence (0b10xxxxxx)
            codes = np.frombuffer(blob, dtype=np.uint8)
            char_starts = np.flatnonzero(codes & 0xC0 != 0x80)
            key_offsets = np.append(char_starts, len(blob))[key_offsets]
            del codes, char_starts
        key_offsets = key_offsets.astype(np.uint32)

        combo = np.array(self.combo, dtype=np.intp)
        used = np.flatnonzero(np.bincount(combo, minlength=len(self.locsets)))
        locsets = [self.locsets[i] for i in used.tolist()]
        renumber = np.empty(
            len(self.locsets), dtype=np.min_scalar_type(max(used.size - 1, 0))
        )
        renumber[used] = np.arange(used.size)

        # new spelling id of each build-time one: the rows' first
        # spellings, then the later ones (``_LATER | j`` at count + j)
        dest = np.empty(count + later, dtype=np.uint32)
        sizes = np.ones(count, dtype=np.uint32)  # spellings per table position
        position = np.empty(count, dtype=np.intp)  # row -> table position
        position[order] = np.arange(count)
        if later:
            multi = position[np.fromiter(self.later, dtype=np.intp, count=len(self.later))]
            extra = np.fromiter(map(len, self.later.values()), dtype=np.intp, count=multi.size)
            sizes[multi] += extra.astype(np.uint32)
        spelling_offsets = np.zeros(count + 1, dtype=np.uint32)
        np.cumsum(sizes, out=spelling_offsets[1:])
        del sizes
        dest[:count] = spelling_offsets[position]
        if later:
            # the j-th later spelling of a key goes after its first and
            # the later ones met before it
            js = np.fromiter(chain.from_iterable(self.later.values()), dtype=np.intp, count=later)
            runs = np.repeat(np.cumsum(extra) - extra, extra)
            dest[count + js] = np.repeat(spelling_offsets[multi] + 1, extra) + (
                np.arange(later) - runs
            )
        moved = np.empty(count + later, dtype=np.intp)
        moved[dest] = np.arange(count + later)
        spellings = np.fromiter(
            chain(self.spellings, self.later_spellings), dtype=object, count=count + later
        )[moved].tolist()
        text_ids = np.frombuffer(self.text_ids, dtype=np.uint32)
        return {
            "keys": blob,
            "key_offsets": key_offsets,
            "hashes": hashes[order],
            "bucket_starts": bucket_starts,
            "locset_ids": renumber[combo[order]],
            "locsets": locsets,
            "spellings": spellings,
            "spelling_offsets": spelling_offsets,
            "text_offsets": np.array(self.text_offsets, dtype=np.uint32),
            "text_values": dest[
                np.where(text_ids >= _LATER, text_ids - _LATER + count, text_ids)
            ],
        }


#: The table of an index with no keys (its arrays are never written to).
_EMPTY = _Build().pack()


class InvertedIndex:
    """Exact-match index from normalized values to their locations.

    Each key maps to the location set of its column combination, one
    ``frozenset`` shared by every key found in exactly those columns, and
    to its original spellings.  Both are immutable (the spellings are
    handed out as a fresh tuple), so queries never copy the table.

    Also lists, for each text-like column, its distinct original values
    for the similarity scan (bounded by ``max_values_per_column`` to keep
    memory and scan time predictable on wide databases), as ids into the
    spelling list.
    """

    def __init__(self, *, max_values_per_column: int = 5000):
        self._max_values_per_column = max_values_per_column
        # Every indexed column in build order: numbers the state's locations.
        self._indexed: list[ValueLocation] = []
        # Text-like columns only: nothing scans a numeric column's values.
        self._text_locations: list[ValueLocation] = []
        self._adopt(_EMPTY)

    @property
    def max_values_per_column(self) -> int:
        return self._max_values_per_column

    def _adopt(self, table: dict) -> None:
        """Take over a packed table (see :meth:`_Build.pack`) and the
        read-only views a probe indexes, which return plain ``int``."""
        self._table = table
        self._keys = table["keys"]
        self._key_offsets = memoryview(table["key_offsets"])
        self._hashes = memoryview(table["hashes"])
        self._bucket_starts = memoryview(table["bucket_starts"])
        self._mask = len(table["bucket_starts"]) - 2
        self._locset_ids = memoryview(table["locset_ids"])
        self._locsets = table["locsets"]
        self._spellings = table["spellings"]
        self._spelling_offsets = memoryview(table["spelling_offsets"])

    # ------------------------------------------------------------ building

    @classmethod
    def build(cls, database: Database, **kwargs: int) -> "InvertedIndex":
        """Index every text-like column of ``database``.

        Numeric columns' values are indexed (so numeric candidates can be
        located) but not listed for the similarity pool — a number
        extracted from the question is its own best candidate (Section
        IV-B2).
        """
        index = cls(**kwargs)
        build = _Build()
        for table in database.schema.tables:
            for column in table.columns:
                index._index_column(database, column, build)
        index._adopt(build.pack())
        return index

    def _index_column(self, database: Database, column: Column, build: _Build) -> None:
        """Add one column's values.

        The column is walked as its distinct ``(key, spelling)`` pairs in
        first-met order, keyed per value type in one pass: a column of
        strings keys each distinct string as ``strip().lower()``, a column
        of integers uses ``str(value)`` as key and spelling alike, and
        anything mixed goes through :func:`normalize_value`.
        """
        location = ValueLocation(column.table, column.name)
        self._indexed.append(location)
        values = database.column_values(column, limit=self._max_values_per_column)
        kinds = set(map(type, values))
        if kinds == {str}:
            spellings = dict.fromkeys(values)
            pairs = zip([value.strip().lower() for value in spellings], spellings)
        elif kinds == {int}:
            spellings = [str(value) for value in dict.fromkeys(values)]
            pairs = zip(spellings, spellings)
        else:
            pairs = dict.fromkeys(zip(map(normalize_value, values), map(str, values)))
        del values
        text = column.column_type not in (ColumnType.NUMBER, ColumnType.BOOLEAN)
        if text:
            self._text_locations.append(location)
        build.add_column(location, pairs, text=text)

    # ------------------------------------------------------------- queries

    def _probe(self, value: object) -> int:
        """Position of ``value``'s key in the table, or -1: one hash, then
        the hashes and bytes of the keys in its bucket.  A lone surrogate
        (which no stored key holds) encodes without raising and misses."""
        data = normalize_value(value).encode("utf-8", "surrogatepass")
        code = zlib.crc32(data)
        bucket = code & self._mask
        position, end = self._bucket_starts[bucket], self._bucket_starts[bucket + 1]
        hashes, offsets = self._hashes, self._key_offsets
        while position < end:
            if (
                hashes[position] == code
                and self._keys[offsets[position]:offsets[position + 1]] == data
            ):
                return position
            position += 1
        return -1

    def find(
        self, value: object
    ) -> tuple[frozenset[ValueLocation], tuple[str, ...]] | None:
        """Locations and original spellings of ``value`` from one probe,
        or ``None`` when the index does not hold it."""
        position = self._probe(value)
        if position < 0:
            return None
        offsets = self._spelling_offsets
        return (
            self._locsets[self._locset_ids[position]],
            tuple(self._spellings[offsets[position]:offsets[position + 1]]),
        )

    def lookup(self, value: object) -> frozenset[ValueLocation]:
        """Exact (normalized) lookup: all locations containing ``value``.

        The returned set is the index's own shared, immutable object.
        """
        position = self._probe(value)
        if position < 0:
            return frozenset()
        return self._locsets[self._locset_ids[position]]

    def contains(self, value: object) -> bool:
        return self._probe(value) >= 0

    def original_forms(self, value: object) -> tuple[str, ...]:
        """Original-cased spellings of a normalized value, in the order
        the build first met them."""
        position = self._probe(value)
        if position < 0:
            return ()
        offsets = self._spelling_offsets
        return tuple(self._spellings[offsets[position]:offsets[position + 1]])

    def text_locations(self) -> list[ValueLocation]:
        """All indexed columns that hold text-like values."""
        return list(self._text_locations)

    @property
    def num_distinct_values(self) -> int:
        return len(self._hashes)

    @property
    def spellings(self) -> list[str]:
        """Every key's original spellings, one string each: the list the
        ids of :meth:`text_value_ids` refer to (read it, do not change it)."""
        return self._spellings

    def text_value_ids(self) -> tuple[list[ValueLocation], np.ndarray, np.ndarray]:
        """``(locations, offsets, ids)``: text column ``locations[c]``
        lists the spellings ``ids[offsets[c]:offsets[c + 1]]``, its
        distinct values in the order the build met them.  The arrays are
        the index's own (read them, do not change them)."""
        table = self._table
        return self.text_locations(), table["text_offsets"], table["text_values"]

    def iter_text_values(self):
        """Yield ``(original_value, location)`` pairs for text columns,
        each column's distinct values in the order the build met them."""
        locations, offsets, ids = self.text_value_ids()
        spellings = self._spellings
        for c, location in enumerate(locations):
            for sid in ids[offsets[c]:offsets[c + 1]].tolist():
                yield spellings[sid], location

    # -------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Plain-structure snapshot for on-disk persistence: the packed
        arrays, blob and spelling list as they are (shared, not copied:
        snapshots are taken for immediate serialization).

        Locations are flattened to a ``(table, column)`` id table (so the
        payload survives refactors of :class:`ValueLocation` itself),
        numbered in build order, and each location set to the sorted ids
        of its columns.  Nothing depends on set iteration order or the
        string-hash seed, so one database always gives the same snapshot.
        """
        loc_ids = {location: lid for lid, location in enumerate(self._indexed)}
        state = {
            name: part for name, part in self._table.items() if name != "locsets"
        }
        state.update(
            max_values_per_column=self._max_values_per_column,
            loc_table=[(loc.table, loc.column) for loc in self._indexed],
            locset_table=[
                tuple(sorted(loc_ids[loc] for loc in combination))
                for combination in self._locsets
            ],
            text_columns=[loc_ids[loc] for loc in self._text_locations],
        )
        return state

    @classmethod
    def from_state(cls, state: dict) -> "InvertedIndex":
        """Rebuild an index from :meth:`state_dict`, adopting its arrays.

        Loading stays proportional to the pickle size: the only Python
        objects made are one per location and one per location set.
        Raises ``ValueError`` when the arrays do not fit together, so a
        bad bundle fails here rather than inside some later query.
        """
        index = cls(max_values_per_column=int(state["max_values_per_column"]))
        loc_objs = [ValueLocation(table, column) for table, column in state["loc_table"]]
        table = {
            name: state[name]
            for name in (
                "keys", "key_offsets", "hashes", "bucket_starts", "locset_ids",
                "spellings", "spelling_offsets", "text_offsets", "text_values",
            )
        }
        table["locsets"] = [
            frozenset(loc_objs[lid] for lid in combination)
            for combination in state["locset_table"]
        ]
        index._indexed = loc_objs
        index._text_locations = [loc_objs[lid] for lid in state["text_columns"]]
        _check_table(table, len(index._text_locations))
        index._adopt(table)
        return index


def _check_table(table: dict, text_columns: int) -> None:
    """``ValueError`` unless a persisted packed table fits together."""
    keys, spellings = table["keys"], table["spellings"]
    if type(keys) is not bytes or type(spellings) is not list:
        raise ValueError("keys must be bytes and spellings a list")
    hashes, starts = table["hashes"], table["bucket_starts"]
    count = hashes.size if isinstance(hashes, np.ndarray) else -1
    _check_array(hashes, np.dtype(np.uint32), count)
    _check_array(table["key_offsets"], np.dtype(np.uint32), count + 1)
    _check_offsets(table["key_offsets"], len(keys), empty=False)
    buckets = starts.size - 1 if isinstance(starts, np.ndarray) else 0
    if buckets < 1 or buckets & (buckets - 1):
        raise ValueError("bucket count must be a power of two")
    _check_array(starts, np.dtype(np.uint32), buckets + 1)
    _check_offsets(starts, count, empty=True)
    held = np.repeat(np.arange(buckets, dtype=np.uint32), np.diff(starts.astype(np.int64)))
    if not np.array_equal(hashes & np.uint32(buckets - 1), held):
        raise ValueError("a key's hash is outside its bucket")
    locsets = table["locsets"]
    _check_array(
        table["locset_ids"], np.min_scalar_type(max(len(locsets) - 1, 0)), count
    )
    if count and table["locset_ids"].max() >= len(locsets):
        raise ValueError("a key refers to a location set outside the table")
    _check_array(table["spelling_offsets"], np.dtype(np.uint32), count + 1)
    _check_offsets(table["spelling_offsets"], len(spellings), empty=False)
    values = table["text_values"]
    size = values.size if isinstance(values, np.ndarray) else -1
    _check_array(values, np.dtype(np.uint32), size)
    _check_array(table["text_offsets"], np.dtype(np.uint32), text_columns + 1)
    _check_offsets(table["text_offsets"], size, empty=True)
    if size and values.max() >= len(spellings):
        raise ValueError("a column value refers to a spelling outside the list")
