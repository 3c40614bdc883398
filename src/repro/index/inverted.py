"""Inverted index over database content.

Paper Section III: "As input our system expects a question in natural
language, the schema of the database, and access to the content of the
database, e.g. via an inverted index".  The index maps normalized value
tokens to the (table, column) locations where they occur, supports exact
lookups for candidate *validation* and feeds the similarity search used
for candidate *generation*.

The index is built once per database and kept in memory, so the
per-question work must not rescan base data.  Every serving process
holds one per database, so its per-key shape is compact: a key maps to
one *shared* ``frozenset`` of locations — values fall into a handful of
column combinations, and every key of one combination points at the
same object — and to its original spelling, a plain string (a tuple only
for the rare key spelled several ways; an integer's key *is* its
spelling).  A cold build produces these shapes directly, a column at a
time from its distinct values rather than a call per cell; a warm load
from a persisted bundle produces the same ones.

An index is immutable once built.  New database content arrives as a
whole new index: the background refresher
(:mod:`repro.evolve.refresher`) rebuilds it off the request path through
the :class:`~repro.index.registry.IndexRegistry` and swaps it into the
serving runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.database import Database
from repro.schema.model import Column, ColumnType


@dataclass(frozen=True)
class ValueLocation:
    """Where a value was found: one column of one table."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


#: Build-time memo: ``(combination, location) -> combination | {location}``.
_Grown = dict[tuple[frozenset[ValueLocation], ValueLocation], frozenset[ValueLocation]]


def normalize_value(value: object) -> str:
    """Canonical string form used as index key (lower-cased, trimmed)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return str(value).strip().lower()


class InvertedIndex:
    """Exact-match index from normalized values to their locations.

    Each key maps to the location set of its column combination, one
    ``frozenset`` shared by every key found in exactly those columns, and
    to its original spelling (a tuple of them when there are several).
    Both are immutable, so queries hand them out without copying.

    Also keeps, for each text-like column, a list of its distinct
    original values for the similarity scan (bounded by
    ``max_values_per_column`` to keep memory and scan time predictable on
    wide databases).
    """

    def __init__(self, *, max_values_per_column: int = 5000):
        self._max_values_per_column = max_values_per_column
        self._locations: dict[str, frozenset[ValueLocation]] = {}
        # A key's one spelling as itself, two or more as a tuple.
        self._originals: dict[str, str | tuple[str, ...]] = {}
        # Text-like columns only: nothing scans a numeric column's values.
        self._column_values: dict[ValueLocation, list[str]] = {}
        # Every indexed column in build order: numbers the state's locations.
        self._indexed: list[ValueLocation] = []

    @property
    def max_values_per_column(self) -> int:
        return self._max_values_per_column

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
        grown: _Grown = {}
        for table in database.schema.tables:
            for column in table.columns:
                index._index_column(database, column, grown)
        return index

    def _index_column(
        self, database: Database, column: Column, grown: _Grown
    ) -> None:
        """Add one column's values.

        The column is walked as its distinct ``(key, spelling)`` pairs in
        first-met order, keyed per value type in one pass: a column of
        strings keys each distinct string as ``strip().lower()``, a column
        of integers uses ``str(value)`` as key and spelling alike, and
        anything mixed goes through :func:`normalize_value`.

        ``grown`` lives for the whole build, so every key of one column
        combination shares one frozenset.  Columns are indexed one after
        the other, so a combination is always reached along the same
        path and the memo alone keeps it unique.
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
        locations, originals = self._locations, self._originals
        alone = frozenset((location,))
        distinct: list[str] = []
        for key, original in pairs:
            if not key:
                continue
            combination = locations.get(key)
            if combination is None:
                locations[key] = alone
                originals[key] = original
                distinct.append(original)
                continue
            if combination is not alone and location not in combination:
                # first time in this column
                step = (combination, location)
                wider = grown.get(step)
                if wider is None:
                    wider = grown[step] = combination | alone
                locations[key] = wider
                distinct.append(original)
            held = originals[key]
            if type(held) is str:
                if held != original:
                    originals[key] = (held, original)
            elif original not in held:
                originals[key] = held + (original,)
        if column.column_type not in (ColumnType.NUMBER, ColumnType.BOOLEAN):
            self._column_values[location] = distinct

    # ------------------------------------------------------------- queries

    def lookup(self, value: object) -> frozenset[ValueLocation]:
        """Exact (normalized) lookup: all locations containing ``value``.

        The returned set is the index's own shared, immutable object.
        """
        return self._locations.get(normalize_value(value), frozenset())

    def contains(self, value: object) -> bool:
        return normalize_value(value) in self._locations

    def original_forms(self, value: object) -> tuple[str, ...]:
        """Original-cased spellings of a normalized value, in the order
        the build first met them."""
        spellings = self._originals.get(normalize_value(value), ())
        return (spellings,) if type(spellings) is str else spellings

    def text_locations(self) -> list[ValueLocation]:
        """All indexed columns that hold text-like values."""
        return list(self._column_values)

    @property
    def num_distinct_values(self) -> int:
        return len(self._locations)

    def iter_text_values(self):
        """Yield ``(original_value, location)`` pairs for text columns,
        each column's distinct values in the order the build met them."""
        for location, values in self._column_values.items():
            for value in values:
                yield value, location

    def text_columns(self):
        """Yield ``(location, values)`` per text column: the distinct
        values :meth:`iter_text_values` yields for it, as the index's own
        list (read it, do not change it)."""
        yield from self._column_values.items()

    # -------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Plain-structure snapshot for on-disk persistence.

        Locations are flattened to a ``(table, column)`` id table (so the
        payload survives refactors of :class:`ValueLocation` itself),
        numbered in build order, and each key refers to its combination
        by id; the combinations are the index's shared frozensets, so each
        is flattened once.  Nothing depends on set iteration order, so one
        database always gives the same snapshot.
        """
        loc_ids = {location: lid for lid, location in enumerate(self._indexed)}
        locset_ids: dict[frozenset[ValueLocation], int] = {}
        locset_table: list[tuple[int, ...]] = []
        locations: dict[str, int] = {}
        for key, combination in self._locations.items():
            sid = locset_ids.get(combination)
            if sid is None:
                sid = locset_ids[combination] = len(locset_table)
                locset_table.append(tuple(sorted(loc_ids[loc] for loc in combination)))
            locations[key] = sid
        return {
            "max_values_per_column": self._max_values_per_column,
            "loc_table": [(loc.table, loc.column) for loc in self._indexed],
            "locset_table": locset_table,
            "locations": locations,
            "originals": dict(self._originals),
            "column_values": [
                (loc_ids[loc], list(values))
                for loc, values in self._column_values.items()
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "InvertedIndex":
        """Rebuild an index from :meth:`state_dict`.

        Produces the shapes of a cold build — one frozenset per location
        combination, shared by its keys, and a key's spelling as a string,
        or a tuple when it has several (adopted as unpickled) — so loading
        stays proportional to the pickle size, not to a per-value Python
        rebuild.
        """
        index = cls(max_values_per_column=int(state["max_values_per_column"]))
        loc_objs = [ValueLocation(table, column) for table, column in state["loc_table"]]
        locsets = [
            frozenset(loc_objs[lid] for lid in combo)
            for combo in state["locset_table"]
        ]
        index._locations = {
            key: locsets[sid] for key, sid in state["locations"].items()
        }
        index._originals = dict(state["originals"])
        for lid, values in state["column_values"]:
            index._column_values[loc_objs[lid]] = values
        index._indexed = loc_objs
        return index
