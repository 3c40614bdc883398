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
same object — and to a tuple of its original spellings (almost always
one).  A cold build produces these shapes directly; a warm load from a
persisted bundle produces the same ones.

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
    to a tuple of its original spellings.  Both are immutable, so queries
    hand them out without copying.

    Also keeps, for each text-like column, a list of its distinct
    original values for the similarity scan (bounded by
    ``max_values_per_column`` to keep memory and scan time predictable on
    wide databases).
    """

    def __init__(self, *, max_values_per_column: int = 5000):
        self._max_values_per_column = max_values_per_column
        self._locations: dict[str, frozenset[ValueLocation]] = {}
        self._originals: dict[str, tuple[str, ...]] = {}
        # Text-like columns only: nothing scans a numeric column's values.
        self._column_values: dict[ValueLocation, list[str]] = {}

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

        ``grown`` lives for the whole build, so every key of one column
        combination shares one frozenset.  Columns are indexed one after
        the other, so a combination is always reached along the same
        path and the memo alone keeps it unique.
        """
        location = ValueLocation(column.table, column.name)
        values = database.column_values(column, limit=self._max_values_per_column)
        numeric = column.column_type in (ColumnType.NUMBER, ColumnType.BOOLEAN)
        locations, originals = self._locations, self._originals
        alone = frozenset((location,))
        distinct: list[str] = []
        for value in values:
            key = normalize_value(value)
            if not key:
                continue
            original = str(value)
            combination = locations.get(key)
            if combination is None:
                locations[key] = alone
                originals[key] = (original,)
                distinct.append(original)
                continue
            if location not in combination:  # first time in this column
                step = (combination, location)
                wider = grown.get(step)
                if wider is None:
                    wider = grown[step] = combination | alone
                locations[key] = wider
                distinct.append(original)
            spellings = originals[key]
            if original not in spellings:
                originals[key] = spellings + (original,)
        if not numeric:
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
        return self._originals.get(normalize_value(value), ())

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

    # -------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Plain-structure snapshot for on-disk persistence.

        Locations are flattened to a ``(table, column)`` id table (so the
        payload survives refactors of :class:`ValueLocation` itself) and
        each key refers to its combination by id; the combinations are
        the index's shared frozensets, so each is flattened once.
        """
        loc_ids: dict[ValueLocation, int] = {}
        loc_table: list[tuple[str, str]] = []

        def loc_id(location: ValueLocation) -> int:
            lid = loc_ids.get(location)
            if lid is None:
                lid = len(loc_table)
                loc_ids[location] = lid
                loc_table.append((location.table, location.column))
            return lid

        locset_ids: dict[frozenset[ValueLocation], int] = {}
        locset_table: list[tuple[int, ...]] = []
        locations: dict[str, int] = {}
        for key, combination in self._locations.items():
            sid = locset_ids.get(combination)
            if sid is None:
                sid = locset_ids[combination] = len(locset_table)
                locset_table.append(
                    tuple(sorted(loc_id(loc) for loc in combination))
                )
            locations[key] = sid
        return {
            "max_values_per_column": self._max_values_per_column,
            "loc_table": loc_table,
            "locset_table": locset_table,
            "locations": locations,
            "originals": dict(self._originals),
            "column_values": [
                (loc_id(loc), list(values))
                for loc, values in self._column_values.items()
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "InvertedIndex":
        """Rebuild an index from :meth:`state_dict`.

        Produces the shapes of a cold build — one frozenset per location
        combination, shared by its keys, and a tuple of spellings per key
        (adopted as unpickled) — so loading stays proportional to the
        pickle size, not to a per-value Python rebuild.
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
        return index
