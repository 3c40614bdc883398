"""The value index's per-value build, kept as a reference for the bulk one.

:mod:`repro.index` builds a database's value index a column or a posting
list at a time: distinct ``(key, spelling)`` pairs per column, an array
group-by for the similarity pool's fan-out, one packed sort per posting
list.  This module is the build those replaced, one Python step per cell
or per value: :func:`reference_build` indexes every cell through
:func:`~repro.index.inverted.normalize_value`, :func:`reference_fanout`
groups the pool with a dict of lists, and :func:`reference_pool` sorts
each posting list with a stable argsort by key.  The tests hold the bulk
build to it: the same keys, location sets, spellings, column value
lists, fan-out arrays and pool arrays, in the same order and dtypes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from repro.db.database import Database
from repro.index.blocking import BlockedValuePool, _Postings
from repro.index.inverted import ValueLocation, normalize_value
from repro.schema.model import ColumnType


@dataclass
class ReferenceIndex:
    """What an index build yields, in plain containers."""

    locations: dict[str, frozenset[ValueLocation]] = field(default_factory=dict)
    originals: dict[str, tuple[str, ...]] = field(default_factory=dict)
    column_values: dict[ValueLocation, list[str]] = field(default_factory=dict)

    def iter_text_values(self):
        for location, values in self.column_values.items():
            for value in values:
                yield value, location


def reference_build(
    database: Database, *, max_values_per_column: int = 5000
) -> ReferenceIndex:
    """Index every cell of every column, one cell at a time."""
    index = ReferenceIndex()
    for table in database.schema.tables:
        for column in table.columns:
            location = ValueLocation(column.table, column.name)
            values = database.column_values(column, limit=max_values_per_column)
            distinct: list[str] = []
            for value in values:
                key = normalize_value(value)
                if not key:
                    continue
                original = str(value)
                combination = index.locations.get(key, frozenset())
                if location not in combination:  # first time in this column
                    index.locations[key] = combination | {location}
                    distinct.append(original)
                spellings = index.originals.get(key, ())
                if original not in spellings:
                    index.originals[key] = spellings + (original,)
            if column.column_type not in (ColumnType.NUMBER, ColumnType.BOOLEAN):
                index.column_values[location] = distinct
    return index


def reference_fanout(index) -> tuple[list[str], list[ValueLocation], array, list[str], array]:
    """The similarity pool's values (case-folded, first-met order) and
    fan-out arrays ``(loc_table, offsets, originals, location_ids)``, one
    dict lookup and one list append per text value of ``index``."""
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
    return list(position), loc_table, offsets, originals, location_ids


def _argsort_postings(cls, keys: np.ndarray, owner: np.ndarray) -> _Postings:
    """CSR postings of ``(key, owner)`` pairs by one stable argsort by key."""
    order = np.argsort(keys, kind="stable")
    keys, owner = keys[order], owner[order]
    key_starts = np.ones(keys.size, dtype=bool)
    key_starts[1:] = keys[1:] != keys[:-1]
    pair_starts = key_starts.copy()
    pair_starts[1:] |= owner[1:] != owner[:-1]
    pairs = np.flatnonzero(pair_starts)
    mult = np.diff(pairs, append=keys.size)
    rows = np.flatnonzero(key_starts[pairs])
    return cls(
        keys[pairs[rows]],
        np.append(rows, pairs.size).astype(np.int64),
        owner[pairs].astype(np.int32),
        mult.astype(np.min_scalar_type(int(mult.max(initial=1)))),
    )


def reference_pool(values, **kwargs: int) -> BlockedValuePool:
    """A :class:`BlockedValuePool` whose posting lists are built by the
    stable argsort instead of the packed sort."""
    with mock.patch.object(_Postings, "build", classmethod(_argsort_postings)):
        return BlockedValuePool(values, **kwargs)
