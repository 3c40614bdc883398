"""The value index's per-value build, kept as a reference for the bulk one.

:mod:`repro.index` builds a database's value index a column or a posting
list at a time: distinct ``(key, spelling)`` pairs per column, an array
group-by for the similarity pool's fan-out, one packed sort per posting
list.  This module is the build those replaced, one Python step per cell
or per value: :func:`reference_build` indexes every cell through
:func:`~repro.index.inverted.normalize_value`, :func:`reference_fanout`
groups the pool with a dict of lists, and :func:`reference_pool` numbers
each character and keys each padded q-gram of each value in turn.  The
tests hold the bulk build to it: the same keys, location sets,
spellings, column value lists, fan-out arrays and pool arrays, in the
same order and dtypes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.db.database import Database
from repro.index.blocking import DEFAULT_Q, BlockedValuePool
from repro.index.inverted import ValueLocation, normalize_value
from repro.schema.model import ColumnType
from repro.text.ngrams import QGRAM_PAD, padded_qgrams


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


def packed_keys(state: dict) -> list[str]:
    """The keys of an :meth:`InvertedIndex.state_dict`, decoded from its
    blob in table order."""
    return _decoded(state["keys"], state["key_offsets"])


def packed_spellings(state: dict) -> list[str]:
    """The spellings of an :meth:`InvertedIndex.state_dict`, decoded from
    its spelling blob in id order."""
    return _decoded(state["spellings"], state["spelling_bytes"])


def _decoded(blob: bytes, offsets: np.ndarray) -> list[str]:
    offsets = offsets.tolist()
    return [
        blob[start:end].decode("utf-8", "surrogatepass")
        for start, end in zip(offsets, offsets[1:])
    ]


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


def _postings(
    table: dict[int, dict[int, int]], key_dtype: np.dtype, index_dtype: np.dtype
) -> tuple:
    """CSR arrays of ``{key: {value index: occurrences}}``, keys ascending
    and each key's values in the order they were met."""
    keys = sorted(table)
    idx = [i for key in keys for i in table[key]]
    mult = [n for key in keys for n in table[key].values()]
    ptr = np.cumsum([0] + [len(table[key]) for key in keys], dtype=np.int64)
    return (
        np.array(keys, dtype=key_dtype),
        ptr,
        np.array(idx, dtype=index_dtype),
        np.array(mult, dtype=np.min_scalar_type(max(mult, default=1))),
    )


def reference_pool(values, q: int = DEFAULT_Q) -> BlockedValuePool:
    """A :class:`BlockedValuePool` adopted from arrays built one value and
    one gram at a time: the alphabet as a sorted set of code points, each
    pooled character as its index in that alphabet (in the narrowest
    unsigned dtype that leaves room for two more ids: a query character
    outside the alphabet and the distance kernel's filler), and the
    posting lists as dicts of :func:`~repro.text.ngrams.padded_qgrams`,
    their value index in the narrowest unsigned dtype numbering the
    pool."""
    folded = [value.lower() for value in values]
    alphabet = sorted({ord(QGRAM_PAD)}.union(*(map(ord, value) for value in folded)))
    char_id = {chr(code): i for i, code in enumerate(alphabet)}
    base = len(alphabet) + 1
    key_dtype = np.dtype(np.uint32 if base**q <= 2**32 else np.uint64)
    grams: dict[int, dict[int, int]] = {}
    chars: dict[int, dict[int, int]] = {}
    for i, value in enumerate(folded):
        for gram in padded_qgrams(value, q):
            key = 0
            for char in gram:
                key = key * base + char_id[char]
            owners = grams.setdefault(key, {})
            owners[i] = owners.get(i, 0) + 1
        if len(value) <= 1 + q * q:  # short enough for the bag filter
            for char in value:
                owners = chars.setdefault(char_id[char], {})
                owners[i] = owners.get(i, 0) + 1
    index_dtype = np.min_scalar_type(max(len(folded) - 1, 0))
    return BlockedValuePool.from_state({
        "q": q,
        "codes": np.array(
            [char_id[char] for value in folded for char in value],
            dtype=np.min_scalar_type(len(alphabet) + 1),
        ),
        "lengths": np.array([len(value) for value in folded], dtype=np.int32),
        "alphabet": np.array(alphabet, dtype=np.uint32),
        "grams": _postings(grams, key_dtype, index_dtype),
        "chars": _postings(chars, key_dtype, index_dtype),
    })
