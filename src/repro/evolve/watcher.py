"""Drift detection for live database files: cheap + deep content snapshots.

The :class:`~repro.index.registry.IndexRegistry` keys entries by a cheap
fingerprint (schema shape + per-table row counts), which misses exactly
one class of change: in-place UPDATEs that keep every row count
identical.  The :class:`SchemaWatcher` closes that hole with a *deep*
snapshot built from three layers, cheapest first:

1. **connection-level change counters** — ``PRAGMA data_version`` (bumps
   whenever *another* connection commits, WAL-safe) and ``PRAGMA
   schema_version`` (bumps on DDL).  When neither moved since the last
   poll the database cannot have changed and the deep scan is skipped
   entirely; a no-op poll costs two PRAGMA statements.
2. **schema snapshot** — the ``sqlite_master`` DDL text plus per-table
   column names/types, so any DDL (new table, new/renamed column) is
   classified as :attr:`DriftVerdict.SCHEMA_CHANGED` with the added /
   removed tables and columns named in the report.
3. **content snapshot** — per-table row count plus a sampled value hash
   over up to ``sample_rows`` rows in ``rowid`` order (unordered for
   WITHOUT ROWID tables).  A count-preserving UPDATE inside the sample
   window changes the hash and is classified as
   :attr:`DriftVerdict.CONTENT_CHANGED`; tables larger than the window
   are still covered by layer 1 (any commit bumps ``data_version``, and
   the watcher only reports UNCHANGED when layer 1 is quiet).

The watcher watches a SQLite file through its own read-only
connection.  The background refresher (:mod:`repro.evolve.refresher`)
polls it off the request path; tests drive it directly.
"""

from __future__ import annotations

import enum
import hashlib
import sqlite3
from dataclasses import dataclass
from pathlib import Path

# Rows hashed per table for the content layer.  Beyond this window the
# data_version fast path still detects that *something* committed; the
# sample bound keeps a poll's cost independent of table size.
DEFAULT_SAMPLE_ROWS = 4096


class DriftVerdict(enum.Enum):
    """What one poll concluded about the watched database."""

    UNCHANGED = "unchanged"
    CONTENT_CHANGED = "content_changed"
    SCHEMA_CHANGED = "schema_changed"


@dataclass(frozen=True)
class TableSnapshot:
    """Shape + sampled content of one table at poll time."""

    name: str
    columns: tuple[tuple[str, str], ...]  # (name, declared type)
    row_count: int
    content_hash: str


@dataclass(frozen=True)
class DatabaseSnapshot:
    """Everything one probe observed (comparable across polls)."""

    schema_hash: str
    tables: tuple[TableSnapshot, ...]
    data_version: int
    schema_version: int

    def table(self, name: str) -> TableSnapshot | None:
        for snap in self.tables:
            if snap.name == name:
                return snap
        return None


@dataclass(frozen=True)
class DriftReport:
    """The verdict of one poll plus the structured diff behind it."""

    verdict: DriftVerdict
    tables_added: tuple[str, ...] = ()
    tables_removed: tuple[str, ...] = ()
    tables_changed: tuple[str, ...] = ()     # content drift
    columns_added: tuple[tuple[str, str], ...] = ()  # (table, column)
    snapshot: DatabaseSnapshot | None = None

    @property
    def changed(self) -> bool:
        return self.verdict is not DriftVerdict.UNCHANGED

    @property
    def touched_tables(self) -> tuple[str, ...]:
        """Every table named by the diff (for incremental corpus growth)."""
        seen: dict[str, None] = {}
        for name in self.tables_added:
            seen.setdefault(name)
        for name in self.tables_changed:
            seen.setdefault(name)
        for table, _column in self.columns_added:
            seen.setdefault(table)
        return tuple(seen)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "tables_added": list(self.tables_added),
            "tables_removed": list(self.tables_removed),
            "tables_changed": list(self.tables_changed),
            "columns_added": [list(pair) for pair in self.columns_added],
        }


# ------------------------------------------------------------------ probing


def _table_names(connection: sqlite3.Connection) -> list[tuple[str, str]]:
    rows = connection.execute(
        "SELECT name, COALESCE(sql, '') FROM sqlite_master "
        "WHERE type = 'table' AND name NOT LIKE 'sqlite_%' ORDER BY name"
    ).fetchall()
    return [(str(name), str(sql)) for name, sql in rows]


# taint: trusted (table names come from sqlite_master of the polled file and are identifier-escaped before interpolation)
def _table_snapshot(
    connection: sqlite3.Connection, name: str, sample_rows: int
) -> TableSnapshot:
    # The name originates in the watched file's own sqlite_master, but a
    # hostile file could still carry a quote in a table name — escape it
    # so it cannot break out of the quoted identifier.
    quoted = name.replace('"', '""')
    columns = tuple(
        (str(row[1]), str(row[2]))
        for row in connection.execute(f'PRAGMA table_info("{quoted}")')
    )
    try:
        row_count = int(
            connection.execute(f'SELECT COUNT(*) FROM "{quoted}"').fetchone()[0]
        )
    except sqlite3.Error:
        # A table racing its own DROP fingerprints as absent content; the
        # next poll sees the settled state.
        return TableSnapshot(name, columns, -1, "")
    digest = hashlib.sha256()
    try:
        cursor = connection.execute(
            f'SELECT * FROM "{quoted}" ORDER BY rowid LIMIT {int(sample_rows)}'
        )
    except sqlite3.Error:
        # WITHOUT ROWID tables: scan order is the primary key, which is
        # equally deterministic for an unchanged table.
        cursor = connection.execute(
            f'SELECT * FROM "{quoted}" LIMIT {int(sample_rows)}'
        )
    for row in cursor:
        for value in row:
            digest.update(b"\x1f" + repr(value).encode("utf-8", "replace"))
        digest.update(b"\x1e")
    return TableSnapshot(name, columns, row_count, digest.hexdigest())


def snapshot_connection(
    connection: sqlite3.Connection, *, sample_rows: int = DEFAULT_SAMPLE_ROWS
) -> DatabaseSnapshot:
    """Probe one connection into a comparable :class:`DatabaseSnapshot`."""
    data_version = int(connection.execute("PRAGMA data_version").fetchone()[0])
    schema_version = int(
        connection.execute("PRAGMA schema_version").fetchone()[0]
    )
    names = _table_names(connection)
    schema_digest = hashlib.sha256()
    tables = []
    for name, sql in names:
        schema_digest.update(b"\x00" + name.encode() + b"\x01" + sql.encode())
        tables.append(_table_snapshot(connection, name, sample_rows))
    for snap in tables:
        schema_digest.update(
            b"\x02" + repr(snap.columns).encode("utf-8", "replace")
        )
    return DatabaseSnapshot(
        schema_hash=schema_digest.hexdigest(),
        tables=tuple(tables),
        data_version=data_version,
        schema_version=schema_version,
    )


def _diff(
    previous: DatabaseSnapshot, current: DatabaseSnapshot
) -> DriftReport:
    prev_tables = {snap.name: snap for snap in previous.tables}
    cur_tables = {snap.name: snap for snap in current.tables}
    added = tuple(sorted(set(cur_tables) - set(prev_tables)))
    removed = tuple(sorted(set(prev_tables) - set(cur_tables)))
    columns_added: list[tuple[str, str]] = []
    shape_changed = False
    content_changed: list[str] = []
    for name in sorted(set(prev_tables) & set(cur_tables)):
        prev, cur = prev_tables[name], cur_tables[name]
        if prev.columns != cur.columns:
            shape_changed = True
            prev_cols = {col for col, _ in prev.columns}
            for col, _type in cur.columns:
                if col not in prev_cols:
                    columns_added.append((name, col))
        if prev.row_count != cur.row_count or prev.content_hash != cur.content_hash:
            content_changed.append(name)
    if added or removed or shape_changed or (
        previous.schema_hash != current.schema_hash
    ):
        verdict = DriftVerdict.SCHEMA_CHANGED
    elif content_changed:
        verdict = DriftVerdict.CONTENT_CHANGED
    else:
        verdict = DriftVerdict.UNCHANGED
    return DriftReport(
        verdict=verdict,
        tables_added=added,
        tables_removed=removed,
        tables_changed=tuple(content_changed),
        columns_added=tuple(columns_added),
        snapshot=current,
    )


class SchemaWatcher:
    """Stateful drift probe for one database file.

    Args:
        path: the SQLite file; the watcher opens its own read-only
            connection, safe to poll from any thread.
        sample_rows: per-table content-hash window (see module docs).

    The constructor takes the baseline snapshot, so the first
    :meth:`poll` of an untouched database reports ``UNCHANGED``.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        sample_rows: int = DEFAULT_SAMPLE_ROWS,
    ):
        self._sample_rows = sample_rows
        self._path = str(path)
        self._connection: sqlite3.Connection | None = None
        self._previous = snapshot_connection(
            self._connect(), sample_rows=sample_rows
        )

    def _connect(self) -> sqlite3.Connection:
        if self._connection is None:
            # A dedicated read-only connection: data_version then reports
            # every commit made by the serving/writer connections, and
            # the watcher can never write.
            self._connection = sqlite3.connect(
                f"file:{self._path}?mode=ro",
                uri=True,
                check_same_thread=False,
            )
        return self._connection

    @property
    def baseline(self) -> DatabaseSnapshot:
        return self._previous

    def poll(self, *, force_deep: bool = False) -> DriftReport:
        """Probe the database and compare against the previous snapshot.

        The cheap layer (``data_version`` + ``schema_version``) short-
        circuits untouched databases; ``force_deep`` always runs the full
        snapshot (used by tests and the first poll after a swap).
        """
        connection = self._connect()
        if not force_deep:
            data_version = int(
                connection.execute("PRAGMA data_version").fetchone()[0]
            )
            schema_version = int(
                connection.execute("PRAGMA schema_version").fetchone()[0]
            )
            if (
                data_version == self._previous.data_version
                and schema_version == self._previous.schema_version
            ):
                return DriftReport(
                    DriftVerdict.UNCHANGED, snapshot=self._previous
                )
        current = snapshot_connection(
            connection, sample_rows=self._sample_rows
        )
        report = _diff(self._previous, current)
        self._previous = current
        return report

    def close(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
            self._connection = None
