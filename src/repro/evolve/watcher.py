"""Drift detection for live database files: what SQLite says was committed.

The :class:`SchemaWatcher` does not look at rows at all, so an in-place
UPDATE anywhere in a table is as visible as an INSERT; it answers from
two signals SQLite already keeps:

1. **change counters** — ``PRAGMA data_version`` (bumps whenever
   *another* connection commits, WAL-safe) and ``PRAGMA
   schema_version`` (bumps on DDL).  When neither moved since the last
   poll, nothing was committed: :attr:`DriftVerdict.UNCHANGED` after
   two PRAGMA statements.
2. **schema snapshot** — the ``sqlite_master`` DDL text plus per-table
   column names/types, read only when a counter moved.  When it differs
   from the previous snapshot the poll is
   :attr:`DriftVerdict.SCHEMA_CHANGED`, naming the added / removed
   tables and added columns.  Any other counter move is
   :attr:`DriftVerdict.CONTENT_CHANGED` and names no tables: a commit
   may have touched any row of any table, and the counters do not say
   which.

The watcher watches a SQLite file through its own read-only
connection.  The background refresher (:mod:`repro.evolve.refresher`)
polls it off the request path; tests drive it directly.
"""

from __future__ import annotations

import enum
import sqlite3
from dataclasses import dataclass
from pathlib import Path


class DriftVerdict(enum.Enum):
    """What one poll concluded about the watched database."""

    UNCHANGED = "unchanged"
    CONTENT_CHANGED = "content_changed"
    SCHEMA_CHANGED = "schema_changed"


@dataclass(frozen=True)
class TableSnapshot:
    """DDL and columns of one table at poll time."""

    name: str
    ddl: str
    columns: tuple[tuple[str, str], ...]  # (name, declared type)


@dataclass(frozen=True)
class DatabaseSnapshot:
    """The counters and schema one probe observed (comparable across polls)."""

    tables: tuple[TableSnapshot, ...]
    data_version: int
    schema_version: int


@dataclass(frozen=True)
class DriftReport:
    """The verdict of one poll plus the schema diff behind it."""

    verdict: DriftVerdict
    tables_added: tuple[str, ...] = ()
    tables_removed: tuple[str, ...] = ()
    columns_added: tuple[tuple[str, str], ...] = ()  # (table, column)

    @property
    def changed(self) -> bool:
        return self.verdict is not DriftVerdict.UNCHANGED

    @property
    def touched_tables(self) -> tuple[str, ...]:
        """Every table named by the schema diff (for incremental corpus
        growth); empty for content drift, which names no tables."""
        seen: dict[str, None] = dict.fromkeys(self.tables_added)
        for table, _column in self.columns_added:
            seen.setdefault(table)
        return tuple(seen)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "tables_added": list(self.tables_added),
            "tables_removed": list(self.tables_removed),
            "columns_added": [list(pair) for pair in self.columns_added],
        }


# ------------------------------------------------------------------ probing


def _counters(connection: sqlite3.Connection) -> tuple[int, int]:
    data_version = connection.execute("PRAGMA data_version").fetchone()[0]
    schema_version = connection.execute("PRAGMA schema_version").fetchone()[0]
    return int(data_version), int(schema_version)


# taint: trusted (table names come from sqlite_master of the polled file and are identifier-escaped before interpolation)
def _table_snapshot(
    connection: sqlite3.Connection, name: str, ddl: str
) -> TableSnapshot:
    # The name originates in the watched file's own sqlite_master, but a
    # hostile file could still carry a quote in a table name — escape it
    # so it cannot break out of the quoted identifier.
    quoted = name.replace('"', '""')
    columns = tuple(
        (str(row[1]), str(row[2]))
        for row in connection.execute(f'PRAGMA table_info("{quoted}")')
    )
    return TableSnapshot(name, ddl, columns)


def snapshot_connection(connection: sqlite3.Connection) -> DatabaseSnapshot:
    """Probe one connection into a comparable :class:`DatabaseSnapshot`.

    The counters are read first, so a commit racing the schema read
    moves them again and shows at the next poll.
    """
    data_version, schema_version = _counters(connection)
    rows = connection.execute(
        "SELECT name, COALESCE(sql, '') FROM sqlite_master "
        "WHERE type = 'table' AND name NOT LIKE 'sqlite_%' ORDER BY name"
    ).fetchall()
    return DatabaseSnapshot(
        tables=tuple(
            _table_snapshot(connection, str(name), str(ddl))
            for name, ddl in rows
        ),
        data_version=data_version,
        schema_version=schema_version,
    )


def _diff(
    previous: DatabaseSnapshot, current: DatabaseSnapshot
) -> DriftReport:
    if previous.tables == current.tables:
        return DriftReport(DriftVerdict.CONTENT_CHANGED)
    prev_tables = {snap.name: snap for snap in previous.tables}
    cur_tables = {snap.name: snap for snap in current.tables}
    columns_added: list[tuple[str, str]] = []
    for name in sorted(set(prev_tables) & set(cur_tables)):
        prev_cols = {col for col, _type in prev_tables[name].columns}
        for col, _type in cur_tables[name].columns:
            if col not in prev_cols:
                columns_added.append((name, col))
    return DriftReport(
        verdict=DriftVerdict.SCHEMA_CHANGED,
        tables_added=tuple(sorted(set(cur_tables) - set(prev_tables))),
        tables_removed=tuple(sorted(set(prev_tables) - set(cur_tables))),
        columns_added=tuple(columns_added),
    )


class SchemaWatcher:
    """Stateful drift probe for one database file.

    Args:
        path: the SQLite file; the watcher opens its own read-only
            connection, safe to poll from any thread.

    The constructor takes the baseline snapshot, so the first
    :meth:`poll` of an untouched database reports ``UNCHANGED``.
    """

    def __init__(self, path: str | Path):
        self._path = str(path)
        self._connection: sqlite3.Connection | None = None
        self._previous = snapshot_connection(self._connect())

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

    def poll(self) -> DriftReport:
        """Compare the database against the previous snapshot.

        Quiet counters end the poll after two PRAGMAs; otherwise the
        schema is re-read and diffed, and becomes the new baseline.
        """
        connection = self._connect()
        if _counters(connection) == (
            self._previous.data_version, self._previous.schema_version
        ):
            return DriftReport(DriftVerdict.UNCHANGED)
        current = snapshot_connection(connection)
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
