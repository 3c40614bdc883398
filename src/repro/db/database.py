"""SQLite-backed database with schema-aware helpers.

Every synthetic Spider-like database in this reproduction is a real SQLite
database (in memory or on disk): queries are genuinely *executed* for the
Execution Accuracy metric, and the value candidate machinery reads real
base data through this wrapper.

One :class:`Database` may be shared across threads (the serving worker
pool does this): each non-owner thread lazily receives its own SQLite
connection — a fresh connection to the same file for file-backed
databases, or a snapshot clone (via the SQLite backup API) for in-memory
databases.  Clones of in-memory databases are read-only snapshots taken
at first use from that thread; writes made afterwards through the owner
thread are not visible to already-cloned threads.
"""

from __future__ import annotations

import sqlite3
import threading
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.concurrency import make_lock
from repro.errors import ExecutionError, SchemaError
from repro.schema.model import Column, ColumnType, Schema


def quote_identifier(name: str) -> str:
    """``name`` as a double-quoted SQLite identifier, inner quotes doubled,
    so a table or column name cannot break out of its quotes."""
    return '"' + name.replace('"', '""') + '"'


_SQL_TYPES = {
    ColumnType.TEXT: "TEXT",
    ColumnType.NUMBER: "NUMERIC",
    ColumnType.TIME: "TEXT",
    ColumnType.BOOLEAN: "NUMERIC",
    ColumnType.OTHERS: "TEXT",
}


class Database:
    """A SQLite database paired with its logical :class:`Schema`.

    Use :meth:`create` to materialize a fresh database from a schema, or
    :meth:`open` to attach to an existing SQLite file (the logical schema
    is introspected when not supplied).
    """

    def __init__(
        self,
        schema: Schema,
        connection: sqlite3.Connection,
        *,
        path: str | Path | None = None,
    ):
        self.schema = schema
        self._path = str(path) if path is not None else None
        self._connection = connection
        self._owner_thread = threading.get_ident()
        self._thread_local = threading.local()
        self._clone_lock = make_lock("Database._clone_lock")
        self._clones: list[sqlite3.Connection] = []  # guarded by: _clone_lock
        self._closed = False
        self._connection.execute("PRAGMA foreign_keys = ON")

    # -------------------------------------------------------- construction

    @classmethod
    def create(cls, schema: Schema, path: str | Path | None = None) -> "Database":
        """Create the schema's tables in a new database.

        Args:
            schema: logical schema to materialize.
            path: SQLite file path; ``None`` creates an in-memory database.
        """
        connection = sqlite3.connect(
            str(path) if path is not None else ":memory:",
            check_same_thread=False,
        )
        database = cls(schema, connection, path=path)
        database._create_tables()
        return database

    @classmethod
    def open(cls, path: str | Path, schema: Schema | None = None) -> "Database":
        """Open an existing SQLite file.

        When ``schema`` is omitted the logical schema is introspected from
        SQLite metadata (see :mod:`repro.db.introspect`).
        """
        connection = sqlite3.connect(str(path), check_same_thread=False)
        if schema is None:
            from repro.db.introspect import introspect_schema

            schema = introspect_schema(connection, name=Path(path).stem)
        return cls(schema, connection, path=path)

    # taint: trusted (DDL is built from the logical Schema's identifiers, each through quote_identifier, never from request input)
    def _create_tables(self) -> None:
        for table in self.schema.tables:
            column_defs = []
            for column in table.columns:
                parts = [quote_identifier(column.name), _SQL_TYPES[column.column_type]]
                column_defs.append(" ".join(parts))
            pk_columns = [c.name for c in table.columns if c.is_primary_key]
            if pk_columns:
                quoted = ", ".join(quote_identifier(name) for name in pk_columns)
                column_defs.append(f"PRIMARY KEY ({quoted})")
            for fk in self.schema.foreign_keys:
                if fk.source_table.lower() == table.name.lower():
                    column_defs.append(
                        f"FOREIGN KEY ({quote_identifier(fk.source_column)}) "
                        f"REFERENCES {quote_identifier(fk.target_table)} "
                        f"({quote_identifier(fk.target_column)})"
                    )
            ddl = (
                f"CREATE TABLE {quote_identifier(table.name)} "
                f"({', '.join(column_defs)})"
            )
            self._connection.execute(ddl)
        self._connection.commit()

    # ----------------------------------------------------- thread handling

    @property
    def path(self) -> str | None:
        """Filesystem path backing this database (``None`` = in-memory).

        File-backed databases can be independently re-opened (the KB
        refresher re-introspects schemas this way); in-memory ones only
        exist through this object's connections.
        """
        return self._path

    @property
    def connection(self) -> sqlite3.Connection:
        """The SQLite connection for the *current* thread.

        The thread that constructed the :class:`Database` gets the primary
        connection; every other thread gets a lazily created per-thread
        connection (see the module docstring for snapshot semantics).
        """
        if self._closed:
            raise ExecutionError("database is closed")
        if threading.get_ident() == self._owner_thread:
            return self._connection
        connection = getattr(self._thread_local, "connection", None)
        if connection is None:
            connection = self._open_thread_connection()
            self._thread_local.connection = connection
        return connection

    def _open_thread_connection(self) -> sqlite3.Connection:
        if self._path is not None:
            connection = sqlite3.connect(self._path, check_same_thread=False)
        else:
            connection = sqlite3.connect(":memory:", check_same_thread=False)
            # The backup API reads the primary connection; serialize against
            # other cloning threads (sqlite3.threadsafety handles concurrent
            # owner-thread queries).
            with self._clone_lock:
                self._connection.backup(connection)
        connection.execute("PRAGMA foreign_keys = ON")
        with self._clone_lock:
            self._clones.append(connection)
        return connection

    # ------------------------------------------------------------- loading

    # taint: trusted (statement text comes from schema metadata and `?` placeholders; row data is parameter-bound)
    def insert_rows(self, table_name: str, rows: Iterable[Sequence[object]]) -> int:
        """Bulk-insert rows (each aligned with the table's column order)."""
        table = self.schema.table(table_name)
        placeholders = ", ".join("?" for _ in table.columns)
        statement = (
            f"INSERT INTO {quote_identifier(table.name)} VALUES ({placeholders})"
        )
        rows = list(rows)
        connection = self.connection
        try:
            connection.executemany(statement, rows)
        except sqlite3.Error as exc:
            raise ExecutionError(
                f"failed to insert into {table_name!r}: {exc}"
            ) from exc
        connection.commit()
        return len(rows)

    # ------------------------------------------------------------ querying

    def execute(self, sql: str, *, max_rows: int | None = 100_000) -> list[tuple]:
        """Execute ``sql`` and return rows as tuples.

        Raises:
            ExecutionError: on any SQLite error (syntax, missing table, ...).
        """
        try:
            cursor = self.connection.execute(sql)
            if max_rows is None:
                return cursor.fetchall()
            rows = cursor.fetchmany(max_rows + 1)
            if len(rows) > max_rows:
                raise ExecutionError(
                    f"query returned more than {max_rows} rows; likely a "
                    f"cross join from a missing ON clause: {sql!r}"
                )
            return rows
        except sqlite3.Error as exc:
            raise ExecutionError(f"query failed: {exc} -- {sql!r}") from exc

    # taint: trusted (SQL is assembled from Column metadata through quote_identifier; the only caller-controlled value is int-coerced)
    def column_values(self, column: Column, *, limit: int | None = None) -> list[object]:
        """All non-NULL values of a column (optionally limited)."""
        if column.is_star():
            raise SchemaError("cannot enumerate values of the '*' column")
        name = quote_identifier(column.name)
        sql = (
            f"SELECT {name} FROM {quote_identifier(column.table)} "
            f"WHERE {name} IS NOT NULL"
        )
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [row[0] for row in self.execute(sql, max_rows=None)]

    def contains_value(self, column: Column, value: object) -> bool:
        """Whether a column contains ``value`` (exact match, case-insensitive
        for strings, following how Spider's gold values behave in SQLite)."""
        if column.is_star():
            return False
        name, table = quote_identifier(column.name), quote_identifier(column.table)
        if isinstance(value, str):
            sql = (
                f"SELECT 1 FROM {table} "
                f"WHERE LOWER(CAST({name} AS TEXT)) = LOWER(?) LIMIT 1"
            )
        else:
            sql = f"SELECT 1 FROM {table} WHERE {name} = ? LIMIT 1"
        try:
            cursor = self.connection.execute(sql, (value,))
            return cursor.fetchone() is not None
        except sqlite3.Error as exc:
            raise ExecutionError(f"value lookup failed: {exc}") from exc

    def row_count(self, table_name: str) -> int:
        table = self.schema.table(table_name)
        sql = f"SELECT COUNT(*) FROM {quote_identifier(table.name)}"
        return self.execute(sql)[0][0]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._clone_lock:
            clones, self._clones = self._clones, []
        for connection in clones:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
        self._connection.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
