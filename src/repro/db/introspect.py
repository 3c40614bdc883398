"""Schema introspection from a live SQLite connection.

Lets the library attach to an arbitrary SQLite database (one of the
examples drives ValueNet against a user-provided file) by rebuilding the
logical :class:`~repro.schema.model.Schema` from SQLite's ``PRAGMA``
metadata.
"""

from __future__ import annotations

import sqlite3

from repro.db.database import quote_identifier
from repro.errors import SchemaError
from repro.schema.model import Column, ColumnType, ForeignKey, Schema, Table


# taint: trusted (PRAGMA targets are the file's own sqlite_master table names, escaped by quote_identifier: a hostile file may put a quote in one)
def introspect_schema(connection: sqlite3.Connection, *, name: str = "database") -> Schema:
    """Build a :class:`Schema` from SQLite metadata.

    Args:
        connection: an open SQLite connection.
        name: logical schema (``db_id``) name.

    Raises:
        SchemaError: when the database contains no user tables.
    """
    table_rows = connection.execute(
        "SELECT name FROM sqlite_master "
        "WHERE type = 'table' AND name NOT LIKE 'sqlite_%' ORDER BY name"
    ).fetchall()
    if not table_rows:
        raise SchemaError("database contains no tables")

    tables: list[Table] = []
    foreign_keys: list[ForeignKey] = []
    for (table_name,) in table_rows:
        quoted = quote_identifier(table_name)
        columns: list[Column] = []
        for row in connection.execute(f"PRAGMA table_info({quoted})"):
            _, column_name, sql_type, _notnull, _default, pk = row
            columns.append(
                Column(
                    name=column_name,
                    table=table_name,
                    column_type=ColumnType.from_sql_type(sql_type or "text"),
                    is_primary_key=bool(pk),
                )
            )
        tables.append(Table(name=table_name, columns=tuple(columns)))
        for row in connection.execute(f"PRAGMA foreign_key_list({quoted})"):
            _id, _seq, target_table, source_column, target_column = row[:5]
            if target_column is None:
                # SQLite omits the target column when it is the PK; resolve
                # it lazily after all tables are known.
                target_column = ""
            foreign_keys.append(
                ForeignKey(table_name, source_column, target_table, target_column)
            )

    # Resolve FKs whose target column was implicit (references the PK).
    by_name = {table.name.lower(): table for table in tables}
    resolved: list[ForeignKey] = []
    for fk in foreign_keys:
        target_column = fk.target_column
        if not target_column:
            target = by_name.get(fk.target_table.lower())
            if target is None:
                raise SchemaError(
                    f"foreign key references unknown table {fk.target_table!r}"
                )
            pk_columns = [c for c in target.columns if c.is_primary_key]
            if len(pk_columns) != 1:
                raise SchemaError(
                    f"cannot resolve implicit FK target column on "
                    f"{fk.target_table!r} (primary key is not a single column)"
                )
            target_column = pk_columns[0].name
        resolved.append(
            ForeignKey(fk.source_table, fk.source_column, fk.target_table, target_column)
        )

    return Schema(name=name, tables=tables, foreign_keys=resolved)
