"""Dynamic Q->SQL corpus growth from the live schema.

ValueNet's premise is *learning from database information*; this module
closes the loop from "the schema changed" to "new training/eval examples
exist".  Given a (freshly introspected) database it derives question/SQL
pairs per table and column — row counts, DISTINCT projections, GROUP BY
counts, numeric aggregations, top-k rankings, and value filters seeded
from sampled base data.

Two properties distinguish it from string-template generators (compare
SNIPPETS.md snippet 1):

* every SQL string is **rendered through the repro.sql AST** — patterns
  build :class:`~repro.sql.ast.SelectQuery` trees and render them with
  :func:`~repro.sql.render.render_sql` against the schema graph, so
  quoting, aliasing and the SQLite forms are the system's own, and every
  generated pair is parseable by the same subset grammar the model
  emits;
* every example is **validated before it is emitted** — through the
  policy engine (when one is configured) and the budgeted executor, so
  an example that would be blocked or fails to execute never enters the
  corpus.

:class:`CorpusWriter` appends examples incrementally to a JSONL file
with cross-run dedup by ``(database_id, sql)``; the background refresher
regenerates every table on each swap and the dedup keeps only the
examples that are new, so a schema change yields exactly the new
examples it enables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.concurrency import make_lock
from repro.db.database import Database
from repro.db.executor import execute_with_budget
from repro.schema.graph import SchemaGraph
from repro.schema.model import Column, ColumnType, Table
from repro.sql.ast import (
    AggregateFunction,
    ColumnRef,
    Condition,
    Literal,
    Operator,
    OrderBy,
    OrderDirection,
    Query,
    SelectItem,
    SelectQuery,
)
from repro.sql.render import render_sql

# Sampled literal values per column used to seed value-filter examples.
DEFAULT_VALUE_EXAMPLES = 3
# Wall-clock budget / row cap for validating one generated example.
VALIDATION_TIMEOUT_S = 5.0
VALIDATION_MAX_ROWS = 10_000


@dataclass(frozen=True)
class CorpusExample:
    """One generated question/SQL pair, tagged with its provenance."""

    question: str
    sql: str
    database_id: str
    table: str
    column: str | None
    kind: str  # row-count | distinct | distinct-count | group-count |
    #            sum | avg | top-k | value-filter
    validated: bool = False

    def as_dict(self) -> dict:
        return {
            "question": self.question,
            "sql": self.sql,
            "database_id": self.database_id,
            "table": self.table,
            "column": self.column,
            "kind": self.kind,
            "validated": self.validated,
        }


def _phrase(column: Column) -> str:
    """The natural-language surface form of a column for questions."""
    name = column.natural_name or column.name
    return name.replace("_", " ").strip() or column.name


def _table_phrase(table: Table) -> str:
    return table.name.replace("_", " ").strip() or table.name


def _single(
    table: str,
    items: list[SelectItem],
    *,
    distinct=False,
    where=None,
    group_by=None,
    order_by=None,
    limit=None,
) -> Query:
    return Query(
        body=SelectQuery(
            select=items,
            tables=[table],
            distinct=distinct,
            where=where,
            group_by=list(group_by or []),
            order_by=order_by,
            limit=limit,
        )
    )


def _column_patterns(table: Table, column: Column) -> list[tuple[str, str, Query]]:
    """(kind, question, AST) patterns for one column."""
    t, c = table.name, column.name
    tp, cp = _table_phrase(table), _phrase(column)
    ref = ColumnRef(t, c)
    patterns: list[tuple[str, str, Query]] = [
        (
            "distinct",
            f"what are the different {cp} values in {tp}?",
            # Query-level DISTINCT: SelectItem.distinct only renders
            # inside an aggregate (COUNT(DISTINCT ...)).
            _single(t, [SelectItem(ref)], distinct=True),
        ),
        (
            "distinct-count",
            f"how many distinct {cp} are there in {tp}?",
            _single(
                t,
                [SelectItem(ref, AggregateFunction.COUNT, distinct=True)],
            ),
        ),
        (
            "group-count",
            f"how many rows are there for each {cp} in {tp}?",
            _single(
                t,
                [SelectItem(ref), SelectItem(ColumnRef(None, "*"),
                                             AggregateFunction.COUNT)],
                group_by=[ref],
            ),
        ),
    ]
    if column.column_type is ColumnType.NUMBER:
        patterns.append(
            (
                "sum",
                f"what is the total {cp} in {tp}?",
                _single(t, [SelectItem(ref, AggregateFunction.SUM)]),
            )
        )
        patterns.append(
            (
                "avg",
                f"what is the average {cp} in {tp}?",
                _single(t, [SelectItem(ref, AggregateFunction.AVG)]),
            )
        )
        group_columns = [
            other
            for other in table.columns
            if other.name != c and other.column_type is ColumnType.TEXT
        ]
        if group_columns:
            other = group_columns[0]
            patterns.append(
                (
                    "top-k",
                    f"which {_phrase(other)} have the top 10 total {cp} "
                    f"in {tp}?",
                    _single(
                        t,
                        [
                            SelectItem(ColumnRef(t, other.name)),
                            SelectItem(ref, AggregateFunction.SUM),
                        ],
                        group_by=[ColumnRef(t, other.name)],
                        order_by=OrderBy(
                            (SelectItem(ref, AggregateFunction.SUM),),
                            OrderDirection.DESC,
                        ),
                        limit=10,
                    ),
                )
            )
    return patterns


def _value_patterns(
    database: Database,
    table: Table,
    column: Column,
    *,
    max_value_examples: int,
) -> list[tuple[str, str, Query]]:
    """Value-filter patterns seeded from sampled base data."""
    if column.column_type is not ColumnType.TEXT or max_value_examples <= 0:
        return []
    t, c = table.name, column.name
    patterns: list[tuple[str, str, Query]] = []
    seen: set[str] = set()
    for value in database.column_values(column, limit=64):
        if len(patterns) >= max_value_examples:
            break
        text = str(value).strip()
        lowered = text.lower()
        if not (2 <= len(text) <= 40) or lowered in seen:
            continue
        seen.add(lowered)
        patterns.append(
            (
                "value-filter",
                f"show the rows of {_table_phrase(table)} whose "
                f"{_phrase(column)} is {text}",
                _single(
                    t,
                    [SelectItem(ColumnRef(None, "*"))],
                    where=Condition(ColumnRef(t, c), Operator.EQ,
                                    Literal(text)),
                ),
            )
        )
    return patterns


def generate_examples(
    database: Database,
    *,
    database_id: str | None = None,
    tables: list[str] | None = None,
    policy=None,
    validate: bool = True,
    max_value_examples: int = DEFAULT_VALUE_EXAMPLES,
) -> list[CorpusExample]:
    """Derive Q->SQL examples from ``database``'s live schema and data.

    Args:
        database: the database to derive from.  Pass a *freshly opened*
            :class:`Database` after DDL so the introspected schema
            includes new tables/columns.
        database_id: external id stamped on examples (defaults to the
            schema name).
        tables: restrict generation to these table names (``repro
            corpus generate --tables``); ``None`` generates for every
            table.
        policy: optional :class:`~repro.policy.engine.PolicyEngine`;
            examples its rules block are dropped.
        validate: execute every candidate under the budgeted executor
            and drop the ones that fail.  Emitted examples carry
            ``validated=True`` only when this ran.
        max_value_examples: value-filter examples per text column.
    """
    db_id = database_id or database.schema.name
    graph = SchemaGraph(database.schema)
    wanted = None if tables is None else {name.lower() for name in tables}
    examples: list[CorpusExample] = []
    for table in database.schema.tables:
        if wanted is not None and table.name.lower() not in wanted:
            continue
        patterns: list[tuple[str, str, Query, str | None]] = [
            (
                "row-count",
                f"how many rows are in {_table_phrase(table)}?",
                _single(
                    table.name,
                    [SelectItem(ColumnRef(None, "*"), AggregateFunction.COUNT)],
                ),
                None,
            )
        ]
        for column in table.columns:
            for kind, question, query in _column_patterns(table, column):
                patterns.append((kind, question, query, column.name))
            for kind, question, query in _value_patterns(
                database, table, column, max_value_examples=max_value_examples
            ):
                patterns.append((kind, question, query, column.name))
        for kind, question, query, column_name in patterns:
            sql = render_sql(query, graph)
            if not _admissible(database, db_id, sql, policy, graph, validate):
                continue
            examples.append(
                CorpusExample(
                    question=question,
                    sql=sql,
                    database_id=db_id,
                    table=table.name,
                    column=column_name,
                    kind=kind,
                    validated=validate,
                )
            )
    return examples


def _admissible(
    database: Database,
    db_id: str,
    sql: str,
    policy,
    graph: SchemaGraph,
    validate: bool,
) -> bool:
    """Policy + execution gate for one candidate example."""
    if policy is not None:
        try:
            policy.check_sql(
                sql, database_id=db_id, schema=database.schema, graph=graph
            )
        except Exception:  # justified: blocked/unparseable examples are dropped, not emitted
            return False
    if validate:
        try:
            execute_with_budget(
                database,
                sql,
                timeout_s=VALIDATION_TIMEOUT_S,
                max_rows=VALIDATION_MAX_ROWS,
            )
        except Exception:  # justified: an example that cannot execute must not enter the corpus
            return False
    return True


class CorpusWriter:
    """Incremental JSONL corpus sink with cross-run dedup.

    Examples are appended one JSON object per line; the writer loads the
    existing file's ``(database_id, sql)`` keys at construction so
    repeated polls (or restarts) never duplicate an example.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = make_lock("CorpusWriter._lock")
        self._seen: set[tuple[str, str]] = set()  # guarded by: _lock
        self.written = 0  # guarded by: _lock
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # a torn tail line never poisons dedup
                    self._seen.add(
                        (payload.get("database_id", ""), payload.get("sql", ""))
                    )

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)

    def append(self, examples: list[CorpusExample]) -> int:
        """Append the not-yet-seen examples; returns how many were new."""
        with self._lock:
            fresh = [
                example
                for example in examples
                if (example.database_id, example.sql) not in self._seen
            ]
            if not fresh:
                return 0
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                for example in fresh:
                    handle.write(json.dumps(example.as_dict()) + "\n")
                    self._seen.add((example.database_id, example.sql))
            self.written += len(fresh)
            return len(fresh)
