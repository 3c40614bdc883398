"""Render the SQL AST into the SQLite SQL the system checks and runs.

The renderer performs the deterministic post-processing the paper describes
in Section III-C: it infers the full JOIN path over the PK/FK schema graph
(including bridge tables that the model never predicted) and emits complete
``ON`` clauses, because under Execution Accuracy a bare ``A JOIN B`` is a
cross join and the query result would be wrong.

Tables receive aliases ``T1 .. Tn`` (matching the Spider gold-query style)
whenever more than one table participates in a FROM clause.

Identifiers stay bare unless they are not a safe word; string literals
double embedded ``'``, and a value holding NUL (which a SQLite string
literal cannot express) is cast from its UTF-8 hex blob.  The output is
locked byte for byte against goldens captured from the earlier renderer.
"""

from __future__ import annotations

import re

from repro.errors import TranslationError
from repro.schema.graph import SchemaGraph
from repro.schema.joins import plan_joins
from repro.sql.ast import (
    AggregateFunction,
    BooleanExpr,
    ColumnRef,
    Condition,
    ConditionExpr,
    Literal,
    OrderBy,
    Query,
    SelectItem,
    SelectQuery,
)

#: An identifier that may be emitted without quoting.
_SAFE_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _quote_identifier(name: str) -> str:
    """``name`` bare when it is a safe word, else double-quoted."""
    if _SAFE_IDENTIFIER_RE.match(name):
        return name
    return '"' + name.replace('"', '""') + '"'


def quote_string(value: str) -> str:
    """Quote ``value`` as a SQLite string literal."""
    if "\x00" in value:
        # A string literal cannot express NUL, but a TEXT value can
        # hold one: cast the UTF-8 bytes through a hex blob.
        return f"CAST(X'{value.encode('utf-8').hex()}' AS TEXT)"
    return "'" + value.replace("'", "''") + "'"


def render_literal(literal: Literal) -> str:
    """Render a literal: numbers bare, strings quoted."""
    value = literal.value
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if value is None:
        return "NULL"
    if literal.is_number():
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return str(value)
    return quote_string(str(value))


def render_sql(query: Query, graph: SchemaGraph) -> str:
    """Render ``query`` against ``graph``."""
    return SqlRenderer(graph).render(query)


class SqlRenderer:
    """Stateless renderer bound to one schema graph."""

    def __init__(self, graph: SchemaGraph):
        self._graph = graph

    # ------------------------------------------------------------- public

    def render(self, query: Query) -> str:
        """Render a (possibly compound) query to a SQL string."""
        sql = self._render_select_query(query.body)
        if query.set_operator is not None and query.compound is not None:
            sql = f"{sql} {query.set_operator.value.upper()} {self.render(query.compound)}"
        return sql

    # ------------------------------------------------------------ helpers

    def _render_select_query(self, query: SelectQuery) -> str:
        if not query.tables:
            raise TranslationError("query has no FROM tables")

        plan = plan_joins(self._graph, query.tables)
        aliases = self._build_aliases(plan.tables)

        parts = [self._render_select_clause(query, aliases)]
        parts.append(self._render_from_clause(plan, aliases))
        if query.where is not None:
            parts.append("WHERE " + self._render_condition(query.where, aliases))
        if query.group_by:
            rendered = ", ".join(self._render_column(c, aliases) for c in query.group_by)
            parts.append("GROUP BY " + rendered)
        if query.having is not None:
            parts.append("HAVING " + self._render_condition(query.having, aliases))
        if query.order_by is not None:
            parts.append(self._render_order_by(query.order_by, aliases))
        if query.limit is not None:
            parts.append(f"LIMIT {int(query.limit)}")
        return " ".join(parts)

    @staticmethod
    def _build_aliases(tables: tuple[str, ...]) -> dict[str, str]:
        """Map lower-cased table name -> alias (or the bare name if single)."""
        if len(tables) == 1:
            return {tables[0].lower(): tables[0]}
        return {
            table.lower(): f"T{i + 1}" for i, table in enumerate(tables)
        }

    def _render_select_clause(self, query: SelectQuery, aliases: dict[str, str]) -> str:
        items = ", ".join(self._render_select_item(item, aliases) for item in query.select)
        distinct = "DISTINCT " if query.distinct else ""
        return f"SELECT {distinct}{items}"

    def _render_select_item(self, item: SelectItem, aliases: dict[str, str]) -> str:
        if item.column.is_star() and item.aggregate is not AggregateFunction.NONE:
            # SQLite rejects COUNT(T1.*); a qualified star inside an
            # aggregate renders as the bare star (the qualifying table still
            # participates in the FROM clause via the join plan).
            column = "*"
        else:
            column = self._render_column(item.column, aliases)
        if item.aggregate is AggregateFunction.NONE:
            return column
        inner = f"DISTINCT {column}" if item.distinct else column
        return f"{item.aggregate.value.upper()}({inner})"

    def _render_column(self, column: ColumnRef, aliases: dict[str, str]) -> str:
        if column.is_star() and column.table is None:
            return "*"
        if column.table is None:
            return _quote_identifier(column.column)
        alias = aliases.get(column.table.lower())
        if alias is None:
            # Column references a table outside the FROM clause; render it
            # qualified with the raw table name so the error is visible in
            # the SQL instead of silently mis-binding.
            alias = column.table
        return f"{_quote_identifier(alias)}.{_quote_identifier(column.column)}"

    def _render_from_clause(self, plan, aliases: dict[str, str]) -> str:
        quote = _quote_identifier
        first = plan.tables[0]
        if len(plan.tables) == 1:
            return f"FROM {quote(first)}"
        rendered = [f"FROM {quote(first)} AS {quote(aliases[first.lower()])}"]
        for table, edge in zip(plan.tables[1:], plan.edges):
            left_alias = quote(aliases[edge.left_table.lower()])
            right_alias = quote(aliases[edge.right_table.lower()])
            condition = edge.condition(left_alias, right_alias)
            rendered.append(
                f"JOIN {quote(table)} AS {quote(aliases[table.lower()])} ON {condition}"
            )
        return " ".join(rendered)

    def _render_condition(self, expr: ConditionExpr, aliases: dict[str, str]) -> str:
        if isinstance(expr, BooleanExpr):
            rendered = [self._render_operand(op, aliases) for op in expr.operands]
            return f" {expr.connector.upper()} ".join(rendered)
        return self._render_leaf(expr, aliases)

    def _render_operand(self, expr: ConditionExpr, aliases: dict[str, str]) -> str:
        rendered = self._render_condition(expr, aliases)
        if isinstance(expr, BooleanExpr):
            return f"({rendered})"
        return rendered

    def _render_leaf(self, condition: Condition, aliases: dict[str, str]) -> str:
        column = self._render_column(condition.column, aliases)
        if condition.aggregate is not AggregateFunction.NONE:
            column = f"{condition.aggregate.value.upper()}({column})"
        operator = condition.operator.value.upper()

        rhs = condition.rhs
        if isinstance(rhs, tuple):
            low, high = rhs
            return f"{column} BETWEEN {render_literal(low)} AND {render_literal(high)}"
        if isinstance(rhs, Query):
            return f"{column} {operator} ({self.render(rhs)})"
        return f"{column} {operator} {render_literal(rhs)}"

    def _render_order_by(self, order_by: OrderBy, aliases: dict[str, str]) -> str:
        items = ", ".join(
            self._render_select_item(item, aliases) for item in order_by.items
        )
        return f"ORDER BY {items} {order_by.direction.value.upper()}"
