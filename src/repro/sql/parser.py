"""Recursive-descent SQL parser for the Spider subset.

The parser resolves table aliases (``student AS T1``) back to physical
table names and binds unqualified column references against the schema, so
the resulting :class:`~repro.sql.ast.Query` contains only resolved
``table.column`` references.  JOIN ``ON`` conditions are parsed and then
*discarded*: the renderer re-derives them from the PK/FK schema graph,
which is exactly the deterministic post-processing ValueNet applies.

Grammar (informal)::

    query       := select_query (UNION|INTERSECT|EXCEPT query)?
    select_query:= SELECT [DISTINCT] select_item (, select_item)*
                   FROM table_ref (JOIN table_ref ON cond)*
                   [WHERE cond_expr] [GROUP BY col (, col)*]
                   [HAVING cond_expr] [ORDER BY item (, item)* [ASC|DESC]]
                   [LIMIT n]
    cond_expr   := cond ((AND|OR) cond)*
    cond        := [agg(] col [)] op rhs | col BETWEEN lit AND lit
    rhs         := literal | ( query )
"""

from __future__ import annotations

from repro.errors import SqlParseError
from repro.schema.model import Schema
from repro.sql.ast import (
    AggregateFunction,
    BooleanExpr,
    ColumnRef,
    Condition,
    ConditionExpr,
    Literal,
    Operator,
    OrderBy,
    OrderDirection,
    Query,
    SelectItem,
    SelectQuery,
    SetOperator,
)
from repro.sql.lexer import LexedSql, SqlToken, TokenType, lex_sql, tokenize_sql

_AGGREGATES = {"count", "sum", "avg", "min", "max"}
_SET_OPERATORS = {
    "union": SetOperator.UNION,
    "intersect": SetOperator.INTERSECT,
    "except": SetOperator.EXCEPT,
}


def parse_sql(sql: str | LexedSql, schema: Schema) -> Query:
    """Parse ``sql`` (or its lexing) against ``schema`` into a :class:`Query`."""
    lexed = sql if isinstance(sql, LexedSql) else lex_sql(sql)
    return _Parser(tokenize_sql(lexed), schema, lexed.sql).parse_query(top_level=True)


class _Parser:
    def __init__(self, tokens: tuple[SqlToken, ...], schema: Schema, sql: str):
        self._tokens = tokens
        self._schema = schema
        self._sql = sql
        self._position = 0

    # ----------------------------------------------------------- plumbing

    def _peek(self) -> SqlToken:
        return self._tokens[self._position]

    def _advance(self) -> SqlToken:
        token = self._tokens[self._position]
        self._position += 1
        return token

    def _expect_keyword(self, keyword: str) -> SqlToken:
        token = self._advance()
        if not token.is_keyword(keyword):
            raise SqlParseError(
                f"expected {keyword.upper()!r} at position {token.position} "
                f"in {self._sql!r}, got {token.value!r}"
            )
        return token

    def _expect_punct(self, punct: str) -> SqlToken:
        token = self._advance()
        if token.type is not TokenType.PUNCT or token.value != punct:
            raise SqlParseError(
                f"expected {punct!r} at position {token.position} "
                f"in {self._sql!r}, got {token.value!r}"
            )
        return token

    def _error(self, message: str) -> SqlParseError:
        token = self._peek()
        return SqlParseError(
            f"{message} at position {token.position} in {self._sql!r} "
            f"(next token: {token.value!r})"
        )

    # -------------------------------------------------------------- query

    def parse_query(self, *, top_level: bool = False) -> Query:
        body, aliases = self._parse_select_query()
        query = Query(body=body)
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in _SET_OPERATORS:
            self._advance()
            query = Query(
                body=body,
                set_operator=_SET_OPERATORS[token.value],
                compound=self.parse_query(),
            )
        if top_level:
            tail = self._peek()
            if tail.type is not TokenType.END:
                raise self._error("unexpected trailing tokens")
        return query

    def _parse_select_query(self) -> tuple[SelectQuery, dict[str, str]]:
        self._expect_keyword("select")
        distinct = False
        if self._peek().is_keyword("distinct"):
            self._advance()
            distinct = True

        # SELECT items are parsed with *unresolved* column references first;
        # we cannot bind them until the FROM clause told us the tables.
        raw_select = [self._parse_raw_select_item()]
        while self._is_punct(","):
            self._advance()
            raw_select.append(self._parse_raw_select_item())

        self._expect_keyword("from")
        tables, aliases = self._parse_from_clause()

        where = None
        if self._peek().is_keyword("where"):
            self._advance()
            where = self._parse_condition_expr(tables, aliases)

        group_by: list[ColumnRef] = []
        if self._peek().is_keyword("group"):
            self._advance()
            self._expect_keyword("by")
            group_by.append(self._resolve_raw_column(self._parse_raw_column(), tables, aliases))
            while self._is_punct(","):
                self._advance()
                group_by.append(
                    self._resolve_raw_column(self._parse_raw_column(), tables, aliases)
                )

        having = None
        if self._peek().is_keyword("having"):
            self._advance()
            having = self._parse_condition_expr(tables, aliases)

        order_by = None
        if self._peek().is_keyword("order"):
            self._advance()
            self._expect_keyword("by")
            items = [self._parse_raw_select_item()]
            while self._is_punct(","):
                self._advance()
                items.append(self._parse_raw_select_item())
            direction = OrderDirection.ASC
            if self._peek().is_keyword("asc", "desc"):
                direction = OrderDirection(self._advance().value)
            order_by = OrderBy(
                items=tuple(
                    self._resolve_raw_select_item(item, tables, aliases)
                    for item in items
                ),
                direction=direction,
            )

        limit = None
        if self._peek().is_keyword("limit"):
            self._advance()
            token = self._advance()
            if token.type is not TokenType.NUMBER:
                raise self._error("LIMIT expects a number")
            limit = int(token.value)

        select = [
            self._resolve_raw_select_item(item, tables, aliases)
            for item in raw_select
        ]
        return (
            SelectQuery(
                select=select,
                tables=tables,
                distinct=distinct,
                where=where,
                group_by=group_by,
                having=having,
                order_by=order_by,
                limit=limit,
            ),
            aliases,
        )

    # --------------------------------------------------------------- FROM

    def _parse_from_clause(self) -> tuple[list[str], dict[str, str]]:
        tables: list[str] = []
        aliases: dict[str, str] = {}

        def parse_table_ref() -> None:
            token = self._advance()
            if token.type is not TokenType.IDENTIFIER:
                raise self._error("expected table name in FROM")
            if not self._schema.has_table(token.value):
                raise SqlParseError(
                    f"unknown table {token.value!r} in schema {self._schema.name!r}"
                )
            table_name = self._schema.table(token.value).name
            tables.append(table_name)
            aliases[table_name.lower()] = table_name
            if self._peek().is_keyword("as"):
                self._advance()
                alias = self._advance()
                if alias.type is not TokenType.IDENTIFIER:
                    raise self._error("expected alias after AS")
                aliases[alias.value.lower()] = table_name

        parse_table_ref()
        while True:
            token = self._peek()
            if token.is_keyword("inner", "left"):
                self._advance()
                self._expect_keyword("join")
            elif token.is_keyword("join"):
                self._advance()
            else:
                break
            parse_table_ref()
            if self._peek().is_keyword("on"):
                self._advance()
                # Parse and discard the ON condition chain; the renderer
                # re-derives join conditions from the schema graph.
                self._parse_raw_column()
                operator = self._advance()
                if operator.type is not TokenType.OPERATOR:
                    raise self._error("expected comparison in ON clause")
                self._parse_raw_column()
                while self._peek().is_keyword("and"):
                    self._advance()
                    self._parse_raw_column()
                    operator = self._advance()
                    if operator.type is not TokenType.OPERATOR:
                        raise self._error("expected comparison in ON clause")
                    self._parse_raw_column()
        return tables, aliases

    # ------------------------------------------------------------ columns

    def _parse_raw_column(self) -> tuple[str | None, str]:
        """Parse ``[qualifier.]column`` or ``*``; returns (qualifier, name)."""
        token = self._advance()
        if token.type is TokenType.PUNCT and token.value == "*":
            return None, "*"
        if token.type is not TokenType.IDENTIFIER:
            raise self._error("expected column reference")
        qualifier: str | None = None
        name = token.value
        if self._is_punct("."):
            self._advance()
            qualifier = name
            token = self._advance()
            if token.type is TokenType.PUNCT and token.value == "*":
                name = "*"
            elif token.type is TokenType.IDENTIFIER:
                name = token.value
            else:
                raise self._error("expected column name after '.'")
        return qualifier, name

    def _resolve_raw_column(
        self,
        raw: tuple[str | None, str],
        tables: list[str],
        aliases: dict[str, str],
    ) -> ColumnRef:
        qualifier, name = raw
        if qualifier is not None:
            table = aliases.get(qualifier.lower())
            if table is None:
                raise SqlParseError(
                    f"unknown table alias {qualifier!r} in {self._sql!r}"
                )
            if name == "*":
                return ColumnRef(table, "*")
            column = self._schema.table(table).column(name)
            return ColumnRef(table, column.name)
        if name == "*":
            return ColumnRef(None, "*")
        owners = [t for t in tables if self._schema.table(t).has_column(name)]
        if not owners:
            raise SqlParseError(
                f"column {name!r} not found in FROM tables {tables!r}"
            )
        # Ambiguous unqualified columns bind to the first FROM table, which
        # matches SQLite's behaviour for Spider-style gold queries.
        column = self._schema.table(owners[0]).column(name)
        return ColumnRef(owners[0], column.name)

    # ------------------------------------------------------- select items

    def _parse_raw_select_item(self):
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in _AGGREGATES:
            aggregate = AggregateFunction(self._advance().value)
            self._expect_punct("(")
            distinct = False
            if self._peek().is_keyword("distinct"):
                self._advance()
                distinct = True
            raw_column = self._parse_raw_column()
            self._expect_punct(")")
            return (aggregate, raw_column, distinct)
        return (AggregateFunction.NONE, self._parse_raw_column(), False)

    def _resolve_raw_select_item(self, raw, tables, aliases) -> SelectItem:
        aggregate, raw_column, distinct = raw
        return SelectItem(
            column=self._resolve_raw_column(raw_column, tables, aliases),
            aggregate=aggregate,
            distinct=distinct,
        )

    # ----------------------------------------------------- condition expr

    def _parse_condition_expr(
        self, tables: list[str], aliases: dict[str, str]
    ) -> ConditionExpr:
        operands: list[ConditionExpr] = [self._parse_condition(tables, aliases)]
        connectors: list[str] = []
        while self._peek().is_keyword("and", "or"):
            connectors.append(self._advance().value)
            operands.append(self._parse_condition(tables, aliases))
        if not connectors:
            return operands[0]
        if all(c == connectors[0] for c in connectors):
            return BooleanExpr(connectors[0], tuple(operands))
        # Mixed AND/OR without parentheses: SQL gives AND higher precedence.
        or_groups: list[ConditionExpr] = []
        current: list[ConditionExpr] = [operands[0]]
        for connector, operand in zip(connectors, operands[1:]):
            if connector == "and":
                current.append(operand)
            else:
                or_groups.append(
                    current[0] if len(current) == 1 else BooleanExpr("and", tuple(current))
                )
                current = [operand]
        or_groups.append(
            current[0] if len(current) == 1 else BooleanExpr("and", tuple(current))
        )
        return BooleanExpr("or", tuple(or_groups))

    def _parse_condition(
        self, tables: list[str], aliases: dict[str, str]
    ) -> Condition:
        aggregate = AggregateFunction.NONE
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in _AGGREGATES:
            aggregate = AggregateFunction(self._advance().value)
            self._expect_punct("(")
            raw_column = self._parse_raw_column()
            self._expect_punct(")")
        else:
            raw_column = self._parse_raw_column()
        column = self._resolve_raw_column(raw_column, tables, aliases)

        negated = False
        if self._peek().is_keyword("not"):
            self._advance()
            negated = True

        token = self._advance()
        if token.type is TokenType.OPERATOR:
            op = Operator(token.value)
            if negated:
                op = op.negated()
            rhs = self._parse_rhs()
            return Condition(column=column, operator=op, rhs=rhs, aggregate=aggregate)

        if token.is_keyword("like"):
            op = Operator.NOT_LIKE if negated else Operator.LIKE
            rhs = self._parse_rhs()
            return Condition(column=column, operator=op, rhs=rhs, aggregate=aggregate)
        if token.is_keyword("in"):
            op = Operator.NOT_IN if negated else Operator.IN
            rhs = self._parse_rhs()
            return Condition(column=column, operator=op, rhs=rhs, aggregate=aggregate)
        if token.is_keyword("between"):
            low = self._parse_literal()
            self._expect_keyword("and")
            high = self._parse_literal()
            return Condition(
                column=column,
                operator=Operator.BETWEEN,
                rhs=(low, high),
                aggregate=aggregate,
            )
        raise self._error("expected comparison operator")

    def _parse_rhs(self):
        if self._is_punct("("):
            self._advance()
            if self._peek().is_keyword("select"):
                query = self.parse_query()
                self._expect_punct(")")
                return query
            literal = self._parse_literal()
            self._expect_punct(")")
            return literal
        return self._parse_literal()

    def _parse_literal(self) -> Literal:
        token = self._advance()
        if token.type is TokenType.NUMBER:
            if "." in token.value:
                return Literal(float(token.value))
            return Literal(int(token.value))
        if token.type is TokenType.STRING:
            return Literal(token.value)
        raise self._error("expected a literal value")

    def _is_punct(self, punct: str) -> bool:
        token = self._peek()
        return token.type is TokenType.PUNCT and token.value == punct
