"""SQL AST, renderer, lexer and parser for the Spider SQL subset."""

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
    iter_conditions,
    iter_literals,
)
from repro.sql.parser import parse_sql
from repro.sql.render import SqlRenderer, quote_string, render_literal, render_sql
from repro.sql.lexer import LexedSql, SqlToken, TokenType, lex_sql, tokenize_sql

__all__ = [
    "AggregateFunction",
    "BooleanExpr",
    "ColumnRef",
    "Condition",
    "ConditionExpr",
    "LexedSql",
    "Literal",
    "Operator",
    "OrderBy",
    "OrderDirection",
    "Query",
    "SelectItem",
    "SelectQuery",
    "SetOperator",
    "SqlRenderer",
    "SqlToken",
    "TokenType",
    "iter_conditions",
    "iter_literals",
    "lex_sql",
    "parse_sql",
    "quote_string",
    "render_literal",
    "render_sql",
    "tokenize_sql",
]
