"""SQL AST, renderer, tokenizer and parser for the Spider SQL subset."""

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
from repro.sql.tokenizer import SqlToken, TokenType, tokenize_sql

__all__ = [
    "AggregateFunction",
    "BooleanExpr",
    "ColumnRef",
    "Condition",
    "ConditionExpr",
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
    "parse_sql",
    "quote_string",
    "render_literal",
    "render_sql",
    "tokenize_sql",
]
