"""Policy rules: one class per named check, mirroring ``repro.analysis.rules``.

Two families share one interface:

* **raw rules** read the masked view of :mod:`repro.sql.lexer` (quoted
  contents blanked, SQLite's quoting and comment rules), so they still
  fire when the string does not parse in our Spider subset — the whole
  point of ``blocked-keyword`` is to reject statements the parser would
  refuse anyway;
* **AST rules** inspect the parsed :class:`repro.sql.ast.Query` (and the
  schema graph) and are skipped when no parse is available.

Every violation carries the machine-readable ``rule_id`` that the serving
layer surfaces in its structured 4xx body.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.errors import TranslationError
from repro.schema.graph import SchemaGraph
from repro.schema.joins import plan_joins
from repro.sql.ast import (
    AggregateFunction,
    Query,
    SelectQuery,
    iter_conditions,
)
from repro.sql.lexer import LexedSql

from repro.policy.config import PolicyConfig


@dataclass(frozen=True)
class PolicyViolation:
    """One structured rule violation."""

    rule_id: str
    message: str
    detail: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"rule_id": self.rule_id, "message": self.message}
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload


@dataclass(frozen=True)
class PolicyContext:
    """Everything a rule may look at for one query."""

    #: The statement, lexed once; the parser read the same tokens.
    lexed: LexedSql
    config: PolicyConfig
    query: Query | None = None
    graph: SchemaGraph | None = None
    database_id: str | None = None
    tenant_id: str | None = None


# A word of the masked view: keywords are matched whole.
_WORD_RE = re.compile(r"\w+")
_FIRST_WORD_RE = re.compile(r"\s*(\w*)")


def _iter_select_bodies(query: Query) -> Iterator[SelectQuery]:
    """Every SELECT body: compound branches and condition subqueries."""
    for body in query.all_select_queries():
        yield body
        for expr in (body.where, body.having):
            for condition in iter_conditions(expr):
                if isinstance(condition.rhs, Query):
                    yield from _iter_select_bodies(condition.rhs)


def subquery_depth(query: Query) -> int:
    """Maximum subquery nesting depth (top level = 0)."""
    deepest = 0
    for body in query.all_select_queries():
        for expr in (body.where, body.having):
            for condition in iter_conditions(expr):
                if isinstance(condition.rhs, Query):
                    deepest = max(deepest, 1 + subquery_depth(condition.rhs))
    return deepest


class PolicyRule:
    """Base class; subclasses set ``rule_id``/``description`` and ``check``."""

    rule_id = "policy-rule"
    description = ""
    #: AST rules need a parsed query (and are skipped without one).
    requires_ast = False

    def check(self, ctx: PolicyContext) -> Iterable[PolicyViolation]:
        raise NotImplementedError

    def _violation(self, message: str, **detail: Any) -> PolicyViolation:
        return PolicyViolation(self.rule_id, message, dict(detail))


class MultiStatementRule(PolicyRule):
    """A request must contain exactly one SQL statement."""

    rule_id = "multi-statement"
    description = "Reject SQL containing more than one statement."

    def check(self, ctx: PolicyContext) -> Iterable[PolicyViolation]:
        offset = ctx.lexed.separator()
        if offset is not None:
            yield self._violation("SQL contains multiple statements", offset=offset)


class BlockedKeywordRule(PolicyRule):
    """No DDL/DML/admin keyword may appear outside string literals."""

    rule_id = "blocked-keyword"
    description = "Reject SQL containing DDL/DML/admin keywords (DROP, PRAGMA, ...)."

    def check(self, ctx: PolicyContext) -> Iterable[PolicyViolation]:
        blocked = set(ctx.config.blocked_keywords)
        if not blocked:
            return
        seen: set[str] = set()
        for word in _WORD_RE.findall(ctx.lexed.masked):
            token = word.lower()
            if token in blocked and token not in seen:
                seen.add(token)
                yield self._violation(
                    f"blocked keyword {token.upper()!r}", keyword=token.upper()
                )


class ReadOnlyRule(PolicyRule):
    """Only SELECT statements may execute."""

    rule_id = "read-only"
    description = "Reject any statement that is not a SELECT."

    def check(self, ctx: PolicyContext) -> Iterable[PolicyViolation]:
        if not ctx.config.read_only:
            return
        masked = ctx.lexed.masked
        first = _FIRST_WORD_RE.match(masked).group(1)
        if first.lower() != "select":
            yield self._violation(
                "only SELECT statements are allowed",
                statement=first.upper() or masked.strip()[:20],
            )


class JoinSanityRule(PolicyRule):
    """Every joined table must be reachable over the PK/FK graph."""

    rule_id = "join-sanity"
    description = "Reject joins whose tables are not connected by a FK path (cross joins)."
    requires_ast = True

    def check(self, ctx: PolicyContext) -> Iterable[PolicyViolation]:
        if ctx.query is None or ctx.graph is None:
            return
        for body in _iter_select_bodies(ctx.query):
            if len(set(t.lower() for t in body.tables)) < 2:
                continue
            try:
                plan_joins(ctx.graph, body.tables)
            except TranslationError as exc:
                yield self._violation(
                    f"join is not FK-connected: {exc}", tables=list(body.tables)
                )
                return


class LimitRequiredRule(PolicyRule):
    """Non-aggregate queries must be row-bounded by an explicit LIMIT."""

    rule_id = "limit-required"
    description = "Require LIMIT <= threshold on queries that can return unbounded rows."
    requires_ast = True

    def check(self, ctx: PolicyContext) -> Iterable[PolicyViolation]:
        threshold = ctx.config.require_limit
        if threshold is None or ctx.query is None:
            return
        for body in ctx.query.all_select_queries():
            if self._aggregate_only(body):
                continue
            if body.limit is None:
                yield self._violation(
                    f"query must carry LIMIT <= {threshold}", threshold=threshold
                )
                return
            if body.limit > threshold:
                yield self._violation(
                    f"LIMIT {body.limit} exceeds the allowed maximum {threshold}",
                    threshold=threshold,
                    limit=body.limit,
                )
                return

    @staticmethod
    def _aggregate_only(body: SelectQuery) -> bool:
        """Aggregates without GROUP BY return exactly one row."""
        if body.group_by:
            return False
        return all(
            item.aggregate is not AggregateFunction.NONE for item in body.select
        )


class SubqueryDepthRule(PolicyRule):
    """Bound subquery nesting depth (cost policy)."""

    rule_id = "subquery-depth"
    description = "Bound the maximum subquery nesting depth."
    requires_ast = True

    def check(self, ctx: PolicyContext) -> Iterable[PolicyViolation]:
        maximum = ctx.config.max_subquery_depth
        if maximum is None or ctx.query is None:
            return
        depth = subquery_depth(ctx.query)
        if depth > maximum:
            yield self._violation(
                f"subquery nesting depth {depth} exceeds the allowed maximum {maximum}",
                depth=depth,
                maximum=maximum,
            )


class MaxTablesRule(PolicyRule):
    """Bound the number of tables per SELECT (join fan-out cost policy)."""

    rule_id = "max-tables"
    description = "Bound the number of distinct tables joined in one SELECT."
    requires_ast = True

    def check(self, ctx: PolicyContext) -> Iterable[PolicyViolation]:
        maximum = ctx.config.max_tables
        if maximum is None or ctx.query is None:
            return
        for body in _iter_select_bodies(ctx.query):
            count = len(set(t.lower() for t in body.tables))
            if count > maximum:
                yield self._violation(
                    f"query joins {count} tables, more than the allowed {maximum}",
                    tables=count,
                    maximum=maximum,
                )
                return


_RULE_CLASSES: list[type[PolicyRule]] = [
    MultiStatementRule,
    BlockedKeywordRule,
    ReadOnlyRule,
    JoinSanityRule,
    LimitRequiredRule,
    SubqueryDepthRule,
    MaxTablesRule,
]


def all_rules() -> list[PolicyRule]:
    """Fresh rule instances for one engine."""
    return [cls() for cls in _RULE_CLASSES]


def rule_catalog() -> list[tuple[str, str]]:
    """(rule_id, description) pairs, registry order."""
    return [(cls.rule_id, cls.description) for cls in _RULE_CLASSES]
