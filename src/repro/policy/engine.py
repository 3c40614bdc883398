"""Policy engine: the validator between SQL synthesis and execution.

The engine sits at the trust boundary — model-synthesized SQL is untrusted
input to the user's database.  ``check_sql`` resolves the effective
:class:`~repro.policy.config.PolicyConfig` for the (database, tenant)
pair, runs every registered rule and raises
:class:`PolicyViolationError` carrying the structured violations when any
fire.  Raw rules always run; AST rules run whenever the statement parses
in our Spider subset (a statement that does *not* parse is already blocked
by ``read-only`` unless it is a SELECT shape we simply cannot analyze,
in which case raw defenses still hold).

Blocked queries increment the tenant-labeled ``policy_blocked_total``
counter so noisy or hostile tenants are visible on /metrics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ReproError, SqlParseError
from repro.schema.graph import SchemaGraph
from repro.sql.lexer import lex_sql
from repro.sql.parser import parse_sql

from repro.policy.config import PolicyConfigStore
from repro.policy.rules import PolicyContext, PolicyViolation, all_rules

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schema.model import Schema
    from repro.metrics import MetricsRegistry

#: Metric label used when a request carries no tenant identity.
ANONYMOUS_TENANT = "anonymous"


class PolicyViolationError(ReproError):
    """One or more policy rules rejected a query.

    Attributes:
        violations: structured violations, first rule to fire first.
        rule_id: the first violation's rule id (the machine-readable
            summary surfaced in HTTP error bodies).
    """

    def __init__(self, violations: list[PolicyViolation]):
        if not violations:
            raise ValueError("PolicyViolationError requires at least one violation")
        self.violations = list(violations)
        self.rule_id = self.violations[0].rule_id
        summary = "; ".join(v.message for v in self.violations)
        super().__init__(f"policy blocked query [{self.rule_id}]: {summary}")

    def as_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "violations": [v.as_dict() for v in self.violations],
        }


class PolicyEngine:
    """Evaluates the rule registry against SQL bound for execution."""

    def __init__(
        self,
        store: PolicyConfigStore | None = None,
        *,
        metrics: "MetricsRegistry | None" = None,
    ):
        self._store = store if store is not None else PolicyConfigStore()
        self._rules = all_rules()
        self._blocked = None
        if metrics is not None:
            self.bind_metrics(metrics)

    @property
    def store(self) -> PolicyConfigStore:
        return self._store

    def bind_metrics(self, metrics: "MetricsRegistry") -> None:
        """Attach the tenant-labeled blocked counter to ``metrics``."""
        self._blocked = metrics.labeled_counter(
            "policy_blocked_total",
            "Queries blocked by the SQL policy engine.",
            label="tenant",
        )

    # ------------------------------------------------------------ checking

    def evaluate(
        self,
        sql: str,
        *,
        database_id: str | None = None,
        tenant_id: str | None = None,
        schema: "Schema | None" = None,
        graph: SchemaGraph | None = None,
    ) -> list[PolicyViolation]:
        """Run every enabled rule; return the violations (no metrics).

        ``sql`` is lexed once: the raw rules read its masked view and the
        parser reads its tokens.  With a ``schema`` and no ``graph``, the
        schema's join graph is built here.
        """
        config = self._store.resolve(database_id, tenant_id)
        lexed = lex_sql(sql)
        query = None
        if schema is not None:
            if graph is None:
                graph = SchemaGraph(schema)
            try:
                query = parse_sql(lexed, schema)
            except SqlParseError:
                # Raw rules still run; an unparseable statement that is
                # not a SELECT is blocked by read-only regardless.
                query = None
        ctx = PolicyContext(
            lexed=lexed,
            config=config,
            query=query,
            graph=graph,
            database_id=database_id,
            tenant_id=tenant_id,
        )
        violations: list[PolicyViolation] = []
        for rule in self._rules:
            if config.rule_disabled(rule.rule_id):
                continue
            if rule.requires_ast and query is None:
                continue
            violations.extend(rule.check(ctx))
        return violations

    # taint: sanitizer via raise (rejects disallowed SQL by raising PolicyViolationError; nothing flows past a failure)
    def check_sql(
        self,
        sql: str,
        *,
        database_id: str | None = None,
        tenant_id: str | None = None,
        schema: "Schema | None" = None,
        graph: SchemaGraph | None = None,
    ) -> None:
        """Raise :class:`PolicyViolationError` if any rule fires."""
        violations = self.evaluate(
            sql,
            database_id=database_id,
            tenant_id=tenant_id,
            schema=schema,
            graph=graph,
        )
        if violations:
            if self._blocked is not None:
                self._blocked.labels(tenant_id or ANONYMOUS_TENANT).inc()
            raise PolicyViolationError(violations)
