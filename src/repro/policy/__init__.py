"""SQL policy engine.

An AST-level validator that runs between synthesis and execution: a rule
registry (blocked keywords, multi-statement, read-only enforcement, join
sanity, LIMIT and subquery-depth cost policies) with per-database and
per-tenant config overrides.  Serving consults it through one gate,
:class:`repro.serving.runtime.DatabaseRuntime`.  See ``docs/policy.md``
for the gate, the rule catalog and the config format.
"""

from repro.policy.config import (
    DEFAULT_BLOCKED_KEYWORDS,
    PolicyConfig,
    PolicyConfigError,
    PolicyConfigStore,
)
from repro.policy.engine import ANONYMOUS_TENANT, PolicyEngine, PolicyViolationError
from repro.policy.rules import (
    PolicyContext,
    PolicyRule,
    PolicyViolation,
    all_rules,
    rule_catalog,
    subquery_depth,
)

__all__ = [
    "ANONYMOUS_TENANT",
    "DEFAULT_BLOCKED_KEYWORDS",
    "PolicyConfig",
    "PolicyConfigError",
    "PolicyConfigStore",
    "PolicyContext",
    "PolicyEngine",
    "PolicyRule",
    "PolicyViolation",
    "PolicyViolationError",
    "all_rules",
    "rule_catalog",
    "subquery_depth",
]
