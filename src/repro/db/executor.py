"""Query execution and result-set comparison for Execution Accuracy.

The Spider Execution Accuracy metric "measures if the results of both
predicted and gold query are the same by executing them against a real
database".  Result sets are compared as *multisets of rows* — row order is
irrelevant unless the gold query has an ORDER BY, in which case order
matters (this mirrors the official Spider evaluation script's behaviour).
"""

from __future__ import annotations

import re
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from repro.db.database import Database
from repro.errors import ExecutionError
from repro.sql.lexer import lex_sql

# SQLite VM instructions between two deadline checks of a budgeted
# query: a few-microsecond query sees at most one check, a runaway one
# is stopped within a fraction of a millisecond of its deadline.
_PROGRESS_INSTRUCTIONS = 1000


class QueryTimeoutError(ExecutionError):
    """A query exceeded its wall-clock budget and was interrupted."""


class MultiStatementError(ExecutionError):
    """A SQL string contained more than one statement."""


def reject_multi_statement(sql: str) -> None:
    """Raise :class:`MultiStatementError` if ``sql`` holds >1 statement.

    The executor runs *generated* SQL, so this is the last line of
    defense even when no policy is configured: a statement separator
    followed by anything non-blank (``SELECT ...; DROP TABLE ...``) is
    rejected outright.  A single trailing ``;`` is legal.  The separator
    is read off the lexer's masked view (:mod:`repro.sql.lexer`), the
    same one the policy's ``multi-statement`` rule reads, so a ``;``
    inside a quoted form never false-positives and a quote inside a
    comment never hides one.
    """
    if ";" not in sql:
        return  # no separator without a ";"
    offset = lex_sql(sql).separator()
    if offset is not None:
        raise MultiStatementError(
            f"SQL contains multiple statements (separator at offset {offset}): {sql!r}"
        )


# taint: sanitizer via check_sql (single choke point for generated SQL: multi-statement rejection always, policy gate when configured)
def execute_with_budget(
    database: Database,
    sql: str,
    *,
    timeout_s: float | None = None,
    max_rows: int | None = 10_000,
    check_sql: Callable[[str], None] | None = None,
) -> list[tuple]:
    """Execute ``sql`` under a wall-clock budget and a result-row cap.

    Serving runs *generated* SQL: a pathological query (an accidental
    cross join, a filter that SQLite cannot use an index for) can
    otherwise occupy a worker slot for minutes.  A progress handler on
    the current thread's connection checks a monotonic deadline every
    ``_PROGRESS_INSTRUCTIONS`` SQLite VM instructions and, once it has
    passed, makes SQLite abort the running statement with "interrupted",
    surfaced here as :class:`QueryTimeoutError`; the handler is removed
    when the call returns.  No thread is started.  ``max_rows`` bounds the
    result set (the cap raises :class:`ExecutionError`, mirroring
    :meth:`Database.execute`).

    ``timeout_s=None`` (or <= 0) installs no handler and degenerates to a
    plain capped execute.  Multi-statement strings are always rejected
    (see :func:`reject_multi_statement`) — sqlite3 would silently run
    only the first statement, which hides injection attempts instead of
    surfacing them.  ``check_sql`` is the caller's policy check, already
    bound to its routing database id and the requester's tenant
    (:meth:`repro.serving.runtime.DatabaseRuntime.check_sql`); it runs
    right here, between the multi-statement rejection and the database,
    and blocks by raising.
    """
    reject_multi_statement(sql)
    if check_sql is not None:
        check_sql(sql)
    if timeout_s is None or timeout_s <= 0:
        return database.execute(sql, max_rows=max_rows)
    connection = database.connection  # per-thread: the handler sees this query only
    deadline = time.monotonic() + timeout_s
    expired = False

    def _over_budget() -> bool:
        nonlocal expired
        expired = time.monotonic() >= deadline
        return expired  # true aborts the statement

    connection.set_progress_handler(_over_budget, _PROGRESS_INSTRUCTIONS)
    try:
        return database.execute(sql, max_rows=max_rows)
    except ExecutionError as exc:
        if expired:
            raise QueryTimeoutError(
                f"query exceeded its {timeout_s:.3f}s budget and was "
                f"interrupted: {sql!r}"
            ) from exc
        raise
    finally:
        connection.set_progress_handler(None, 0)


def _normalize_cell(cell: object) -> object:
    """Normalize a result cell so equivalent values compare equal.

    Integral floats collapse to ints (``COUNT`` returns int, ``SUM`` may
    return float) and strings are compared case-sensitively, matching
    SQLite semantics.
    """
    if isinstance(cell, float) and cell.is_integer():
        return int(cell)
    return cell


def normalize_rows(rows: list[tuple]) -> list[tuple]:
    """Apply cell normalization to every row."""
    return [tuple(_normalize_cell(cell) for cell in row) for row in rows]


def rows_equal(
    predicted: list[tuple],
    gold: list[tuple],
    *,
    order_matters: bool = False,
) -> bool:
    """Compare two result sets.

    Args:
        predicted: rows from the predicted query.
        gold: rows from the gold query.
        order_matters: when True (gold query has ORDER BY) rows must match
            positionally; otherwise rows are compared as a multiset.
    """
    predicted_rows = normalize_rows(predicted)
    gold_rows = normalize_rows(gold)
    if order_matters:
        return predicted_rows == gold_rows
    return Counter(predicted_rows) == Counter(gold_rows)


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one predicted/gold query pair."""

    correct: bool
    predicted_error: str | None = None
    gold_error: str | None = None

    @property
    def predicted_failed(self) -> bool:
        return self.predicted_error is not None


def execute_and_compare(
    database: Database,
    predicted_sql: str,
    gold_sql: str,
    *,
    order_matters: bool = False,
) -> ExecutionResult:
    """Execute both queries and compare their result sets.

    A failing *gold* query marks the sample as a dataset error (never
    credited); a failing *predicted* query simply counts as incorrect,
    matching the Spider script.
    """
    try:
        gold_rows = database.execute(gold_sql)
    except ExecutionError as exc:
        return ExecutionResult(correct=False, gold_error=str(exc))
    try:
        predicted_rows = database.execute(predicted_sql)
    except ExecutionError as exc:
        return ExecutionResult(correct=False, predicted_error=str(exc))
    return ExecutionResult(
        correct=rows_equal(predicted_rows, gold_rows, order_matters=order_matters)
    )


# An opening or closing paren, or ORDER BY at a word start.
_ORDER_BY_RE = re.compile(r"[()]|(?<!\w)order by")


def gold_orders_rows(gold_sql: str) -> bool:
    """Heuristic: does the gold query's *top level* impose row order?

    An ORDER BY inside a sub-query (``IN (SELECT ... ORDER BY ...)``) does
    not constrain the outer result order.  We look for ORDER BY at paren
    depth zero in the lexer's masked view, so a string like
    ``'order by'`` or a ``'('`` inside a quoted form cannot miscount
    depth or false-positive.
    """
    depth = 0
    for match in _ORDER_BY_RE.finditer(lex_sql(gold_sql).masked.lower()):
        token = match.group()
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
        elif depth == 0:
            return True
    return False
