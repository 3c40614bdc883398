"""A non-neural heuristic baseline.

A rule-based translator in the spirit of the pre-neural NLIDBs the paper's
related-work section surveys: it picks the best hint-matched table, maps
"how many" to COUNT(*), attaches a WHERE clause when a validated candidate
exists, and otherwise projects the first text column.  It exists to anchor
the benchmark plots (neural vs. rules) and to sanity-check the evaluation
harness with a cheap, deterministic system.
"""

from __future__ import annotations

import time

from repro.db.database import Database
from repro.pipeline.valuenet import TranslationResult
from repro.preprocessing.hints import SchemaHint
from repro.preprocessing.pipeline import Preprocessor
from repro.schema.graph import SchemaGraph
from repro.schema.model import ColumnType
from repro.sql.ast import (
    AggregateFunction,
    ColumnRef,
    Condition,
    Literal,
    Operator,
    Query,
    SelectItem,
    SelectQuery,
)
from repro.sql.render import SqlRenderer


class HeuristicBaseline:
    """Rule-based NL-to-SQL for single-table questions."""

    def __init__(self, database: Database, preprocessor: Preprocessor | None = None):
        self.database = database
        self.schema = database.schema
        self.preprocessor = preprocessor or Preprocessor(database)
        self._renderer = SqlRenderer(SchemaGraph(self.schema))

    def translate(self, question: str, **_ignored) -> TranslationResult:
        """Translate with rules only (gold values, if passed, are ignored)."""
        result = TranslationResult(question=question)
        pre = self.preprocessor.run(question, result.timings)
        result.candidates = pre.candidates

        table = self._pick_table(pre)
        wants_count = any(
            h.hint.name == "AGGREGATION" for h in pre.hinted_tokens
        )

        if wants_count:
            select = [SelectItem(ColumnRef(None, "*"), AggregateFunction.COUNT)]
        else:
            text_columns = [
                c for c in self.schema.table(table).columns
                if c.column_type is ColumnType.TEXT
            ]
            column = text_columns[0] if text_columns else self.schema.table(table).columns[0]
            select = [SelectItem(ColumnRef(table, column.name))]

        where = self._build_condition(table, pre)
        query = Query(body=SelectQuery(select=select, tables=[table], where=where))
        start = time.perf_counter()
        try:
            result.sql = self._renderer.render(query)
        except Exception as exc:  # justified: result.error carries the failure to the caller
            result.error = str(exc)
        result.timings.postprocessing = time.perf_counter() - start
        return result

    def _pick_table(self, pre) -> str:
        best, best_score = self.schema.tables[0].name, -1.0
        for table, hint in zip(self.schema.tables, pre.schema_hints.table_hints):
            score = {
                SchemaHint.EXACT_MATCH: 3.0,
                SchemaHint.PARTIAL_MATCH: 1.5,
                SchemaHint.VALUE_CANDIDATE_MATCH: 1.0,
                SchemaHint.NONE: 0.0,
            }[hint]
            if score > best_score:
                best, best_score = table.name, score
        return best

    def _build_condition(self, table: str, pre):
        for candidate in pre.candidates:
            for location in candidate.locations:
                if location.table.lower() == table.lower():
                    column = self.schema.column(location.table, location.column)
                    value = candidate.value
                    if column.column_type is ColumnType.NUMBER and isinstance(value, str):
                        try:
                            value = float(value)
                            value = int(value) if value.is_integer() else value
                        except ValueError:
                            continue
                    return Condition(
                        ColumnRef(column.table, column.name),
                        Operator.EQ,
                        Literal(value),
                    )
        return None
