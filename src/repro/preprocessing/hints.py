"""Question hints and schema hints (paper Sections III-A1 and III-A2).

The hints are the "prior knowledge" handed to the neural model:

* **Question hints** classify each question token: does its stem match a
  table name, a column name, a value in the database, an aggregation
  keyword, or a superlative keyword?
* **Schema hints** are the inverse: for each table and column, was it
  mentioned in the question exactly, partially, or did a *value candidate*
  get validated inside that column (the ``value candidate match`` class)?

Both are computed with stemming + exact matching only; the paper leaves
embedding-based matching to future work and so do we.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.candidates.heuristics import SUPERLATIVE_KEYWORDS
from repro.candidates.types import ValueCandidate
from repro.index.inverted import InvertedIndex
from repro.schema.model import Column, Schema, Table
from repro.text.stemmer import stem
from repro.text.tokenizer import Token

AGGREGATION_KEYWORDS = {
    "many", "number", "count", "total", "sum", "average", "mean", "avg",
    "maximum", "max", "minimum", "min",
}



class QuestionHint(enum.Enum):
    """Per-token classification of the question."""

    NONE = 0
    TABLE = 1
    COLUMN = 2
    VALUE = 3
    AGGREGATION = 4
    SUPERLATIVE = 5


class SchemaHint(enum.Enum):
    """Per-schema-item classification (tables and columns)."""

    NONE = 0
    EXACT_MATCH = 1
    PARTIAL_MATCH = 2
    VALUE_CANDIDATE_MATCH = 3


@dataclass(frozen=True)
class HintedToken:
    """A question token with its hint class."""

    token: Token
    hint: QuestionHint


@dataclass
class SchemaHints:
    """Hints for every table and column of a schema.

    ``column_hints`` is aligned with ``schema.all_columns()`` (the ``*``
    column first); ``table_hints`` with ``schema.tables``.
    """

    table_hints: list[SchemaHint]
    column_hints: list[SchemaHint]


def compute_question_hints(
    tokens: list[Token],
    schema: Schema,
    index: InvertedIndex | None,
) -> list[HintedToken]:
    """Classify each question token (Fig. 6).

    Priority when several classes apply: value < table < column <
    aggregation/superlative — schema matches are more specific than a
    generic DB-content hit, and function words win over both.
    """
    table_stems = {stem(word) for table in schema.tables for word in table.words}
    column_stems = {
        stem(word) for column in schema.all_columns() for word in column.words
    }

    hinted: list[HintedToken] = []
    for token in tokens:
        lowered = token.lower
        token_stem = stem(lowered)
        hint = QuestionHint.NONE
        if index is not None and (index.contains(lowered) or token.is_number()):
            hint = QuestionHint.VALUE
        if token_stem in table_stems:
            hint = QuestionHint.TABLE
        if token_stem in column_stems:
            hint = QuestionHint.COLUMN
        if lowered in AGGREGATION_KEYWORDS:
            hint = QuestionHint.AGGREGATION
        if lowered in SUPERLATIVE_KEYWORDS:
            hint = QuestionHint.SUPERLATIVE
        hinted.append(HintedToken(token, hint))
    return hinted


def _match_words(item_words: list[str], question_stems: set[str]) -> SchemaHint:
    if not item_words:
        return SchemaHint.NONE
    matched = sum(1 for word in item_words if stem(word) in question_stems)
    if matched == len(item_words):
        return SchemaHint.EXACT_MATCH
    if matched > 0:
        return SchemaHint.PARTIAL_MATCH
    return SchemaHint.NONE


def compute_schema_hints(
    tokens: list[Token],
    schema: Schema,
    candidates: list[ValueCandidate],
) -> SchemaHints:
    """Classify each table and column (Fig. 7).

    A column gets ``VALUE_CANDIDATE_MATCH`` when some validated candidate
    was located in it — that signal beats a partial name match but not an
    exact one (an exactly-mentioned column is the stronger evidence).
    """
    question_stems = {stem(token.lower) for token in tokens}

    candidate_columns: set[tuple[str, str]] = set()
    for candidate in candidates:
        for location in candidate.locations:
            candidate_columns.add((location.table.lower(), location.column.lower()))

    table_hints = [
        _match_words(table.words, question_stems) for table in schema.tables
    ]

    column_hints: list[SchemaHint] = []
    for column in schema.all_columns():
        hint = _match_words(column.words, question_stems)
        if (
            hint is not SchemaHint.EXACT_MATCH
            and not column.is_star()
            and (column.table.lower(), column.name.lower()) in candidate_columns
        ):
            hint = SchemaHint.VALUE_CANDIDATE_MATCH
        column_hints.append(hint)
    return SchemaHints(table_hints=table_hints, column_hints=column_hints)
