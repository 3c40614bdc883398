"""Pre-processing: question/schema hints and the candidate pipeline."""

from repro.preprocessing.hints import (
    AGGREGATION_KEYWORDS,
    HintedToken,
    QuestionHint,
    SchemaHint,
    SchemaHints,
    compute_question_hints,
    compute_schema_hints,
)
from repro.preprocessing.pipeline import PreprocessedQuestion, Preprocessor

__all__ = [
    "AGGREGATION_KEYWORDS",
    "HintedToken",
    "PreprocessedQuestion",
    "Preprocessor",
    "QuestionHint",
    "SchemaHint",
    "SchemaHints",
    "compute_question_hints",
    "compute_schema_hints",
]
