"""Value extraction: heuristics + gazetteer answer every question; a
trainable tagger joins them only where training samples are prepared."""

from repro.ner.extractor import ValueExtractor, merge_spans
from repro.ner.gazetteer import GazetteerRecognizer
from repro.ner.heuristics import (
    MONTHS,
    ORDINAL_WORDS,
    extract_capitalized,
    extract_heuristic_values,
    extract_months,
    extract_numbers,
    extract_ordinals,
    extract_quoted,
    extract_single_letters,
    ordinal_to_int,
)
from repro.ner.tagger import PerceptronTagger
from repro.ner.types import ExtractedValue, SpanKind

__all__ = [
    "ExtractedValue",
    "GazetteerRecognizer",
    "MONTHS",
    "ORDINAL_WORDS",
    "PerceptronTagger",
    "SpanKind",
    "ValueExtractor",
    "extract_capitalized",
    "extract_heuristic_values",
    "extract_months",
    "extract_numbers",
    "extract_ordinals",
    "extract_quoted",
    "extract_single_letters",
    "merge_spans",
    "ordinal_to_int",
]
