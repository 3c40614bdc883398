"""The value extractor every question is answered with.

Paper Section IV-B1 runs deterministic heuristics plus *two* NER models
(a custom trained model and a commercial API) and unions their output.
Here the heuristics and the gazetteer (the "commercial API" stand-in)
answer every question.  The trained tagger (the "custom model") runs
only where :func:`repro.model.train_valuenet` prepares full-mode
training samples: it keeps training examples whose gold value the other
two miss, while at inference it adds at most 2 correct answers in 1 200
(DESIGN.md §2).

:func:`merge_spans` resolves duplicates: spans with identical text are
deduplicated, and a span fully contained in another from the *same*
source is dropped (cross-source containment is kept — "John F Kennedy
International Airport" from the heuristics and "Kennedy" from the
gazetteer both seed useful candidates).
"""

from __future__ import annotations

from repro.ner.gazetteer import GazetteerRecognizer
from repro.ner.heuristics import extract_heuristic_values
from repro.ner.types import ExtractedValue, SpanKind
from repro.text.tokenizer import Token, tokenize


class ValueExtractor:
    """Heuristics + gazetteer, merged."""

    def __init__(self) -> None:
        self._gazetteer = GazetteerRecognizer()

    def extract(
        self, question: str, tokens: list[Token] | None = None
    ) -> list[ExtractedValue]:
        """All extracted value spans, position-sorted and deduplicated.

        The question is tokenized once for every extractor, unless
        ``tokens`` already holds ``tokenize(question)`` (pre-processing
        passes the tokens it has).
        """
        if tokens is None:
            tokens = tokenize(question)
        return merge_spans(
            extract_heuristic_values(question, tokens)
            + self._gazetteer.extract(question, tokens)
        )


def merge_spans(spans: list[ExtractedValue]) -> list[ExtractedValue]:
    """Deduplicate extraction results.

    Keeps at most one span per (normalized text, kind); drops spans fully
    contained in a longer span *from the same source* (within one source a
    contained span is redundant; across sources it is evidence).
    """
    spans = sorted(spans, key=lambda s: (s.start, -s.length))
    kept: list[ExtractedValue] = []
    seen: set[tuple[str, SpanKind]] = set()
    for span in spans:
        key = (span.text.lower(), span.kind)
        if key in seen:
            continue
        contained = any(
            other.source == span.source
            and other.start <= span.start
            and span.end <= other.end
            and other.length > span.length
            and other.kind == span.kind
            for other in kept
        )
        if contained:
            continue
        seen.add(key)
        kept.append(span)
    return kept
