"""Deterministic value-extraction heuristics.

Paper Section IV-B1 lists three heuristics that complement the stochastic
NER models: (1) content in quotes, (2) capitalized terms, (3) single
letters.  We additionally extract numbers, ordinals and month names, which
the paper handles inside its candidate-generation heuristics — pulling the
spans out is a pre-requisite for that step.
"""

from __future__ import annotations

import re

from repro.ner.types import ExtractedValue, SpanKind
from repro.text.tokenizer import Token, tokenize

# Single quotes must not touch a letter on the outside, so apostrophes
# inside words ("head's") are not mistaken for opening quotes.
_QUOTED_RE = re.compile(
    r"""(?<![A-Za-z])['‘](?P<single>[^'‘’]+)['’](?![A-Za-z])"""
    r"""|["“](?P<double>[^"“”]+)["”]"""
)
_SINGLE_LETTER_RE = re.compile(
    r"\bletter\s+['\"]?(?P<letter>[A-Za-z])['\"]?", re.IGNORECASE
)

MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5,
    "june": 6, "july": 7, "august": 8, "september": 9, "october": 10,
    "november": 11, "december": 12,
}

ORDINAL_WORDS = {
    "first": 1, "second": 2, "third": 3, "fourth": 4, "fifth": 5,
    "sixth": 6, "seventh": 7, "eighth": 8, "ninth": 9, "tenth": 10,
}

_ORDINAL_SUFFIX_RE = re.compile(r"^(?P<number>\d+)(st|nd|rd|th)$", re.IGNORECASE)

# Scans raw text: the word tokenizer splits "9th" into "9" + "th", so
# suffixed ordinals are found with a regex over the question instead.
_ORDINAL_SCAN_RE = re.compile(r"\b(?P<number>\d+)(st|nd|rd|th)\b", re.IGNORECASE)

# Words that are capitalized for grammatical reasons and never values.
_STOPWORDS = {
    "what", "which", "who", "whose", "whom", "where", "when", "how", "show",
    "give", "list", "find", "report", "return", "tell", "display", "count",
    "the", "a", "an", "of", "for", "in", "on", "with", "and", "or", "is",
    "are", "do", "does", "did", "please", "me", "all", "each", "every",
}


def extract_quoted(question: str) -> list[ExtractedValue]:
    """Heuristic 1: content in quotes is (almost) always a value."""
    values = []
    for match in _QUOTED_RE.finditer(question):
        group = "single" if match.group("single") is not None else "double"
        content = match.group(group).strip()
        if content:
            values.append(
                ExtractedValue(
                    text=content,
                    start=match.start(group),
                    end=match.end(group),
                    kind=SpanKind.QUOTED,
                    source="heuristic",
                )
            )
    return values


def extract_capitalized(
    question: str, tokens: list[Token] | None = None
) -> list[ExtractedValue]:
    """Heuristic 2: maximal runs of capitalized tokens.

    The sentence-initial token only joins a run when the following token is
    capitalized too, so 'Show all flights ...' does not produce 'Show'.
    ``tokens``, when the caller holds them, are ``tokenize(question)``;
    the other token-based extractors here take them too.
    """
    if tokens is None:
        tokens = tokenize(question)
    values: list[ExtractedValue] = []
    run: list[Token] = []

    def flush() -> None:
        nonlocal run
        if not run:
            return
        usable = [t for t in run if t.lower not in _STOPWORDS]
        if usable:
            first, last = usable[0], usable[-1]
            values.append(
                ExtractedValue(
                    text=question[first.start:last.end],
                    start=first.start,
                    end=last.end,
                    kind=SpanKind.TEXT,
                    source="heuristic",
                )
            )
        run = []

    for i, token in enumerate(tokens):
        capitalized_word = token.is_word() and token.is_capitalized()
        joins_number = token.is_number() and run  # "Airbus A340" style codes
        if capitalized_word or joins_number:
            if token.start == 0 or (not run and i == 0):
                # Sentence-initial: only start a run when the next token is
                # also capitalized (a multi-word proper noun at position 0).
                next_token = tokens[i + 1] if i + 1 < len(tokens) else None
                if next_token is not None and next_token.is_word() and next_token.is_capitalized():
                    run.append(token)
                continue
            run.append(token)
        else:
            flush()
    flush()
    return values


def extract_single_letters(question: str) -> list[ExtractedValue]:
    """Heuristic 3: single letters mentioned as such ('the letter M')."""
    values = []
    for match in _SINGLE_LETTER_RE.finditer(question):
        values.append(
            ExtractedValue(
                text=match.group("letter"),
                start=match.start("letter"),
                end=match.end("letter"),
                kind=SpanKind.LETTER,
                source="heuristic",
            )
        )
    return values


def extract_numbers(
    question: str, tokens: list[Token] | None = None
) -> list[ExtractedValue]:
    """Numbers and 4-digit years (years get their own kind so date
    heuristics can treat them specially)."""
    values = []
    for token in tokenize(question) if tokens is None else tokens:
        if not token.is_number():
            continue
        kind = SpanKind.NUMBER
        if "." not in token.text and len(token.text) == 4 and token.text[0] in "12":
            kind = SpanKind.YEAR
        values.append(
            ExtractedValue(
                text=token.text,
                start=token.start,
                end=token.end,
                kind=kind,
                source="heuristic",
            )
        )
    return values


def extract_ordinals(
    question: str, tokens: list[Token] | None = None
) -> list[ExtractedValue]:
    """Ordinal words and suffixed ordinals ('fourth', '9th')."""
    values = []
    for token in tokenize(question) if tokens is None else tokens:
        if token.lower in ORDINAL_WORDS:
            values.append(
                ExtractedValue(
                    text=token.text,
                    start=token.start,
                    end=token.end,
                    kind=SpanKind.ORDINAL,
                    source="heuristic",
                )
            )
    for match in _ORDINAL_SCAN_RE.finditer(question):
        values.append(
            ExtractedValue(
                text=match.group(0),
                start=match.start(),
                end=match.end(),
                kind=SpanKind.ORDINAL,
                source="heuristic",
            )
        )
    return values


def extract_months(
    question: str, tokens: list[Token] | None = None
) -> list[ExtractedValue]:
    """Month names ('August' -> month 8, Section IV-B2 heuristic 4)."""
    values = []
    for token in tokenize(question) if tokens is None else tokens:
        if token.lower in MONTHS:
            values.append(
                ExtractedValue(
                    text=token.text,
                    start=token.start,
                    end=token.end,
                    kind=SpanKind.MONTH,
                    source="heuristic",
                )
            )
    return values


def extract_heuristic_values(
    question: str, tokens: list[Token] | None = None
) -> list[ExtractedValue]:
    """Run all heuristics and return spans sorted by position.

    The question is tokenized once (unless ``tokens`` already holds
    ``tokenize(question)``) for the four token-based heuristics.  Overlap
    resolution happens later in the combined extractor (quoted spans may
    legitimately cover capitalized spans, and both are useful candidate
    seeds).
    """
    if tokens is None:
        tokens = tokenize(question)
    values: list[ExtractedValue] = []
    values.extend(extract_quoted(question))
    values.extend(extract_capitalized(question, tokens))
    values.extend(extract_single_letters(question))
    values.extend(extract_numbers(question, tokens))
    values.extend(extract_ordinals(question, tokens))
    values.extend(extract_months(question, tokens))
    values.sort(key=lambda v: (v.start, -v.length))
    return values


def ordinal_to_int(text: str) -> int | None:
    """Parse an ordinal surface form into its integer ('fourth' -> 4)."""
    lowered = text.lower()
    if lowered in ORDINAL_WORDS:
        return ORDINAL_WORDS[lowered]
    match = _ORDINAL_SUFFIX_RE.match(text)
    if match:
        return int(match.group("number"))
    return None
