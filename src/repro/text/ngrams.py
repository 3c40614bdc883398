"""n-gram generation for value candidate expansion.

Paper Section IV-B2, third approach: for every extracted value with more
than one token, all contiguous sub-sequences are generated as additional
value candidates.  "A value like 'Kennedy International Airport' generates
one trigram, two bigrams, and three single words as value candidates."
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence


def ngrams(tokens: Sequence[str], n: int) -> Iterator[tuple[str, ...]]:
    """Yield every contiguous ``n``-gram of ``tokens``.

    >>> list(ngrams(["a", "b", "c"], 2))
    [('a', 'b'), ('b', 'c')]
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    for start in range(len(tokens) - n + 1):
        yield tuple(tokens[start:start + n])


def all_ngrams(tokens: Sequence[str], *, max_n: int | None = None) -> list[tuple[str, ...]]:
    """All contiguous sub-sequences of ``tokens``, longest first.

    The longest-first ordering matters downstream: the candidate generator
    prefers longer, more specific candidates and deduplicates on insertion.

    >>> [" ".join(g) for g in all_ngrams(["Kennedy", "International", "Airport"])]
    ['Kennedy International Airport', 'Kennedy International', 'International Airport', 'Kennedy', 'International', 'Airport']
    """
    top = len(tokens) if max_n is None else min(max_n, len(tokens))
    result: list[tuple[str, ...]] = []
    for n in range(top, 0, -1):
        result.extend(ngrams(tokens, n))
    return result


#: Padding character for :func:`padded_qgrams`; chosen outside the
#: printable range so database values essentially never contain it (and
#: an accidental collision only ever *adds* shared grams, which keeps the
#: q-gram count filter a safe superset).
QGRAM_PAD = "\x00"


def padded_qgrams(text: str, q: int) -> list[str]:
    """Character ``q``-grams of ``text`` padded with ``q - 1`` sentinel
    characters on both sides (the standard q-gram profile for edit-distance
    filtering: a padded string of length ``n`` has exactly ``n + q - 1``
    grams, and one edit operation changes at most ``q`` of them — ``q + 1``
    for an adjacent transposition).

    >>> padded_qgrams("ab", 3) == ["\\x00\\x00a", "\\x00ab", "ab\\x00", "b\\x00\\x00"]
    True
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    pad = QGRAM_PAD * (q - 1)
    padded = pad + text + pad
    return [padded[i:i + q] for i in range(len(padded) - q + 1)]
