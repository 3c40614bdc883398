"""Value candidate validation (paper Section IV-B3).

Candidates are checked against the database content with *exact*
(normalized) matches; candidates not found anywhere are dropped — except
the two classes the paper explicitly exempts:

* **numeric values** (``top 3`` is a LIMIT, never stored in a column), and
* **quoted values** (``starting with "goodbye"`` needs a wildcard match,
  and wildcard validation produces too many false positives).

Validation also *registers the locations* (table, column) where each
surviving candidate was found; the encoder consumes these locations
(Section IV-B4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.candidates.types import ValueCandidate, dedupe_candidates
from repro.index.inverted import InvertedIndex


def _is_numeric(candidate: ValueCandidate) -> bool:
    if isinstance(candidate.value, (int, float)):
        return True
    text = str(candidate.value)
    return text.replace(".", "", 1).replace("-", "", 1).isdigit()


def _is_wildcard(candidate: ValueCandidate) -> bool:
    return isinstance(candidate.value, str) and "%" in candidate.value


@dataclass(frozen=True)
class ValidationConfig:
    """Tuning knobs for validation.

    Attributes:
        keep_quoted: keep quoted-span candidates without a DB match.
        keep_numeric: keep numeric candidates without a DB match.
        max_candidates: final cap after validation.
    """

    keep_quoted: bool = True
    keep_numeric: bool = True
    max_candidates: int = 24


class CandidateValidator:
    """Validates candidates against one database's inverted index."""

    def __init__(self, index: InvertedIndex, config: ValidationConfig | None = None):
        self._index = index
        self._config = config or ValidationConfig()

    def validate(
        self,
        candidates: list[ValueCandidate],
        *,
        quoted_values: set[str] = frozenset(),
    ) -> list[ValueCandidate]:
        """Filter and locate candidates.

        Args:
            candidates: generator output.
            quoted_values: normalized texts that were extracted from quotes
                (exempt from DB validation, like numerics).
        """
        validated: list[ValueCandidate] = []
        for candidate in candidates:
            found = self._index.find(candidate.value)
            if found is not None:
                locations, originals = found
                # Prefer the database's own spelling when the normalized
                # match differs in case ('france' -> 'France').
                value = candidate.value
                if isinstance(value, str) and value not in originals:
                    value = min(originals)
                validated.append(ValueCandidate(
                    value,
                    candidate.source,
                    tuple(sorted(locations, key=lambda loc: (loc.table, loc.column))),
                ))
                continue
            if self._config.keep_numeric and _is_numeric(candidate):
                validated.append(candidate)
                continue
            is_quoted = candidate.normalized in quoted_values
            if self._config.keep_quoted and (is_quoted or _is_wildcard(candidate)):
                validated.append(candidate)
                continue
            # Unvalidated text candidate: dropped (Section IV-B3).
        deduped = dedupe_candidates(validated)
        located_first = sorted(
            deduped, key=lambda c: (not c.locations, ),
        )
        return located_first[: self._config.max_candidates]
