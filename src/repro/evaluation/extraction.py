"""Value extraction coverage (paper Section V-E).

The paper reports that ValueNet's candidate pipeline recovers *all* values
for ~90% of value-bearing samples, that the misses concentrate in the
Hard/Extra-hard value classes, and that this share is stable between the
train and validation splits.  This module measures the same quantity: for
each value-bearing example, run the full candidate pipeline and check
whether every gold value appears in the candidate list.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.evaluation.difficulty import ValueDifficulty
from repro.model.supervision import match_candidate
from repro.preprocessing.pipeline import Preprocessor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spider.corpus import Example


@dataclass
class ExtractionReport:
    """Coverage of the candidate pipeline over value-bearing samples."""

    total_samples: int = 0
    covered_samples: int = 0
    total_values: int = 0
    covered_values: int = 0
    missed_by_difficulty: Counter = field(default_factory=Counter)
    values_by_difficulty: Counter = field(default_factory=Counter)

    @property
    def sample_coverage(self) -> float:
        return self.covered_samples / max(self.total_samples, 1)

    @property
    def value_coverage(self) -> float:
        return self.covered_values / max(self.total_values, 1)

    def miss_rate(self, difficulty: ValueDifficulty) -> float:
        total = self.values_by_difficulty.get(difficulty, 0)
        if total == 0:
            return 0.0
        return self.missed_by_difficulty.get(difficulty, 0) / total


def measure_extraction_coverage(
    examples: list[Example],
    preprocessors: dict[str, Preprocessor],
) -> ExtractionReport:
    """Run the full ValueNet candidate pipeline over value-bearing samples."""
    report = ExtractionReport()
    for example in examples:
        if not example.values:
            continue
        report.total_samples += 1
        pre = preprocessors[example.db_id].run(example.question)
        all_found = True
        for value, difficulty in zip(example.values, example.value_difficulties):
            report.total_values += 1
            report.values_by_difficulty[difficulty] += 1
            if match_candidate(value, pre.candidates) is not None:
                report.covered_values += 1
            else:
                all_found = False
                report.missed_by_difficulty[difficulty] += 1
        if all_found:
            report.covered_samples += 1
    return report
