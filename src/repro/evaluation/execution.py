"""Execution Accuracy evaluation (the paper's headline metric).

For every dev example the pipeline synthesizes SQL, both predicted and
gold queries run against the real SQLite database, and the result
multisets are compared (row order enforced only when the gold query orders
its top level).  The report aggregates overall accuracy, accuracy by
Spider hardness (Table I), accuracy by value difficulty, and keeps the
failed samples for error analysis (Section V-G).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.db.executor import execute_and_compare, gold_orders_rows
from repro.evaluation.difficulty import Hardness, ValueDifficulty
from repro.pipeline.timing import TimingAggregate
from repro.pipeline.valuenet import TranslationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spider.corpus import Example, SpiderCorpus


@dataclass
class EvaluatedSample:
    """One example with its prediction and verdict."""

    example: Example
    result: TranslationResult
    correct: bool
    gold_error: str | None = None


@dataclass
class AccuracyReport:
    """Aggregated Execution Accuracy results."""

    samples: list[EvaluatedSample] = field(default_factory=list)
    timings: TimingAggregate = field(default_factory=TimingAggregate)

    def add(self, sample: EvaluatedSample) -> None:
        self.samples.append(sample)
        self.timings.add(sample.result.timings)

    @property
    def total(self) -> int:
        return len(self.samples)

    @property
    def num_correct(self) -> int:
        return sum(1 for s in self.samples if s.correct)

    @property
    def accuracy(self) -> float:
        return self.num_correct / self.total if self.samples else 0.0

    def accuracy_by_hardness(self) -> dict[Hardness, tuple[float, int]]:
        """(accuracy, n) per Spider hardness class (Table I)."""
        table: dict[Hardness, tuple[float, int]] = {}
        for hardness in Hardness:
            bucket = [s for s in self.samples if s.example.hardness is hardness]
            if bucket:
                accuracy = sum(s.correct for s in bucket) / len(bucket)
                table[hardness] = (accuracy, len(bucket))
        return table

    def accuracy_by_value_difficulty(
        self,
    ) -> dict[ValueDifficulty | None, tuple[float, int]]:
        """(accuracy, n) per value-difficulty class (None = no values)."""
        table: dict[ValueDifficulty | None, tuple[float, int]] = {}
        classes: list[ValueDifficulty | None] = [None, *ValueDifficulty]
        for cls in classes:
            bucket = [s for s in self.samples if s.example.value_difficulty is cls]
            if bucket:
                accuracy = sum(s.correct for s in bucket) / len(bucket)
                table[cls] = (accuracy, len(bucket))
        return table

    def failures(self) -> list[EvaluatedSample]:
        return [s for s in self.samples if not s.correct]


def evaluate_pipeline(
    pipelines: dict[str, object],
    examples: list[Example],
    corpus: SpiderCorpus,
    *,
    light: bool = False,
) -> AccuracyReport:
    """Run Execution Accuracy over ``examples``.

    Args:
        pipelines: db_id -> pipeline (ValueNet or ValueNet light).
        examples: evaluation examples.
        corpus: the corpus (provides the databases).
        light: whether the pipelines expect gold values per question.
    """
    report = AccuracyReport()
    for example in examples:
        pipeline = pipelines[example.db_id]
        if light:
            result = pipeline.translate(example.question, values=example.values)
        else:
            result = pipeline.translate(example.question)
        database = corpus.database(example.db_id)
        correct = False
        gold_error = None
        if result.sql is not None:
            import time

            start = time.perf_counter()
            outcome = execute_and_compare(
                database,
                result.sql,
                example.gold_sql,
                order_matters=gold_orders_rows(example.gold_sql),
            )
            result.timings.execution = time.perf_counter() - start
            correct = outcome.correct
            gold_error = outcome.gold_error
            if outcome.predicted_error is not None:
                result.error = outcome.predicted_error
        report.add(EvaluatedSample(example, result, correct, gold_error))
    return report
