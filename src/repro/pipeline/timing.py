"""Per-stage timing records (paper Table II).

:class:`StageTimings` is the one timing report of a translation: the
pre-processor, the pipeline and the serving runtime each write their
stages into the record they are handed, and the service reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

STAGES = (
    "preprocessing",
    "value_lookup",
    "encoder_decoder",
    "postprocessing",
    "execution",
)


@dataclass
class StageTimings:
    """Wall-clock seconds per translation stage for one question."""

    preprocessing: float = 0.0
    value_lookup: float = 0.0
    encoder_decoder: float = 0.0
    postprocessing: float = 0.0
    execution: float = 0.0
    # Wall time of the fused encode this question shared, the same value
    # on every record of the model batch (0.0 when no encode completed).
    # Not a STAGE: each question's share is already in encoder_decoder,
    # so total, as_dict() and the wire format do not count it.
    encode_batch: float = 0.0

    @property
    def total(self) -> float:
        return sum(getattr(self, stage) for stage in STAGES)

    def as_dict(self) -> dict[str, float]:
        return {stage: getattr(self, stage) for stage in STAGES}


@dataclass
class TimingAggregate:
    """Mean and standard deviation per stage over many questions."""

    samples: list[StageTimings] = field(default_factory=list)

    def add(self, timings: StageTimings) -> None:
        self.samples.append(timings)

    def mean_ms(self, stage: str) -> float:
        if not self.samples:
            return 0.0
        values = [getattr(t, stage) for t in self.samples]
        return 1000.0 * sum(values) / len(values)

    def std_ms(self, stage: str) -> float:
        if len(self.samples) < 2:
            return 0.0
        values = [1000.0 * getattr(t, stage) for t in self.samples]
        mean = sum(values) / len(values)
        return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))

    def mean_total_ms(self) -> float:
        if not self.samples:
            return 0.0
        return 1000.0 * sum(t.total for t in self.samples) / len(self.samples)

    def table(self) -> list[tuple[str, float, float]]:
        """(stage, mean_ms, std_ms) rows, in the paper's Table II order."""
        return [(stage, self.mean_ms(stage), self.std_ms(stage)) for stage in STAGES]
