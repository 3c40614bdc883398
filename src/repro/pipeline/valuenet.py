"""End-to-end translation pipelines (paper Fig. 5).

:class:`ValueNetPipeline` is the full system: question in, SQL out, with
value candidates established by extraction + generation + validation.
:class:`ValueNetLightPipeline` is the oracle-value variant: the caller
supplies the set of value options (paper Section IV-A) and the rest of the
pipeline is identical.

Both record per-stage wall-clock timings (Table II) and can execute the
synthesized SQL against the database.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.candidates.types import ValueCandidate
from repro.db.database import Database
from repro.errors import ExecutionError, ReproError
from repro.model.valuenet import ValueNetModel
from repro.ner.extractor import ValueExtractor
from repro.pipeline.timing import StageTimings
from repro.postprocessing.sql_builder import SqlBuilder
from repro.preprocessing.pipeline import PreprocessedQuestion, Preprocessor
from repro.semql.tree import SemQLNode


@dataclass
class TranslationResult:
    """Everything one translation produced.

    ``sql`` is None when the model could not synthesize a query (the
    ``error`` field then explains why); ``rows`` is None unless execution
    was requested and succeeded.
    """

    question: str
    sql: str | None = None
    semql: SemQLNode | None = None
    candidates: list[ValueCandidate] = field(default_factory=list)
    timings: StageTimings = field(default_factory=StageTimings)
    rows: list[tuple] | None = None
    error: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.sql is not None and self.error is None


class _BasePipeline:
    """Shared pipeline skeleton; subclasses provide the pre-processing."""

    def __init__(
        self,
        model: ValueNetModel,
        database: Database,
        extractor: ValueExtractor | None = None,
        preprocessor: Preprocessor | None = None,
        *,
        beam_size: int = 1,
        execution_timeout_s: float | None = None,
        execution_max_rows: int | None = 100_000,
    ):
        self.model = model
        self.database = database
        self.preprocessor = preprocessor or Preprocessor(database, extractor)
        self.builder = SqlBuilder(database.schema)
        self.beam_size = beam_size
        # Wall-clock budget + row cap for executing *generated* SQL
        # (None timeout disables the interrupt timer).
        self.execution_timeout_s = execution_timeout_s
        self.execution_max_rows = execution_max_rows

    def _preprocess(self, question: str, timings: StageTimings, **kwargs):
        raise NotImplementedError

    def translate(self, question: str, *, execute: bool = False, **kwargs) -> TranslationResult:
        """Translate ``question`` to SQL (optionally executing it)."""
        timings = StageTimings()
        result = TranslationResult(question=question, timings=timings)
        try:
            pre: PreprocessedQuestion = self._preprocess(question, timings, **kwargs)
        except ReproError as exc:
            result.error = f"preprocessing failed: {exc}"
            return result
        result.candidates = pre.candidates

        start = time.perf_counter()
        try:
            tree = self.model.predict(
                pre, self.database.schema, beam_size=self.beam_size
            )
        except ReproError as exc:
            timings.encoder_decoder = time.perf_counter() - start
            result.error = f"decoding failed: {exc}"
            return result
        timings.encoder_decoder = time.perf_counter() - start
        result.semql = tree
        self._postprocess(result, tree, execute)
        return result

    def translate_batch(
        self,
        questions: list[str],
        *,
        execute: bool | list[bool] = False,
        encode_observer: Callable[[float, int], None] | None = None,
        **kwargs,
    ) -> list[TranslationResult]:
        """Translate several questions against this database at once.

        Pre-processing, decoding and post-processing stay per-question,
        but the encoder runs *once* over the padded micro-batch — the
        results are identical to sequential :meth:`translate` calls.

        Args:
            questions: the batch (any size, including 0 or 1).
            execute: one flag for every question, or one flag per
                question (micro-batches may mix execute requests).
            encode_observer: called with ``(seconds, batch_size)`` after
                the fused encode — the serving layer records it into the
                ``serving_encode_batch_seconds`` histogram.
            **kwargs: forwarded to pre-processing (see
                :meth:`_batch_kwargs` for per-question splitting).
        """
        flags = (
            [bool(f) for f in execute]
            if isinstance(execute, (list, tuple))
            else [bool(execute)] * len(questions)
        )
        if len(flags) != len(questions):
            raise ValueError(
                f"{len(flags)} execute flags for {len(questions)} questions"
            )
        results = [
            TranslationResult(question=question, timings=StageTimings())
            for question in questions
        ]
        active: list[tuple[int, PreprocessedQuestion]] = []
        for index, (question, result) in enumerate(zip(questions, results)):
            try:
                pre = self._preprocess(
                    question, result.timings, **self._batch_kwargs(index, kwargs)
                )
            except ReproError as exc:
                result.error = f"preprocessing failed: {exc}"
                continue
            result.candidates = pre.candidates
            active.append((index, pre))
        if not active:
            return results

        start = time.perf_counter()
        try:
            encoded_batch = self.model.encode_batch(
                [pre for _, pre in active], self.database.schema
            )
        except ReproError as exc:
            share = (time.perf_counter() - start) / len(active)
            for index, _ in active:
                results[index].timings.encoder_decoder = share
                results[index].error = f"decoding failed: {exc}"
            return results
        encode_seconds = time.perf_counter() - start
        if encode_observer is not None:
            encode_observer(encode_seconds, len(active))
        # The fused encode is shared work: attribute an equal share to
        # every participating request so per-request timings stay honest.
        share = encode_seconds / len(active)

        for (index, pre), encoded in zip(active, encoded_batch):
            result = results[index]
            start = time.perf_counter()
            try:
                tree = self.model.decode_encoded(
                    encoded, pre, self.database.schema, beam_size=self.beam_size
                )
            except ReproError as exc:
                result.timings.encoder_decoder = (
                    share + time.perf_counter() - start
                )
                result.error = f"decoding failed: {exc}"
                continue
            result.timings.encoder_decoder = share + time.perf_counter() - start
            result.semql = tree
            self._postprocess(result, tree, flags[index])
        return results

    def _batch_kwargs(self, index: int, kwargs: dict) -> dict:
        """Split batch-level kwargs into per-question preprocess kwargs."""
        return kwargs

    def _postprocess(
        self, result: TranslationResult, tree: SemQLNode, execute: bool
    ) -> None:
        """SemQL -> SQL (and optional execution), recording timings."""
        timings = result.timings
        start = time.perf_counter()
        try:
            result.sql = self.builder.build(tree)
        except ReproError as exc:
            timings.postprocessing = time.perf_counter() - start
            result.error = f"post-processing failed: {exc}"
            return
        timings.postprocessing = time.perf_counter() - start

        if execute:
            from repro.db.executor import execute_with_budget

            start = time.perf_counter()
            try:
                result.rows = execute_with_budget(
                    self.database,
                    result.sql,
                    timeout_s=self.execution_timeout_s,
                    max_rows=self.execution_max_rows,
                )
            except ExecutionError as exc:
                result.error = f"execution failed: {exc}"
            timings.execution = time.perf_counter() - start


class ValueNetPipeline(_BasePipeline):
    """The full end-to-end ValueNet system."""

    def _preprocess(self, question: str, timings: StageTimings) -> PreprocessedQuestion:
        stage_times: dict[str, float] = {}
        pre = self.preprocessor.run(question, timings=stage_times)
        timings.preprocessing = stage_times.get("preprocessing", 0.0)
        timings.value_lookup = stage_times.get("value_lookup", 0.0)
        return pre


class ValueNetLightPipeline(_BasePipeline):
    """ValueNet light: gold value options are supplied by the caller.

    :meth:`translate_batch` takes ``values`` as one option list *per
    question* (``values[i]`` belongs to ``questions[i]``).
    """

    def translate(
        self, question: str, *, values: list[object], execute: bool = False
    ) -> TranslationResult:
        return super().translate(question, execute=execute, values=values)

    def _batch_kwargs(self, index: int, kwargs: dict) -> dict:
        return {"values": kwargs["values"][index]}

    def _preprocess(
        self, question: str, timings: StageTimings, *, values: list[object]
    ) -> PreprocessedQuestion:
        stage_times: dict[str, float] = {}
        pre = self.preprocessor.run_light(question, values, timings=stage_times)
        timings.preprocessing = stage_times.get("preprocessing", 0.0)
        timings.value_lookup = stage_times.get("value_lookup", 0.0)
        return pre
