"""End-to-end translation pipelines (paper Fig. 5).

:class:`ValueNetPipeline` is the full system: question in, SQL out, with
value candidates established by extraction + generation + validation.
:class:`ValueNetLightPipeline` is the oracle-value variant: the caller
supplies the set of value options (paper Section IV-A) and the rest of the
pipeline is identical.

There is one translation path: a list of questions is pre-processed one
by one, encoded in one fused pass, decoded in one batch call (at beam > 1
the beams of all questions advance in lockstep), then post-processed one
by one.  ``translate`` is that path for a list of one, so a batch of N
and N single calls give the same answers.  Every stage writes its
wall-clock seconds (Table II) into the result's :class:`StageTimings` —
the fused encode + decode as an equal share per question; the beam width
is an argument of the call, never state changed between calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.candidates.types import ValueCandidate
from repro.db.database import Database
from repro.errors import ExecutionError, ReproError
from repro.model.valuenet import ValueNetModel
from repro.pipeline.timing import StageTimings
from repro.postprocessing.sql_builder import SqlBuilder
from repro.preprocessing.pipeline import PreprocessedQuestion, Preprocessor
from repro.semql.tree import SemQLNode

# Budget for executing generated SQL on this offline path: no wall-clock
# budget (None installs no progress handler) and a generous row cap.  Serving
# executes through DatabaseRuntime.execute_sql, with its own budget.
_EXECUTION_TIMEOUT_S = None
_EXECUTION_MAX_ROWS = 100_000


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
        preprocessor: Preprocessor | None = None,
        *,
        beam_size: int = 1,
    ):
        self.model = model
        self.database = database
        self.preprocessor = preprocessor or Preprocessor(database)
        self.builder = SqlBuilder(database.schema)
        self.beam_size = beam_size

    def _preprocess(
        self, question: str, timings: StageTimings, **inputs
    ) -> PreprocessedQuestion:
        raise NotImplementedError

    def translate(
        self,
        question: str,
        *,
        execute: bool = False,
        beam_size: int | None = None,
        **inputs,
    ) -> TranslationResult:
        """Translate ``question`` to SQL (optionally executing it).

        ``beam_size`` defaults to the pipeline's configured beam;
        ``inputs`` are the pre-processing inputs of this question
        (``values=`` for ValueNet light).
        """
        per_question = {name: [value] for name, value in inputs.items()}
        return self._run([question], execute, beam_size, per_question)[0]

    def translate_batch(
        self,
        questions: list[str],
        *,
        execute: bool = False,
        beam_size: int | None = None,
        **inputs,
    ) -> list[TranslationResult]:
        """Translate several questions against this database at once.

        As :meth:`translate`, for any number of questions (including 0
        or 1); each of ``inputs`` is one list with an entry per question.
        The encoder runs once over the padded batch.
        """
        return self._run(questions, execute, beam_size, inputs)

    def _run(
        self,
        questions: list[str],
        execute: bool,
        beam_size: int | None,
        inputs: dict[str, list],
    ) -> list[TranslationResult]:
        """The one translation path.  Both public entries call it, and
        neither calls the other: the benchmark's span wrapper counts each
        as one ``pipeline.translate`` span."""
        for name, per_question in inputs.items():
            if len(per_question) != len(questions):
                raise ValueError(
                    f"{len(per_question)} {name} for {len(questions)} questions"
                )
        beam = self.beam_size if beam_size is None else beam_size
        schema = self.database.schema
        results = [TranslationResult(question=question) for question in questions]
        active: list[tuple[TranslationResult, PreprocessedQuestion]] = []
        for index, result in enumerate(results):
            own = {name: per_question[index] for name, per_question in inputs.items()}
            try:
                pre = self._preprocess(result.question, result.timings, **own)
            except ReproError as exc:
                result.error = f"preprocessing failed: {exc}"
                continue
            result.candidates = pre.candidates
            active.append((result, pre))
        if not active:
            return results

        start = time.perf_counter()
        try:
            encoded_batch = self.model.encode_batch(
                [pre for _, pre in active], schema
            )
        except ReproError as exc:
            share = (time.perf_counter() - start) / len(active)
            for result, _ in active:
                result.timings.encoder_decoder = share
                result.error = f"decoding failed: {exc}"
            return results
        encode_seconds = time.perf_counter() - start
        decoded = self.model.decode_batch(
            encoded_batch, [pre for _, pre in active], schema, beam_size=beam
        )
        # The fused encode and decode are shared work: attribute an equal
        # share to every participating request so per-request timings
        # stay honest.
        share = (time.perf_counter() - start) / len(active)

        for (result, _), tree in zip(active, decoded):
            result.timings.encode_batch = encode_seconds
            result.timings.encoder_decoder = share
            if isinstance(tree, ReproError):
                result.error = f"decoding failed: {tree}"
            else:
                result.semql = tree
                self._postprocess(result, execute)
        return results

    def _postprocess(self, result: TranslationResult, execute: bool) -> None:
        """SemQL -> SQL (and optional execution), recording timings."""
        timings = result.timings
        start = time.perf_counter()
        try:
            result.sql = self.builder.build(result.semql)
        except ReproError as exc:
            result.error = f"post-processing failed: {exc}"
        timings.postprocessing = time.perf_counter() - start

        if execute and result.sql is not None:
            from repro.db.executor import execute_with_budget

            start = time.perf_counter()
            try:
                result.rows = execute_with_budget(
                    self.database,
                    result.sql,
                    timeout_s=_EXECUTION_TIMEOUT_S,
                    max_rows=_EXECUTION_MAX_ROWS,
                )
            except ExecutionError as exc:
                result.error = f"execution failed: {exc}"
            timings.execution = time.perf_counter() - start


class ValueNetPipeline(_BasePipeline):
    """The full end-to-end ValueNet system."""

    def _preprocess(self, question: str, timings: StageTimings) -> PreprocessedQuestion:
        return self.preprocessor.run(question, timings)


class ValueNetLightPipeline(_BasePipeline):
    """ValueNet light: gold value options are supplied by the caller.

    :meth:`translate` takes ``values``, the options of its question;
    :meth:`translate_batch` takes one option list *per question*
    (``values[i]`` belongs to ``questions[i]``).
    """

    def _preprocess(
        self, question: str, timings: StageTimings, *, values: list[object]
    ) -> PreprocessedQuestion:
        return self.preprocessor.run_light(question, values, timings)
