"""The pre-processing stage of the ValueNet architecture (paper Fig. 5).

Given a question and a database, produce everything the neural model
consumes:

1. question tokens with *question hints*,
2. *schema hints* for every table/column,
3. the *value candidate* list (extraction -> generation -> validation for
   ValueNet; the gold value set for ValueNet light).

The same object feeds training (gold values are matched against the
candidate list to produce pointer supervision) and inference.

Stage time goes into the record the caller hands in (``timings``): this
layer sets its two fields and does not import the record's type, which
lives a layer above (``repro.pipeline.timing``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.candidates.generation import CandidateGenerator
from repro.candidates.types import ValueCandidate, dedupe_candidates
from repro.candidates.validation import CandidateValidator
from repro.db.database import Database
from repro.index.inverted import InvertedIndex
from repro.index.registry import IndexEntry, IndexRegistry
from repro.index.similarity import SimilaritySearcher
from repro.ner.extractor import ValueExtractor
from repro.ner.types import ExtractedValue, SpanKind
from repro.preprocessing.hints import (
    HintedToken,
    SchemaHints,
    compute_question_hints,
    compute_schema_hints,
)
from repro.schema.model import Schema
from repro.text.tokenizer import Token, tokenize


@dataclass
class PreprocessedQuestion:
    """Everything the encoder needs for one question."""

    question: str
    tokens: list[Token]
    hinted_tokens: list[HintedToken]
    schema_hints: SchemaHints
    candidates: list[ValueCandidate]
    extracted: list[ExtractedValue] = field(default_factory=list)

    @property
    def words(self) -> list[str]:
        return [token.text for token in self.tokens]


class Preprocessor:
    """Pre-processing bound to one database.

    The inverted index and similarity searcher are built once, here:
    from ``index`` when given, else from the ``registry``'s bundle for
    the database file (so every preprocessor, pipeline and serving
    runtime built with that registry shares one index), else from a
    private scan of ``database``.  A registry bundle is kept as
    :attr:`entry` — the bundle this preprocessor serves, with the file
    state taken before its scan, which the background refresher checks
    for staleness.  Each call to :meth:`run` (ValueNet mode) or
    :meth:`run_light` (ValueNet light mode) is then index-backed and
    fast.  Values are extracted with
    :class:`ValueExtractor`; only :func:`repro.model.train_valuenet`
    passes another ``extractor``, to prepare training samples.
    """

    def __init__(
        self,
        database: Database,
        *,
        extractor: ValueExtractor | None = None,
        index: InvertedIndex | None = None,
        registry: IndexRegistry | None = None,
    ):
        self.database = database
        self.schema: Schema = database.schema
        self.entry: IndexEntry | None = None
        if index is None and registry is not None:
            self.entry = registry.get(database)
            self.index, self._searcher = self.entry.index, self.entry.searcher
        else:
            self.index = index if index is not None else InvertedIndex.build(database)
            self._searcher = SimilaritySearcher(self.index)
        self._extractor = extractor or ValueExtractor()
        self._generator = CandidateGenerator(self._searcher)
        self._validator = CandidateValidator(self.index)

    @property
    def searcher(self) -> SimilaritySearcher:
        """The shared similarity searcher (its ``stats_snapshot()`` feeds
        ``/healthz`` and the benchmark)."""
        return self._searcher

    def rebind(self, entry: IndexEntry) -> None:
        """Adopt a registry bundle from the background refresh.

        Re-reads ``database.schema`` as well, so a refresher that swapped
        a re-introspected schema onto the shared :class:`Database` gets
        hints computed against the new tables/columns.  Callers are
        responsible for serializing against in-flight :meth:`run` calls
        (the serving runtime rebinds under its per-runtime lock).
        """
        self.entry = entry
        self.index, self._searcher = entry.index, entry.searcher
        self.schema = self.database.schema
        self._generator = CandidateGenerator(self._searcher)
        self._validator = CandidateValidator(self.index)

    # ------------------------------------------------------ ValueNet mode

    def run(self, question: str, timings=None) -> PreprocessedQuestion:
        """Full ValueNet pre-processing: extract, generate, validate.

        Args:
            question: the NL question.
            timings: optional timing record (a
                :class:`~repro.pipeline.timing.StageTimings`; any object
                with the two attributes will do) whose ``preprocessing``
                (tokenize + NER + hints) and ``value_lookup`` (candidate
                generation + validation against the database) receive
                wall-clock seconds — the split of the paper's Table II.
        """
        return self._run(
            question, timings, self._extractor.extract, self._search_candidates
        )

    def _search_candidates(
        self, words: list[str], extracted: list[ExtractedValue]
    ) -> list[ValueCandidate]:
        generated = self._generator.generate(words, extracted)
        quoted = {
            span.text.strip().lower()
            for span in extracted
            if span.kind is SpanKind.QUOTED
        }
        return self._validator.validate(generated, quoted_values=quoted)

    # ------------------------------------------------ ValueNet light mode

    def run_light(
        self, question: str, gold_values: list[object], timings=None
    ) -> PreprocessedQuestion:
        """ValueNet light pre-processing: gold values arrive as an oracle
        set of options; we only locate them in the database (the encoder
        wants locations) and compute hints.  ``timings`` is filled as in
        :meth:`run`: ``value_lookup`` covers locating the supplied values
        in the index.
        """
        return self._run(
            question, timings, lambda *_: [], lambda *_: self._locate(gold_values)
        )

    def _locate(self, gold_values: list[object]) -> list[ValueCandidate]:
        located = []
        for value in gold_values:
            candidate = ValueCandidate(value, "gold")
            locations = tuple(sorted(
                self.index.lookup(candidate.value),
                key=lambda loc: (loc.table, loc.column),
            ))
            located.append(candidate.with_locations(locations))
        return dedupe_candidates(located)

    # ------------------------------------------------------------- shared

    def _run(self, question: str, timings, extract, lookup) -> PreprocessedQuestion:
        """The one pre-processing sequence; the two modes differ only in
        where spans (``extract``, handed the question's tokens) and
        candidates (``lookup``) come from."""
        t0 = time.perf_counter()
        tokens = tokenize(question)
        extracted = extract(question, tokens)
        words = [token.text for token in tokens]
        t1 = time.perf_counter()
        candidates = lookup(words, extracted)
        t2 = time.perf_counter()
        result = PreprocessedQuestion(
            question=question,
            tokens=tokens,
            hinted_tokens=compute_question_hints(tokens, self.schema, self.index),
            schema_hints=compute_schema_hints(tokens, self.schema, candidates),
            candidates=candidates,
            extracted=extracted,
        )
        if timings is not None:
            timings.preprocessing = (t1 - t0) + (time.perf_counter() - t2)
            timings.value_lookup = t2 - t1
        return result
