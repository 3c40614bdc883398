"""Per-database serving state: pipeline, fallback, and shared indexes.

One :class:`DatabaseRuntime` bundles everything the service needs to
answer questions against a single database: the (thread-safe)
:class:`~repro.db.database.Database`, a shared
:class:`~repro.preprocessing.pipeline.Preprocessor` (its inverted index is
built once and read concurrently), the neural
:class:`~repro.pipeline.ValueNetPipeline` when a model is available, and
the :class:`~repro.baselines.heuristic.HeuristicBaseline` used both as the
primary engine in model-free deployments and as the degraded fallback.

Inference is mode-free and the beam width is an argument of each call,
so a translate call mutates nothing shared.  The per-runtime lock has one
job: it makes :meth:`DatabaseRuntime.adopt_index` atomic against an
in-flight translation, so a batch (or a fallback answer) runs entirely
against the old index bundle and schema or entirely against the new one.
Different databases run fully in parallel, and cache hits never take the
lock.

The runtime is also the serving stack's one SQL gate.  It is the only
holder of the :class:`~repro.policy.engine.PolicyEngine` and the only
thing that executes: :meth:`DatabaseRuntime.execute_sql` (check, then
run under the budget) and :meth:`DatabaseRuntime.check_sql` (check only,
for ``execute=false`` answers) both resolve the policy config from the
runtime's routing ``database_id`` plus the requester's tenant.
"""

from __future__ import annotations

import time
from functools import partial

from repro.baselines.heuristic import HeuristicBaseline
from repro.concurrency import make_lock
from repro.db.database import Database
from repro.db.executor import execute_with_budget
from repro.errors import ReproError
from repro.model.valuenet import ValueNetModel
from repro.pipeline.valuenet import TranslationResult, ValueNetPipeline
from repro.preprocessing.pipeline import Preprocessor
from repro.schema.graph import SchemaGraph


# The gate's budget for executing one generated query: wall-clock seconds
# (enforced by a SQLite progress handler, so a pathological query
# cannot wedge a serving thread) and a result-row cap.
_EXECUTION_TIMEOUT_S = 5.0
_EXECUTION_MAX_ROWS = 10_000


class DatabaseRuntime:
    """Everything needed to serve one database.

    Args:
        database: the database to answer questions against.
        model: trained model; ``None`` serves heuristic-only (the
            fallback becomes the primary engine and responses are not
            marked degraded).
        database_id: external name for routing; defaults to the schema
            name.
        beam_size: default beam width (a translate call may pass its own).
        pipeline: pre-built pipeline override (used by tests to inject
            fakes); mutually exclusive with ``model``.
        preprocessor: the preprocessor the runtime, the neural pipeline
            and the heuristic fallback all share (and so one
            :class:`~repro.index.inverted.InvertedIndex`); the serving
            stack builds it with its
            :class:`~repro.index.registry.IndexRegistry`.  By default
            one is built over a private index.
        policy: optional :class:`~repro.policy.engine.PolicyEngine`;
            :meth:`check_sql` and :meth:`execute_sql` are its only
            callers in serving.
    """

    def __init__(
        self,
        database: Database,
        model: ValueNetModel | None = None,
        *,
        database_id: str | None = None,
        beam_size: int = 1,
        pipeline: ValueNetPipeline | None = None,
        preprocessor: Preprocessor | None = None,
        policy=None,
    ):
        if model is not None and pipeline is not None:
            raise ValueError("pass either model or pipeline, not both")
        self.database = database
        self.database_id = database_id or database.schema.name
        self.beam_size = beam_size
        self.model = model
        self.preprocessor = (
            preprocessor if preprocessor is not None else Preprocessor(database)
        )
        if pipeline is not None:
            self.pipeline = pipeline
        elif model is not None:
            self.pipeline = ValueNetPipeline(
                model,
                database,
                preprocessor=self.preprocessor,
                beam_size=beam_size,
            )
        else:
            self.pipeline = None
        # adopt_index replaces it together with the index it reads.
        self.fallback = HeuristicBaseline(  # guarded by: _lock
            database, preprocessor=self.preprocessor
        )
        self.policy = policy
        self._graph: SchemaGraph | None = None
        # Bumped by adopt_index; part of the service's cache key.
        self.generation = 0
        self._lock = make_lock(f"DatabaseRuntime[{self.database_id}]._lock")

    @property
    def has_model(self) -> bool:
        return self.pipeline is not None

    def translate(
        self,
        question: str,
        *,
        execute: bool = False,
        beam_size: int | None = None,
    ) -> TranslationResult:
        """:meth:`translate_batch` of one question.  ``execute`` runs the
        SQL through :meth:`execute_sql`, never inside the pipeline."""
        [result] = self.translate_batch([question], beam_size=beam_size)
        if execute:
            self._execute_into(result)
        return result

    def translate_batch(
        self, questions: list[str], *, beam_size: int | None = None
    ) -> list[TranslationResult]:
        """Run the neural pipeline (requires a model) over a micro-batch,
        with one fused encoder pass.

        ``beam_size`` is this call's beam width (default: the pipeline's
        configured one).  Translation only: the service passes each
        answer's SQL through the gate itself, with that request's tenant.
        """
        if self.pipeline is None:
            raise RuntimeError(f"runtime {self.database_id!r} has no model")
        with self._lock:  # against adopt_index, see the module docstring
            return self.pipeline.translate_batch(questions, beam_size=beam_size)

    def adopt_index(self, entry, *, schema=None) -> None:
        """Swap in a background-built index bundle (and optionally a
        re-introspected schema).

        Everything the translate path reads is rebound in ONE critical
        section of the per-runtime lock — the lock every translation
        holds — so a request either runs entirely against the old bundle
        or entirely against the new one:

        * ``database.schema`` is replaced on the shared object (the
          pipeline passes it to the model per call, so pointer networks
          see the new tables/columns immediately);
        * the preprocessor rebinds the entry (index and searcher),
          generator and validator;
        * the pipeline's SQL builder and the heuristic fallback are
          rebuilt against the new schema;
        * the cached PK/FK graph is reset.

        A new schema's model features are built first, outside the lock,
        so the first request after the swap finds them cached; the
        retired schema's features are evicted after it.
        """
        from repro.postprocessing.sql_builder import SqlBuilder

        if schema is not None and self.model is not None:
            self.model.schema_cache.get(schema, self.model.vocab)
        with self._lock:
            retired = self.database.schema
            if schema is not None:
                self.database.schema = schema
            self.preprocessor.rebind(entry)
            if self.pipeline is not None and hasattr(self.pipeline, "builder"):
                self.pipeline.builder = SqlBuilder(self.database.schema)
            self.fallback = HeuristicBaseline(
                self.database, preprocessor=self.preprocessor
            )
            self._graph = None
            self.generation += 1
        if schema is not None and self.model is not None and schema is not retired:
            self.model.schema_cache.discard(retired)

    @property
    def schema_graph(self) -> SchemaGraph:
        """Lazily-built PK/FK graph (for policy checks)."""
        if self._graph is None:
            self._graph = SchemaGraph(self.database.schema)
        return self._graph

    def check_sql(self, sql: str, *, tenant_id: str | None = None) -> None:
        """The gate's check-only entry: raise
        :class:`~repro.policy.engine.PolicyViolationError` when the
        policy resolved for (routing id, ``tenant_id``) blocks ``sql``.
        """
        if self.policy is not None:
            self.policy.check_sql(
                sql,
                database_id=self.database_id,
                tenant_id=tenant_id,
                schema=self.database.schema,
                graph=self.schema_graph,
            )

    def execute_sql(self, sql: str, *, tenant_id: str | None = None) -> list[tuple]:
        """The gate's execute entry: :meth:`check_sql` for this tenant,
        then run under the runtime's budget and row cap.

        The executor rejects multi-statement strings before the check
        and whether or not a policy is configured.
        """
        return execute_with_budget(
            self.database,
            sql,
            timeout_s=_EXECUTION_TIMEOUT_S,
            max_rows=_EXECUTION_MAX_ROWS,
            check_sql=partial(self.check_sql, tenant_id=tenant_id),
        )

    def translate_fallback(
        self, question: str, *, execute: bool = False
    ) -> TranslationResult:
        """Run the rule-based fallback engine."""
        with self._lock:
            result = self.fallback.translate(question)
        if execute:
            self._execute_into(result)
        return result

    def _execute_into(self, result: TranslationResult) -> None:
        """Serve ``execute=True`` for the direct (tenant-less) translate
        entries: run ``result.sql`` through :meth:`execute_sql` and fold
        rows, failure and the execution timing into ``result``."""
        if result.sql is None or result.error is not None:
            return
        start = time.perf_counter()
        try:
            result.rows = self.execute_sql(result.sql)
        except ReproError as exc:
            result.error = f"execution failed: {exc}"
        result.timings.execution = time.perf_counter() - start
