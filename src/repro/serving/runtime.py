"""Per-database serving state: pipeline, fallback, and shared indexes.

One :class:`DatabaseRuntime` bundles everything the service needs to
answer questions against a single database: the (thread-safe)
:class:`~repro.db.database.Database`, a shared
:class:`~repro.preprocessing.pipeline.Preprocessor` (its inverted index is
built once and read concurrently), the neural
:class:`~repro.pipeline.ValueNetPipeline` when a model is available, and
the :class:`~repro.baselines.heuristic.HeuristicBaseline` used both as the
primary engine in model-free deployments and as the degraded fallback.

Inference is mode-free, so the model itself is safe to share; what a
translate call does mutate is the pipeline's per-call beam override and
the fallback engine's per-translate state, so translate calls are
serialized per runtime with a lock.  Different databases still run fully
in parallel, and cache hits never take the lock.

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
from repro.sql.dialect import get_dialect


class DatabaseRuntime:
    """Everything needed to serve one database.

    Args:
        database: the database to answer questions against.
        model: trained model; ``None`` serves heuristic-only (the
            fallback becomes the primary engine and responses are not
            marked degraded).
        database_id: external name for routing; defaults to the schema
            name.
        beam_size: beam width for the neural pipeline.
        pipeline: pre-built pipeline override (used by tests to inject
            fakes); mutually exclusive with ``model``.
        preprocessor: pre-built preprocessor override; by default one is
            created against the shared index registry, so the runtime,
            the neural pipeline, and the heuristic fallback all use the
            same :class:`~repro.index.inverted.InvertedIndex` (exactly
            one per database process-wide).
        execution_timeout_s: wall-clock budget for executing one
            *generated* query (``None`` disables the budget); enforced
            via ``sqlite3.Connection.interrupt`` so a pathological query
            cannot wedge a worker.
        execution_max_rows: result-row cap for executed queries.
        policy: optional :class:`~repro.policy.engine.PolicyEngine`;
            :meth:`check_sql` and :meth:`execute_sql` are its only
            callers in serving.
        dialect: default SQL dialect for responses from this database
            (requests may override per call).
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
        execution_timeout_s: float | None = 5.0,
        execution_max_rows: int | None = 10_000,
        policy=None,
        dialect: str = "sqlite",
    ):
        if model is not None and pipeline is not None:
            raise ValueError("pass either model or pipeline, not both")
        self.database = database
        self.database_id = database_id or database.schema.name
        self.beam_size = beam_size
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
        # The fallback engine mutates shared per-translate state, like the
        # pipeline it stands in for.
        self.fallback = HeuristicBaseline(  # guarded by: _lock
            database, preprocessor=self.preprocessor
        )
        self.execution_timeout_s = execution_timeout_s
        self.execution_max_rows = execution_max_rows
        self.policy = policy
        self.dialect = get_dialect(dialect).name
        self._graph: SchemaGraph | None = None
        # Bumped by adopt_index; part of the service's cache key.
        self.generation = 0
        self._lock = make_lock(f"DatabaseRuntime[{self.database_id}]._lock")

    @property
    def has_model(self) -> bool:
        return self.pipeline is not None

    @property
    def searcher(self):
        """The shared similarity searcher (for serving metrics wiring)."""
        return self.preprocessor.searcher

    def translate(
        self,
        question: str,
        *,
        execute: bool = False,
        beam_size: int | None = None,
    ) -> TranslationResult:
        """Run the neural pipeline (requires a model).

        ``beam_size`` overrides the pipeline's configured beam for this
        call; the per-runtime lock makes the temporary override safe.
        ``execute`` runs the SQL through :meth:`execute_sql`, never
        inside the pipeline.
        """
        if self.pipeline is None:
            raise RuntimeError(f"runtime {self.database_id!r} has no model")
        with self._lock:
            configured = self.pipeline.beam_size
            if beam_size is not None:
                self.pipeline.beam_size = beam_size
            try:
                result = self.pipeline.translate(question)
            finally:
                self.pipeline.beam_size = configured
        if execute:
            self._execute_into(result)
        return result

    def translate_batch(
        self,
        questions: list[str],
        *,
        beam_size: int | None = None,
        encode_observer=None,
    ) -> list[TranslationResult]:
        """Translate a micro-batch with one fused encoder pass.

        Translation only: the service passes each answer's SQL through
        the gate itself, with that request's tenant.
        """
        if self.pipeline is None:
            raise RuntimeError(f"runtime {self.database_id!r} has no model")
        with self._lock:
            configured = self.pipeline.beam_size
            if beam_size is not None:
                self.pipeline.beam_size = beam_size
            try:
                return self.pipeline.translate_batch(
                    questions, encode_observer=encode_observer
                )
            finally:
                self.pipeline.beam_size = configured

    def adopt_index(self, entry, *, schema=None):
        """Swap in a background-built index bundle (and optionally a
        re-introspected schema); returns the previously bound searcher.

        Everything the translate path reads is rebound in ONE critical
        section of the per-runtime lock — the same lock that serializes
        :meth:`translate` — so a request either runs entirely against the
        old bundle or entirely against the new one:

        * ``database.schema`` is replaced on the shared object (the
          pipeline passes it to the model per call, so pointer networks
          see the new tables/columns immediately);
        * the preprocessor rebinds index, searcher, generator, validator;
        * the pipeline's SQL builder and the heuristic fallback are
          rebuilt against the new schema;
        * the cached PK/FK graph is reset.
        """
        from repro.postprocessing.sql_builder import SqlBuilder

        with self._lock:
            old_searcher = self.preprocessor.searcher
            if schema is not None:
                self.database.schema = schema
            self.preprocessor.rebind(entry.index, entry.searcher)
            if self.pipeline is not None and hasattr(self.pipeline, "builder"):
                self.pipeline.builder = SqlBuilder(self.database.schema)
            self.fallback = HeuristicBaseline(
                self.database, preprocessor=self.preprocessor
            )
            self._graph = None
            self.generation += 1
        return old_searcher

    @property
    def schema_graph(self) -> SchemaGraph:
        """Lazily-built PK/FK graph (for policy checks and re-rendering)."""
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
            timeout_s=self.execution_timeout_s,
            max_rows=self.execution_max_rows,
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
