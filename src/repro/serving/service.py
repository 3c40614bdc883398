"""The concurrent translation service: queue, worker pool, micro-batching.

Request lifecycle::

    submit() -> bounded fair queue -> a worker takes the next request plus
    the compatible ones queued behind it (same database + beam size, up to
    ``max_batch``; ``FairQueue.pop_batch`` owns any wait) -> per request:
    cache lookup / triage -> ONE batched neural pipeline call for the whole
    micro-batch (fused encoder pass, per-request decode) -> on failure or
    deadline breach, heuristic fallback tagged ``degraded`` -> every answer
    (model, heuristic, cached) through the runtime's SQL gate -> response
    event set.

Deadline policy: a request that is already past its deadline when a
worker picks it up skips the model entirely and is answered by the
heuristic fallback (reason ``deadline``); a model answer that completes
*after* the deadline is still returned (the work is already paid for) but
tagged degraded with reason ``late``.  Model exceptions and translation
errors — including model SQL the gate allows but SQLite cannot run — fall
back with reason ``model_error``; a policy block is final for the request
and never falls back.  Failure injection
(``inject_failure=True`` on a request, honored only when the service was
built with ``allow_failure_injection``) exercises the same path for load
tests and chaos checks.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter

from repro.concurrency import make_lock
from repro.errors import ExecutionError, ReproError, TranslationError
from repro.logs import get_logger
from repro.pipeline.timing import STAGES
from repro.pipeline.valuenet import TranslationResult
from repro.policy.engine import PolicyViolationError
from repro.serving.cache import CacheKey, TranslationCache
from repro.metrics import MetricsRegistry
from repro.serving.runtime import DatabaseRuntime
from repro.sql.dialect import DEFAULT_DIALECT, get_dialect
from repro.tenancy.scheduler import FairQueue, LaneBacklogFull

_LOG = get_logger(__name__)


class ServingError(ReproError):
    """Base class for serving-layer failures."""


class QueueFullError(ServingError):
    """The bounded request queue is at capacity (shed load upstream)."""


class UnknownDatabaseError(ServingError):
    """The request names a database the service does not host."""


class ServiceStoppedError(ServingError):
    """submit() was called on a stopped (or never started) service."""


@dataclass
class ServeResponse:
    """What the service returns for one request."""

    question: str
    database_id: str
    sql: str | None = None
    rows: list[tuple] | None = None
    error: str | None = None
    engine: str = "model"  # "model" | "heuristic" | "cache"
    degraded: bool = False
    degraded_reason: str | None = None
    cache_hit: bool = False
    timings: dict[str, float] = field(default_factory=dict)
    queue_ms: float = 0.0
    service_ms: float = 0.0
    batch_size: int = 1
    tenant_id: str | None = None
    dialect: str = DEFAULT_DIALECT
    policy: dict | None = None  # structured violations when policy-blocked

    @property
    def ok(self) -> bool:
        return self.sql is not None and self.error is None

    @property
    def policy_blocked(self) -> bool:
        return self.policy is not None

    def as_dict(self) -> dict:
        return {
            "question": self.question,
            "database_id": self.database_id,
            "sql": self.sql,
            "rows": [list(row) for row in self.rows] if self.rows is not None else None,
            "error": self.error,
            "engine": self.engine,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "cache_hit": self.cache_hit,
            "timings_ms": {k: 1000.0 * v for k, v in self.timings.items()},
            "queue_ms": self.queue_ms,
            "service_ms": self.service_ms,
            "batch_size": self.batch_size,
            "tenant_id": self.tenant_id,
            "dialect": self.dialect,
            "policy": self.policy,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ServeResponse":
        """Inverse of :meth:`as_dict` (used across the cluster IPC boundary)."""
        return cls(
            question=payload.get("question", ""),
            database_id=payload.get("database_id", ""),
            sql=payload.get("sql"),
            rows=(
                [tuple(row) for row in payload["rows"]]
                if payload.get("rows") is not None
                else None
            ),
            error=payload.get("error"),
            engine=payload.get("engine", "model"),
            degraded=bool(payload.get("degraded", False)),
            degraded_reason=payload.get("degraded_reason"),
            cache_hit=bool(payload.get("cache_hit", False)),
            timings={
                k: ms / 1000.0
                for k, ms in (payload.get("timings_ms") or {}).items()
            },
            queue_ms=float(payload.get("queue_ms", 0.0)),
            service_ms=float(payload.get("service_ms", 0.0)),
            batch_size=int(payload.get("batch_size", 1)),
            tenant_id=payload.get("tenant_id"),
            dialect=payload.get("dialect", DEFAULT_DIALECT),
            policy=payload.get("policy"),
        )


@dataclass
class ServeRequest:
    """An in-flight request; ``done`` fires once ``response`` is set.

    ``on_done``, when given, is then called once with the request, on
    the serving thread that resolved it (a cluster worker sends the
    response frame from there); what it raises is logged, not raised.
    """

    question: str
    database_id: str
    beam_size: int
    execute: bool
    inject_failure: bool
    deadline: float  # monotonic seconds
    enqueued_at: float
    tenant_id: str | None = None
    tenant_weight: int = 1
    dialect: str = DEFAULT_DIALECT
    on_done: Callable[["ServeRequest"], None] | None = None
    done: threading.Event = field(default_factory=threading.Event)
    response: ServeResponse | None = None

    def resolve(self, response: ServeResponse) -> None:
        self.response = response
        self.done.set()
        if self.on_done is not None:
            try:
                self.on_done(self)
            except Exception:
                # The serving thread still owes its batch's other requests.
                _LOG.exception("on_done callback failed (%s)", self.database_id)


@dataclass
class _BatchEntry:
    """Worker-side bookkeeping for one non-cached request of a micro-batch."""

    request: ServeRequest
    response: ServeResponse
    key: CacheKey
    result: TranslationResult | None = None


_SHUTDOWN = object()
_batch_key = attrgetter("database_id", "beam_size")  # what one encode can fuse


class TranslationService:
    """Bounded-queue, worker-pool NL-to-SQL service over many databases.

    Args:
        runtimes: the databases to serve (ids must be unique).
        workers: worker-thread count.
        queue_size: bound on queued requests; :meth:`submit` raises
            :class:`QueueFullError` beyond it.
        per_tenant_depth: per-tenant backlog bound inside the fair
            queue (``None`` = global bound only).  With tenancy enabled
            this is what keeps one hot tenant from occupying the whole
            shared queue: its lane fills and *its* requests shed while
            other tenants keep enqueueing.
        tenancy: optional :class:`~repro.tenancy.controller.TenancyController`
            the HTTP front-end consults for auth/rate/quota admission
            and the ``/tenants`` endpoints.  The service itself only
            schedules by tenant; enforcement happens at the front door.
        max_batch: micro-batch cap per worker dequeue.
        cache: result cache (one is created when omitted).  Caching
            cannot be switched off; pass a cache with a tiny TTL instead.
        default_timeout_ms: deadline applied when a request has none.
        metrics: registry to record into (created when omitted).
        allow_failure_injection: honor per-request ``inject_failure``
            flags (keep off outside load tests).
        ready: initial readiness.  Pass ``False`` when index warm-up
            happens after construction and call :meth:`mark_ready` once
            it completes; ``/readyz`` answers 503 until then so load
            balancers do not route traffic to a cold instance.
        allow_empty: permit constructing with zero runtimes.  Cluster
            workers whose consistent-hash shard is empty start this way
            and adopt databases via :meth:`add_runtime` only when the
            supervisor fails traffic over to them.
    """

    def __init__(
        self,
        runtimes: list[DatabaseRuntime],
        *,
        workers: int = 4,
        queue_size: int = 64,
        per_tenant_depth: int | None = None,
        max_batch: int = 8,
        cache: TranslationCache | None = None,
        default_timeout_ms: float = 10_000.0,
        metrics: MetricsRegistry | None = None,
        allow_failure_injection: bool = False,
        ready: bool = True,
        allow_empty: bool = False,
        tenancy=None,
    ):
        if not runtimes and not allow_empty:
            raise ValueError("need at least one DatabaseRuntime")
        self.runtimes: dict[str, DatabaseRuntime] = {}
        for runtime in runtimes:
            if runtime.database_id in self.runtimes:
                raise ValueError(f"duplicate database id {runtime.database_id!r}")
            self.runtimes[runtime.database_id] = runtime
        self.workers = workers
        self.max_batch = max(1, max_batch)
        self.cache = cache if cache is not None else TranslationCache()
        self.default_timeout_ms = default_timeout_ms
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.allow_failure_injection = allow_failure_injection
        self.tenancy = tenancy
        self._queue = FairQueue(
            maxsize=queue_size, per_lane_limit=per_tenant_depth
        )
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stopping = False
        self._ready = threading.Event()
        if ready:
            self._ready.set()
        self._runtime_lock = make_lock("TranslationService._runtime_lock")
        # Set by KBRefresher.attach_service; read by the admin routes
        # and health() only.
        self.refresher = None
        # Epoch stamp is for human display only; uptime math uses the
        # monotonic twin below (see WALLCLOCK in docs/analysis-rules.md).
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self._init_metrics()

    # ------------------------------------------------------------- metrics

    def _init_metrics(self) -> None:
        m = self.metrics
        self._requests_total = m.counter(
            "serving_requests_total", "requests accepted into the queue")
        self._rejected_total = m.counter(
            "serving_rejected_total", "requests rejected (queue full)")
        self._rejected_backlog = m.counter(
            "serving_rejected_backlog_total",
            "requests rejected because the tenant's own lane was full")
        self._tenant_requests = m.labeled_counter(
            "tenant_requests_total",
            "requests accepted into the queue, per tenant")
        self._tenant_latency = m.labeled_histogram(
            "tenant_latency_seconds", "total in-service latency, per tenant")
        self._responses_ok = m.counter(
            "serving_responses_ok_total", "successful responses")
        self._responses_error = m.counter(
            "serving_responses_error_total", "responses with an error")
        self._responses_degraded = m.counter(
            "serving_responses_degraded_total", "responses served by fallback")
        self._cache_hits = m.counter(
            "serving_cache_hits_total", "cache hits")
        self._cache_misses = m.counter(
            "serving_cache_misses_total", "cache misses")
        self._queue_depth = m.gauge(
            "serving_queue_depth", "requests currently queued")
        self._inflight = m.gauge(
            "serving_inflight", "requests currently being processed")
        self._batch_hist = m.histogram(
            "serving_batch_size", "micro-batch sizes",
            buckets=tuple(float(n) for n in range(1, 17)))
        self._encode_batch_hist = m.histogram(
            "serving_encode_batch_seconds",
            "wall time of one fused batched-encode pass")
        self._queue_wait = m.histogram(
            "serving_queue_wait_seconds", "time from submit to worker pickup")
        self._latency = m.histogram(
            "serving_latency_seconds", "total in-service latency")
        self._stage_hists = {
            stage: m.histogram(
                f"serving_stage_{stage}_seconds",
                f"per-request {stage} stage latency (Table II split)")
            for stage in STAGES
        }
        self._internal_errors = m.counter(
            "serving_internal_errors_total",
            "unexpected exceptions caught in the worker/finalize paths")
        self._model_errors = m.counter(
            "serving_model_errors_total",
            "batched model calls that raised (answered by fallback)")
        self._execution_errors = m.counter(
            "serving_execution_errors_total",
            "allowed SQL that failed to execute (model, heuristic or cached)")

    # ----------------------------------------------------------- lifecycle

    def start(self) -> "TranslationService":
        if self._started:
            return self
        self._started = True
        self._stopping = False
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serving-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, *, timeout: float = 10.0) -> None:
        """Drain the queue and join the workers (idempotent)."""
        if not self._started:
            return
        self._stopping = True
        for _ in self._threads:
            self._queue.push_control(_SHUTDOWN)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        self._started = False

    def drain(self, *, timeout: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, flush the queue, then stop.

        New :meth:`submit` calls raise :class:`ServiceStoppedError`
        immediately; requests already accepted keep being processed until
        the queue is empty and no worker has a request in flight, or the
        ``timeout`` budget runs out.  Returns True when the drain was
        clean (nothing was abandoned in the queue).
        """
        self._stopping = True
        deadline = time.monotonic() + max(0.0, timeout)
        clean = False
        while time.monotonic() < deadline:
            if self._queue.empty() and self._inflight.value <= 0:
                clean = True
                break
            time.sleep(0.02)
        self.stop(timeout=max(0.5, deadline - time.monotonic()))
        return clean

    # ---------------------------------------------------------- readiness

    def mark_ready(self) -> None:
        """Flip readiness on (idempotent); ``/readyz`` starts answering 200."""
        self._ready.set()

    def is_ready(self) -> bool:
        return self._ready.is_set() and not self._stopping

    # ------------------------------------------------------- runtime admin

    def add_runtime(self, runtime: DatabaseRuntime) -> None:
        """Register another database after construction.

        Used by cluster workers for shard failover: a worker starts with
        only its shard warmed and lazily adopts a database when the
        supervisor routes it traffic for a dead sibling's shard.
        """
        with self._runtime_lock:
            if runtime.database_id in self.runtimes:
                raise ValueError(f"duplicate database id {runtime.database_id!r}")
            self.runtimes[runtime.database_id] = runtime

    def on_index_swap(self, database_id: str, entry, *, schema=None) -> bool:
        """Adopt a background-rebuilt index bundle for one database.

        Called by the KB refresher after it published ``entry`` to the
        registry.  Rebinds the runtime under its own lock (which bumps
        the generation in its cache keys, so no pre-swap answer is read
        again).  Returns False when this service does not host the
        database.
        """
        with self._runtime_lock:
            runtime = self.runtimes.get(database_id)
        if runtime is None:
            return False
        runtime.adopt_index(entry, schema=schema)
        return True

    def __enter__(self) -> "TranslationService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ---------------------------------------------------------- submission

    def submit(
        self,
        question: str,
        database_id: str | None = None,
        *,
        beam_size: int | None = None,
        execute: bool = False,
        timeout_ms: float | None = None,
        inject_failure: bool = False,
        tenant_id: str | None = None,
        tenant_weight: int = 1,
        dialect: str | None = None,
        on_done: Callable[[ServeRequest], None] | None = None,
    ) -> ServeRequest:
        """Enqueue a request; returns immediately with the in-flight handle.

        ``database_id`` may be omitted when the service hosts exactly one
        database.  ``tenant_id``/``tenant_weight`` place the request on
        the tenant's fair-queue lane (anonymous traffic shares one lane),
        so a backlogged tenant is drained at its priority-class weight
        instead of FIFO order.  ``dialect`` selects the SQL dialect of
        the response (``sqlite`` / ``postgres`` / ``mysql``); when
        omitted, the target database's configured default applies.
        ``on_done`` is called once the request is resolved (see
        :class:`ServeRequest`); a request that raises here never calls it.
        """
        if self._stopping:
            raise ServiceStoppedError("service is stopping")
        if database_id is None:
            if len(self.runtimes) != 1:
                raise UnknownDatabaseError(
                    "database_id is required when serving multiple databases"
                )
            database_id = next(iter(self.runtimes))
        elif database_id not in self.runtimes:
            raise UnknownDatabaseError(
                f"unknown database {database_id!r}; serving: "
                + ", ".join(sorted(self.runtimes))
            )
        runtime = self.runtimes[database_id]
        if dialect is None:
            dialect = runtime.dialect
        try:
            dialect_name = get_dialect(dialect).name
        except TranslationError as exc:
            # Surfaced as a 400 by the HTTP layer (bad request parameter).
            raise ValueError(str(exc)) from None
        now = time.monotonic()
        timeout_s = (
            timeout_ms if timeout_ms is not None else self.default_timeout_ms
        ) / 1000.0
        request = ServeRequest(
            question=question,
            database_id=database_id,
            beam_size=int(beam_size) if beam_size is not None else runtime.beam_size,
            execute=execute,
            inject_failure=inject_failure and self.allow_failure_injection,
            deadline=now + timeout_s,
            enqueued_at=now,
            tenant_id=tenant_id,
            tenant_weight=max(1, int(tenant_weight)),
            dialect=dialect_name,
            on_done=on_done,
        )
        try:
            self._queue.push(
                request.tenant_id, request, weight=request.tenant_weight
            )
        except LaneBacklogFull as exc:
            self._rejected_backlog.inc()
            raise QueueFullError(str(exc)) from None
        except queue.Full as exc:
            self._rejected_total.inc()
            raise QueueFullError(str(exc)) from None
        self._requests_total.inc()
        if tenant_id is not None:
            self._tenant_requests.labels(tenant_id).inc()
        self._queue_depth.set(self._queue.qsize())
        return request

    def translate(self, question: str, database_id: str | None = None, **kwargs) -> ServeResponse:
        """Closed-loop convenience: submit and wait for the response."""
        request = self.submit(question, database_id, **kwargs)
        budget = max(0.0, request.deadline - time.monotonic())
        # Workers enforce the deadline; the wait cap only guards against a
        # wedged worker, so it is generous.
        if not request.done.wait(timeout=budget + 60.0):
            return ServeResponse(
                question=question,
                database_id=request.database_id,
                error="internal timeout: no worker picked up the request",
                engine="none",
            )
        assert request.response is not None
        return request.response

    # ------------------------------------------------------------- workers

    def _worker_loop(self) -> None:
        while True:
            batch = self._queue.pop_batch(self.max_batch, _batch_key)
            if batch[0] is _SHUTDOWN:
                return
            self._queue_depth.set(self._queue.qsize())
            self._process_batch(batch)

    # taint: source (batch holds requests the HTTP thread queued; the queue hop breaks the static call chain)
    def _process_batch(self, batch: list[ServeRequest]) -> None:
        for _ in batch:
            self._inflight.inc()
        try:
            # Everything after the inflight accounting runs under the
            # shield — even the runtime lookup and histogram observe — so
            # no exception can kill the worker thread with requests of
            # this batch still unresolved.
            self._batch_hist.observe(float(len(batch)))
            runtime = self.runtimes[batch[0].database_id]
            self._process_batch_inner(runtime, batch)
        except Exception as exc:  # never let a worker die
            self._internal_errors.inc()
            for request in batch:
                if request.done.is_set():
                    continue
                response = ServeResponse(
                    question=request.question,
                    database_id=request.database_id,
                    error=f"internal error: {exc}",
                    engine="none",
                    tenant_id=request.tenant_id,
                )
                self._record(response)
                request.resolve(response)
        finally:
            for _ in batch:
                self._inflight.dec()

    def _process_batch_inner(
        self, runtime: DatabaseRuntime, batch: list[ServeRequest]
    ) -> None:
        """Triage every request, run ONE batched model call, finalize.

        Phase 1 answers cache hits immediately and classifies the rest:
        injected failures and already-expired requests go straight to
        the fallback; the remainder form the model micro-batch.  Phase 2
        translates that micro-batch with a single fused encoder pass.
        Phase 3 applies the per-request deadline/degradation/caching
        semantics unchanged from the sequential implementation.
        """
        size = len(batch)
        picked_up = time.monotonic()
        # Read once: an answer that straddles an index swap is put under a dead key.
        generation = runtime.generation
        pending: list[_BatchEntry] = []
        model_entries: list[_BatchEntry] = []
        for request in batch:
            queue_wait = picked_up - request.enqueued_at
            self._queue_wait.observe(queue_wait)
            response = ServeResponse(
                question=request.question,
                database_id=request.database_id,
                queue_ms=1000.0 * queue_wait,
                batch_size=size,
                tenant_id=request.tenant_id,
                dialect=request.dialect,
            )
            key = CacheKey.make(
                request.database_id,
                request.question,
                request.beam_size,
                request.dialect,
                generation,
            )
            cached = self.cache.get(key)
            if cached is not None:
                self._cache_hits.inc()
                response.engine = "cache"
                response.cache_hit = True
                # Policy configs differ per tenant, so the cached canonical
                # SQL passes the gate again for THIS request's tenant.
                self._answer(runtime, request, response, cached)
                response.service_ms = 1000.0 * (time.monotonic() - picked_up)
                self._record(response)
                request.resolve(response)
                continue
            self._cache_misses.inc()
            entry = _BatchEntry(request=request, response=response, key=key)
            pending.append(entry)
            if request.inject_failure:
                response.degraded = True
                response.degraded_reason = "injected"
            elif picked_up >= request.deadline:
                response.degraded = True
                response.degraded_reason = "deadline"
            elif runtime.has_model:
                model_entries.append(entry)

        if model_entries:
            # One call for the whole micro-batch: the worker already
            # grouped by database + beam size, so a single fused encode
            # serves every entry.
            try:
                results = runtime.translate_batch(
                    [entry.request.question for entry in model_entries],
                    beam_size=batch[0].beam_size,
                )
            except Exception as exc:
                self._model_errors.inc()
                for entry in model_entries:
                    entry.response.degraded = True
                    entry.response.degraded_reason = "model_error"
                    entry.response.error = str(exc)
            else:
                # One observation per model batch: every encoded question's
                # record carries the fused pass's wall time (0.0: none ran).
                encode_seconds = max(
                    (r.timings.encode_batch for r in results), default=0.0
                )
                if encode_seconds > 0.0:
                    self._encode_batch_hist.observe(encode_seconds)
                for entry, result in zip(model_entries, results):
                    if result.error is not None:
                        entry.response.degraded = True
                        entry.response.degraded_reason = "model_error"
                        entry.response.error = result.error
                    else:
                        entry.result = result

        for entry in pending:
            try:
                self._finalize(runtime, entry, picked_up)
            except Exception as exc:
                self._internal_errors.inc()
                entry.response = ServeResponse(
                    question=entry.request.question,
                    database_id=entry.request.database_id,
                    error=f"internal error: {exc}",
                    engine="none",
                    tenant_id=entry.request.tenant_id,
                )
            self._record(entry.response)
            entry.request.resolve(entry.response)

    def _finalize(
        self, runtime: DatabaseRuntime, entry: "_BatchEntry", picked_up: float
    ) -> None:
        request, response = entry.request, entry.response
        result = entry.result
        if result is not None and not self._answer(runtime, request, response, result):
            # The gate allowed the model's SQL but SQLite could not run
            # it: same outcome as a model that produced no SQL.
            response.degraded = True
            response.degraded_reason = "model_error"
        if result is None or response.degraded:
            # Degraded, or no model configured (the heuristic IS the
            # primary engine); its outcome supersedes the model's.
            response.engine = "heuristic"
            result = runtime.translate_fallback(request.question)
            self._answer(runtime, request, response, result)

        finished = time.monotonic()
        if (
            response.engine == "model"
            and finished > request.deadline
            and not response.degraded
        ):
            # The model answer arrived late; return it but flag the breach.
            response.degraded = True
            response.degraded_reason = "late"
        response.service_ms = 1000.0 * (finished - picked_up)

        if response.ok and not response.degraded:
            # Only the canonical SQL and the stage timings: a later hit
            # passes them through the same tail as this answer.
            self.cache.put(
                entry.key,
                TranslationResult(request.question, result.sql, timings=result.timings),
            )

    def _answer(
        self,
        runtime: DatabaseRuntime,
        request: ServeRequest,
        response: ServeResponse,
        result: TranslationResult,
    ) -> bool:
        """The one tail of every answer — model, heuristic or cached.

        Canonical SQLite SQL -> the runtime's gate with the requester's
        tenant (it executes when the request asked for rows) -> dialect
        re-render of a clean answer.  A policy block is final: the
        response carries the structured violations (HTTP maps them to a
        403) and nothing ran.  Returns False only when allowed SQL
        failed to execute, so the caller can decide whether to degrade.
        """
        response.sql = sql = result.sql
        response.error = result.error
        response.timings = result.timings.as_dict()
        if sql is None:
            return True
        try:
            if request.execute:
                start = time.perf_counter()
                try:
                    response.rows = runtime.execute_sql(
                        sql, tenant_id=request.tenant_id
                    )
                finally:
                    response.timings["execution"] = time.perf_counter() - start
            else:
                runtime.check_sql(sql, tenant_id=request.tenant_id)
        except PolicyViolationError as exc:
            response.policy = exc.as_dict()
            response.error = str(exc)
            return True
        except ExecutionError as exc:
            self._execution_errors.inc()
            response.error = f"execution failed: {exc}"
            return False
        if request.dialect != DEFAULT_DIALECT:
            from repro.sql.parser import parse_sql
            from repro.sql.render import render_sql

            try:
                query = parse_sql(sql, runtime.database.schema)
                response.sql = render_sql(query, runtime.schema_graph, request.dialect)
            except ReproError as exc:  # generated SQL outside our subset
                response.sql = None
                response.error = f"dialect rendering failed: {exc}"
        return True

    # ------------------------------------------------------------ recording

    def _record(self, response: ServeResponse) -> None:
        if response.ok:
            self._responses_ok.inc()
        else:
            self._responses_error.inc()
        if response.degraded:
            self._responses_degraded.inc()
        self._latency.observe(response.service_ms / 1000.0)
        if response.tenant_id is not None:
            self._tenant_latency.labels(response.tenant_id).observe(
                response.service_ms / 1000.0
            )
        if response.cache_hit:
            return  # cached timings describe work that did not run now
        for stage, seconds in response.timings.items():
            hist = self._stage_hists.get(stage)
            if hist is not None and seconds > 0.0:
                hist.observe(seconds)

    # ------------------------------------------------------------- health

    def health(self) -> dict:
        with self._runtime_lock:
            runtimes = list(self.runtimes.values())
        return {
            "status": "stopping" if self._stopping else (
                "ok" if self._started else "idle"),
            "ready": self.is_ready(),
            "uptime_s": time.monotonic() - self._started_monotonic,
            "databases": sorted(self.runtimes),
            "workers": self.workers,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self._queue.maxsize,
            "queue_lanes": self._queue.lanes(),
            "cache": self.cache.stats(),
            "value_search": {
                runtime.database_id: runtime.preprocessor.searcher.stats_snapshot()
                for runtime in runtimes
            },
            "evolve": (
                self.refresher.stats() if self.refresher is not None else None
            ),
        }
