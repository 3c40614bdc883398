"""Multi-process sharded serving: supervisor, router, and front-end glue.

:class:`ClusterService` presents the same duck-typed surface as
:class:`~repro.serving.service.TranslationService` (``translate``,
``health``, ``metrics``, ``is_ready``), so the stdlib HTTP front-end
(:class:`~repro.serving.http.ServingServer`) serves a cluster without
changes.  Behind that surface it:

* forks N worker processes (fork start method; each worker builds its
  own ``TranslationService`` and warms only its shard's indexes),
* routes requests to workers by **consistent hashing** on ``db_id``
  (:class:`~repro.cluster.router.HashRing`) so each worker's schema and
  index caches stay hot for its shard,
* speaks the length-prefixed JSON protocol of
  :mod:`repro.cluster.protocol` with per-request ids, deadlines
  propagated as remaining budgets, and a bounded in-flight **window**
  per worker,
* supervises: heartbeat pings with miss-based hang detection, SIGKILL +
  automatic restart with exponential backoff, a circuit breaker that
  stops restarting a crash-looping worker, requeue-or-fail-fast for
  requests caught on a dead worker, and graceful drain on shutdown,
* aggregates metrics: ``/metrics`` merges every worker's snapshot with
  the supervisor's own counters and per-worker liveness gauges.

Failure semantics for one accepted request: it is either answered (200,
possibly degraded) or rejected with a *retriable* error
(:class:`~repro.serving.service.QueueFullError` → HTTP 503).  A request
in flight on a worker that dies is requeued once to another live worker
when its deadline allows; otherwise it fails fast with the retriable
rejection.  A request whose deadline expires while still queued
supervisor-side is rejected without ever occupying a worker slot.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.cluster import protocol
from repro.cluster.health import CircuitBreaker, WorkerStatus
from repro.concurrency import ExponentialBackoff, make_lock, make_rlock
from repro.logs import get_logger
from repro.cluster.router import HashRing
from repro.cluster.worker import WorkerSpec, worker_entry
from repro.metrics import (
    MetricsRegistry,
    merge_snapshots,
    render_snapshot_text,
)
from repro.serving.service import (
    QueueFullError,
    ServeResponse,
    UnknownDatabaseError,
)

_LOG = get_logger(__name__)


@dataclass
class ClusterConfig:
    """Supervision and routing knobs (defaults fit tests and smoke runs)."""

    workers: int = 2
    max_inflight: int = 16            # per-worker in-flight window
    dispatch_queue_size: int = 128    # supervisor-side bound per worker
    heartbeat_interval_s: float = 0.5
    heartbeat_misses: int = 6         # missed pongs before a kill
    ready_timeout_s: float = 120.0    # warm-up budget before a kill
    restart_backoff_initial_s: float = 0.25
    restart_backoff_max_s: float = 10.0
    breaker_max_failures: int = 5
    breaker_window_s: float = 60.0
    max_attempts: int = 2             # dispatch attempts per request
    ring_replicas: int = 64
    default_timeout_ms: float = 10_000.0


@dataclass
class _Pending:
    """One accepted request travelling through the cluster."""

    request_id: int
    question: str
    database_id: str
    beam_size: int | None
    execute: bool
    inject_failure: bool
    deadline: float                    # supervisor monotonic
    tenant_id: str | None = None
    tenant_weight: int = 1
    dialect: str | None = None
    attempts: int = 0
    excluded: set[int] = field(default_factory=set)
    done: threading.Event = field(default_factory=threading.Event)
    payload: dict | None = None
    reject_reason: str | None = None

    def resolve_payload(self, payload: dict) -> None:
        self.payload = payload
        self.done.set()

    def reject(self, reason: str) -> None:
        self.reject_reason = reason
        self.done.set()


_STOP = object()


class _WorkerHandle:
    """Supervisor-side state for one worker slot (survives restarts)."""

    def __init__(self, spec: WorkerSpec, config: ClusterConfig):
        self.spec = spec
        self.config = config
        self.worker_id = spec.worker_id
        self.status = WorkerStatus.STOPPED
        self.proc: multiprocessing.process.BaseProcess | None = None
        self.sock: socket.socket | None = None
        self.conn: protocol.FrameConnection | None = None
        self.incarnation = 0
        self.window = threading.Semaphore(config.max_inflight)
        self.dispatch: queue.Queue = queue.Queue(maxsize=config.dispatch_queue_size)
        self.pending: dict[int, _Pending] = {}  # guarded by: pending_lock
        self.pending_lock = make_lock(f"_WorkerHandle[{spec.worker_id}].pending_lock")
        self.send_lock = make_lock(f"_WorkerHandle[{spec.worker_id}].send_lock")
        self.ready_event = threading.Event()
        self.backoff = ExponentialBackoff(
            initial=config.restart_backoff_initial_s,
            max_delay=config.restart_backoff_max_s,
        )
        self.breaker = CircuitBreaker(
            max_failures=config.breaker_max_failures,
            window_s=config.breaker_window_s,
        )
        self.restart_at = 0.0
        self.started_at = 0.0
        self.ready_since = 0.0
        self.last_pong = 0.0
        self.restart_count = 0
        self.success_recorded = False
        self.health_snapshot: dict = {}
        self.metrics_snapshot: dict = {}

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    def pending_count(self) -> int:
        """In-flight requests on this worker (consistent read)."""
        with self.pending_lock:
            return len(self.pending)


class _ClusterMetrics:
    """Fleet-wide metrics view: worker snapshots + supervisor counters."""

    def __init__(self, cluster: "ClusterService"):
        self._cluster = cluster

    def snapshot(self) -> dict:
        fleet = merge_snapshots(
            [h.metrics_snapshot for h in self._cluster.handles if h.metrics_snapshot]
        )
        fleet.update(self._cluster.registry.snapshot())
        return {"fleet": fleet, "workers": self._cluster.worker_states()}

    def render_text(self) -> str:
        data = self.snapshot()
        lines = [render_snapshot_text(data["fleet"]).rstrip("\n")]
        lines.append("# TYPE cluster_worker_up gauge")
        for worker_id, state in sorted(data["workers"].items()):
            up = 1 if state["status"] == WorkerStatus.READY.value else 0
            lines.append(f'cluster_worker_up{{worker="{worker_id}"}} {up}')
        lines.append("# TYPE cluster_worker_restarts counter")
        for worker_id, state in sorted(data["workers"].items()):
            lines.append(
                f'cluster_worker_restarts{{worker="{worker_id}"}} '
                f'{state["restarts"]}'
            )
        return "\n".join(lines) + "\n"


class ClusterService:
    """Supervisor + router front-end over N forked serving workers.

    Args:
        databases: ``(db_id, sqlite_path)`` pairs — cluster workers open
            databases by path, so in-memory databases cannot be served.
        model_path: saved model directory (``None`` = heuristic-only).
        config: supervision/routing knobs.
        metrics: supervisor-local registry (created when omitted);
            worker-side serving metrics are merged in at scrape time.
        tenancy: optional :class:`~repro.tenancy.controller.TenancyController`
            — admission (auth/rate/quota) runs in the supervisor's HTTP
            front-end; workers only receive the already-admitted tenant
            identity over IPC for fair queueing and per-tenant metrics.
        spec_defaults: extra :class:`WorkerSpec` fields applied to every
            worker (threads, queue_size, per_tenant_depth, cache sizing,
            index_cache, ...).
    """

    def __init__(
        self,
        databases: list[tuple[str, str]],
        *,
        model_path: str | None = None,
        config: ClusterConfig | None = None,
        metrics: MetricsRegistry | None = None,
        verbose: bool = False,
        tenancy=None,
        **spec_defaults,
    ):
        if not databases:
            raise ValueError("need at least one (db_id, path) database")
        self.databases = [(str(db_id), str(path)) for db_id, path in databases]
        self.database_ids = {db_id for db_id, _ in self.databases}
        if len(self.database_ids) != len(self.databases):
            raise ValueError("duplicate database ids")
        self.config = config or ClusterConfig()
        if self.config.workers < 1:
            raise ValueError("cluster needs at least one worker")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError("cluster serving requires the fork start method")
        self._ctx = multiprocessing.get_context("fork")
        self.verbose = verbose
        self.ring = HashRing(
            range(self.config.workers), replicas=self.config.ring_replicas
        )
        shards = self.ring.shards(sorted(self.database_ids))
        self.handles = [
            _WorkerHandle(
                WorkerSpec(
                    worker_id=worker_id,
                    databases=tuple(self.databases),
                    shard=tuple(shards[worker_id]),
                    model_path=model_path,
                    default_timeout_ms=self.config.default_timeout_ms,
                    max_inflight=self.config.max_inflight,
                    **spec_defaults,
                ),
                self.config,
            )
            for worker_id in range(self.config.workers)
        ]
        self.registry = metrics if metrics is not None else MetricsRegistry()
        self.metrics = _ClusterMetrics(self)
        self.tenancy = tenancy
        # The /admin/refresh route broadcasts only when workers actually
        # run a refresher (spec_defaults carry the interval to them).
        self.refresh_enabled = (
            spec_defaults.get("kb_refresh_interval_s") is not None
        )
        self._ids = itertools.count(1)
        self._ping_ids = itertools.count(1)
        self._lock = make_rlock("ClusterService._lock")
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stopping = False
        # Epoch stamp is for human display only; uptime math uses the
        # monotonic twin below (see WALLCLOCK in docs/analysis-rules.md).
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        m = self.registry
        self._requests_total = m.counter(
            "cluster_requests_total", "requests accepted by the front-end")
        self._rejected_total = m.counter(
            "cluster_rejected_total", "requests rejected (retriable)")
        self._expired_total = m.counter(
            "cluster_expired_total",
            "requests whose deadline expired before occupying a worker slot")
        self._requeued_total = m.counter(
            "cluster_requeued_total", "requests requeued off a dead worker")
        self._restarts_total = m.counter(
            "cluster_worker_restarts_total", "worker processes restarted")
        self._workers_alive = m.gauge(
            "cluster_workers_alive", "workers currently READY")
        self._workers_broken = m.gauge(
            "cluster_workers_broken", "worker slots with an open circuit breaker")

    # ------------------------------------------------------------ logging

    def _log(self, message: str) -> None:
        if self.verbose:
            _LOG.info("[cluster] %s", message)

    # ----------------------------------------------------------- lifecycle

    def start(self) -> "ClusterService":
        if self._started:
            return self
        self._started = True
        self._stopping = False
        with self._lock:
            for handle in self.handles:
                self._spawn_locked(handle)
        for handle in self.handles:
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(handle,),
                name=f"cluster-dispatch-{handle.worker_id}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        supervisor = threading.Thread(
            target=self._supervise_loop, name="cluster-supervise", daemon=True
        )
        supervisor.start()
        self._threads.append(supervisor)
        return self

    def wait_ready(self, timeout: float = 60.0) -> bool:
        """Block until the fleet is ready (or the timeout expires)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.is_ready():
                return True
            time.sleep(0.05)
        return self.is_ready()

    def stop(self, *, timeout: float = 15.0, drain: bool = True) -> bool:
        """Graceful shutdown: stop accepting, flush, join workers.

        Returns True when the drain was clean (no request abandoned).
        """
        if not self._started:
            return True
        self._stopping = True
        deadline = time.monotonic() + max(0.0, timeout)
        clean = True
        if drain:
            clean = self._drain(deadline)
        for handle in self.handles:
            handle.dispatch.put(_STOP)
        with self._lock:
            for handle in self.handles:
                handle.status = WorkerStatus.STOPPED
                if handle.conn is not None:
                    try:
                        with handle.send_lock:
                            handle.conn.send(protocol.shutdown_frame())
                    except OSError:
                        pass
        for handle in self.handles:
            proc = handle.proc
            if proc is None:
                continue
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
                clean = False
        with self._lock:
            for handle in self.handles:
                self._fail_pending_locked(handle, "cluster is shutting down")
                if handle.sock is not None:
                    try:
                        handle.sock.close()
                    except OSError:
                        pass
                    handle.sock = None
        self._started = False
        return clean

    def _drain(self, deadline: float) -> bool:
        while time.monotonic() < deadline:
            busy = any(
                not handle.dispatch.empty() or handle.pending_count() > 0
                for handle in self.handles
            )
            if not busy:
                return True
            time.sleep(0.02)
        return False

    def __enter__(self) -> "ClusterService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------ spawning

    def _spawn_locked(self, handle: _WorkerHandle) -> None:
        """Fork one worker (callers hold ``self._lock``)."""
        parent, child = socket.socketpair()
        handle.incarnation += 1
        handle.sock = parent
        handle.conn = protocol.FrameConnection(parent)
        handle.window = threading.Semaphore(self.config.max_inflight)
        handle.status = WorkerStatus.STARTING
        handle.started_at = time.monotonic()
        handle.last_pong = time.monotonic()
        handle.success_recorded = False
        handle.ready_event.clear()
        proc = self._ctx.Process(
            target=worker_entry,
            args=(handle.spec, child),
            name=f"repro-cluster-worker-{handle.worker_id}",
            daemon=True,
        )
        proc.start()
        child.close()  # the worker owns its end now
        handle.proc = proc
        receiver = threading.Thread(
            target=self._receive_loop,
            args=(handle, handle.conn, handle.incarnation, handle.window),
            name=f"cluster-recv-{handle.worker_id}.{handle.incarnation}",
            daemon=True,
        )
        receiver.start()
        self._log(
            f"worker {handle.worker_id} spawned "
            f"(pid={proc.pid}, incarnation={handle.incarnation}, "
            f"shard={list(handle.spec.shard)})"
        )

    # ---------------------------------------------------------- submission

    def translate(
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
    ) -> ServeResponse:
        """Route one request to its shard's worker and wait for the answer.

        Raises :class:`UnknownDatabaseError` for unknown databases and
        :class:`QueueFullError` for every retriable rejection (no live
        worker, dispatch queue full, deadline expired in queue, worker
        died with no requeue budget left).  ``dialect`` is validated at
        the front door (ValueError -> HTTP 400) and rides the IPC frame.
        """
        if dialect is not None:
            from repro.errors import TranslationError
            from repro.sql.dialect import get_dialect

            try:
                dialect = get_dialect(dialect).name
            except TranslationError as exc:
                raise ValueError(str(exc)) from None
        if self._stopping or not self._started:
            raise QueueFullError("cluster is not accepting requests")
        if database_id is None:
            if len(self.database_ids) != 1:
                raise UnknownDatabaseError(
                    "database_id is required when serving multiple databases"
                )
            database_id = next(iter(self.database_ids))
        elif database_id not in self.database_ids:
            raise UnknownDatabaseError(
                f"unknown database {database_id!r}; serving: "
                + ", ".join(sorted(self.database_ids))
            )
        timeout_s = (
            timeout_ms if timeout_ms is not None else self.config.default_timeout_ms
        ) / 1000.0
        pending = _Pending(
            request_id=next(self._ids),
            question=question,
            database_id=database_id,
            beam_size=int(beam_size) if beam_size is not None else None,
            execute=bool(execute),
            inject_failure=bool(inject_failure),
            deadline=time.monotonic() + max(0.0, timeout_s),
            tenant_id=tenant_id,
            tenant_weight=max(1, int(tenant_weight)),
            dialect=dialect,
        )
        if not self._enqueue(pending):
            self._rejected_total.inc()
            raise QueueFullError(pending.reject_reason or "no live worker")
        self._requests_total.inc()
        # Workers enforce the deadline; the generous cap only guards
        # against a supervisor bug wedging the bookkeeping.
        if not pending.done.wait(timeout=max(0.0, timeout_s) + 60.0):
            pending.reject("internal timeout: request lost in the cluster")
        if pending.payload is not None:
            return ServeResponse.from_dict(pending.payload)
        self._rejected_total.inc()
        raise QueueFullError(pending.reject_reason or "request rejected")

    def _routable(self, exclude: set[int]) -> list[int]:
        """Workers that may receive new traffic, READY ones first."""
        ready = [
            h.worker_id
            for h in self.handles
            if h.status is WorkerStatus.READY and h.worker_id not in exclude
        ]
        if ready:
            return ready
        # No READY worker: route to ones that are coming up — the
        # dispatcher waits for readiness within the request's deadline.
        return [
            h.worker_id
            for h in self.handles
            if h.status in (WorkerStatus.STARTING, WorkerStatus.UNHEALTHY,
                            WorkerStatus.RESTARTING)
            and h.worker_id not in exclude
        ]

    def _enqueue(self, pending: _Pending) -> bool:
        """Place ``pending`` on its preferred worker's dispatch queue."""
        order = self.ring.preference(
            pending.database_id, self._routable(pending.excluded)
        )
        if not order:
            pending.reject("no live worker for this database's shard")
            return False
        pending.attempts += 1
        handle = self.handles[order[0]]
        try:
            handle.dispatch.put_nowait(pending)
        except queue.Full:
            pending.reject(
                f"worker {handle.worker_id} dispatch queue is full "
                f"({handle.dispatch.maxsize} deep)"
            )
            return False
        return True

    # ----------------------------------------------------------- dispatch

    def _dispatch_loop(self, handle: _WorkerHandle) -> None:
        """Drain one worker's dispatch queue into its IPC socket."""
        while True:
            item = handle.dispatch.get()
            if item is _STOP:
                return
            now = time.monotonic()
            if now >= item.deadline:
                # Expired while queued: reject WITHOUT occupying a slot.
                self._expired_total.inc()
                item.reject("deadline expired while queued for a worker")
                continue
            if not handle.ready_event.wait(timeout=item.deadline - now):
                self._expired_total.inc()
                item.reject("deadline expired waiting for a live worker")
                continue
            if handle.status is not WorkerStatus.READY:
                self._requeue(item, from_worker=handle.worker_id)
                continue
            window = handle.window
            remaining = item.deadline - time.monotonic()
            if remaining <= 0 or not window.acquire(timeout=remaining):
                self._expired_total.inc()
                item.reject("deadline expired waiting for a worker slot")
                continue
            with handle.pending_lock:
                handle.pending[item.request_id] = item
            frame = protocol.request_frame(
                item.request_id,
                item.question,
                item.database_id,
                beam_size=item.beam_size,
                execute=item.execute,
                budget_s=protocol.remaining_budget_s(item.deadline),
                inject_failure=item.inject_failure,
                tenant_id=item.tenant_id,
                tenant_weight=item.tenant_weight,
                dialect=item.dialect,
            )
            try:
                with handle.send_lock:
                    handle.conn.send(frame)
            except (OSError, protocol.ProtocolError):
                with handle.pending_lock:
                    handle.pending.pop(item.request_id, None)
                window.release()
                self._requeue(item, from_worker=handle.worker_id)

    def _requeue(self, item: _Pending, *, from_worker: int) -> None:
        """Requeue-or-fail-fast for a request caught on a dead worker."""
        item.excluded.add(from_worker)
        if item.done.is_set():
            return
        if (
            item.attempts >= self.config.max_attempts
            or time.monotonic() >= item.deadline
        ):
            item.reject(
                f"worker {from_worker} died while handling the request "
                f"(no retry budget left)"
            )
            return
        self._requeued_total.inc()
        if not self._enqueue(item):
            pass  # _enqueue already rejected with its reason

    # ----------------------------------------------------------- receiving

    def _receive_loop(
        self,
        handle: _WorkerHandle,
        conn: protocol.FrameConnection,
        incarnation: int,
        window: threading.Semaphore,
    ) -> None:
        try:
            while True:
                frame = conn.recv()
                kind = frame.get("type")
                if kind == "response":
                    item = self._pop_pending(handle, frame.get("id"))
                    if item is not None:
                        item.resolve_payload(frame.get("payload") or {})
                        window.release()
                elif kind == "reject":
                    item = self._pop_pending(handle, frame.get("id"))
                    if item is not None:
                        item.reject(frame.get("reason", "worker rejected"))
                        window.release()
                elif kind == "pong":
                    handle.last_pong = time.monotonic()
                    handle.health_snapshot = frame.get("health") or {}
                    handle.metrics_snapshot = frame.get("metrics") or {}
                elif kind == "ready":
                    self._on_ready(handle, incarnation, frame)
        except (protocol.ProtocolError, OSError):
            pass
        finally:
            self._on_connection_lost(handle, incarnation)

    def _pop_pending(self, handle: _WorkerHandle, request_id) -> _Pending | None:
        with handle.pending_lock:
            return handle.pending.pop(request_id, None)

    def _on_ready(self, handle: _WorkerHandle, incarnation: int, frame: dict) -> None:
        with self._lock:
            if incarnation != handle.incarnation:
                return
            handle.status = WorkerStatus.READY
            handle.ready_since = time.monotonic()
            handle.last_pong = time.monotonic()
            handle.ready_event.set()
            self._refresh_worker_gauges_locked()
        self._log(
            f"worker {handle.worker_id} ready "
            f"(warm={frame.get('warm_s', 0.0):.2f}s, "
            f"databases={frame.get('databases')})"
        )

    # --------------------------------------------------------- supervision

    def _on_connection_lost(self, handle: _WorkerHandle, incarnation: int) -> None:
        """A worker's socket broke: fail over and schedule the restart."""
        with self._lock:
            if incarnation != handle.incarnation or self._stopping:
                return
            if handle.status is WorkerStatus.STOPPED:
                return
            handle.ready_event.clear()
            proc = handle.proc
            if proc is not None and proc.is_alive():
                proc.kill()  # half-dead (socket gone, process lingering)
            broken = handle.breaker.record_failure()
            handle.status = (
                WorkerStatus.BROKEN if broken else WorkerStatus.RESTARTING
            )
            if not broken:
                handle.restart_at = time.monotonic() + handle.backoff.next_delay()
            with handle.pending_lock:
                orphans = list(handle.pending.values())
                handle.pending.clear()
            self._refresh_worker_gauges_locked()
        self._log(
            f"worker {handle.worker_id} connection lost "
            f"({'circuit broken' if broken else 'restart scheduled'}, "
            f"{len(orphans)} in flight)"
        )
        for item in orphans:
            self._requeue(item, from_worker=handle.worker_id)
        # Anything still queued supervisor-side re-routes as well: the
        # dispatcher will requeue them when it sees the non-READY status,
        # so nothing accepted is silently dropped.

    def _fail_pending_locked(self, handle: _WorkerHandle, reason: str) -> None:
        with handle.pending_lock:
            orphans = list(handle.pending.values())
            handle.pending.clear()
        for item in orphans:
            item.reject(reason)
        while True:
            try:
                item = handle.dispatch.get_nowait()
            except queue.Empty:
                return
            if item is not _STOP:
                item.reject(reason)

    def _refresh_worker_gauges_locked(self) -> None:
        self._workers_alive.set(sum(
            1 for h in self.handles if h.status is WorkerStatus.READY
        ))
        self._workers_broken.set(sum(
            1 for h in self.handles if h.status is WorkerStatus.BROKEN
        ))

    def _supervise_loop(self) -> None:
        interval = self.config.heartbeat_interval_s
        hang_budget = interval * self.config.heartbeat_misses
        while not self._stopping:
            time.sleep(interval)
            if self._stopping:
                return
            now = time.monotonic()
            for handle in self.handles:
                with self._lock:
                    status = handle.status
                    if status is WorkerStatus.RESTARTING and now >= handle.restart_at:
                        self._restarts_total.inc()
                        handle.restart_count += 1
                        self._spawn_locked(handle)
                        continue
                    proc = handle.proc
                    if (
                        status in (WorkerStatus.STARTING, WorkerStatus.READY)
                        and proc is not None
                        and not proc.is_alive()
                    ):
                        # The receiver's EOF usually notices first; this
                        # is the belt-and-braces path for lost sockets.
                        incarnation = handle.incarnation
                    else:
                        incarnation = None
                if incarnation is not None:
                    self._on_connection_lost(handle, incarnation)
                    continue
                if status is WorkerStatus.READY:
                    if now - handle.last_pong > hang_budget:
                        self._log(
                            f"worker {handle.worker_id} missed "
                            f"{self.config.heartbeat_misses} heartbeats; killing"
                        )
                        with self._lock:
                            handle.status = WorkerStatus.UNHEALTHY
                            if handle.proc is not None and handle.proc.is_alive():
                                handle.proc.kill()
                        continue
                    if (
                        not handle.success_recorded
                        and now - handle.ready_since > 5 * interval
                    ):
                        handle.breaker.record_success()
                        handle.backoff.reset()
                        handle.success_recorded = True
                    try:
                        with handle.send_lock:
                            handle.conn.send(
                                protocol.ping_frame(next(self._ping_ids))
                            )
                    except (OSError, protocol.ProtocolError):
                        pass  # receiver EOF handles the fallout
                elif status is WorkerStatus.STARTING:
                    if now - handle.started_at > self.config.ready_timeout_s:
                        self._log(
                            f"worker {handle.worker_id} warm-up timed out; killing"
                        )
                        with self._lock:
                            if handle.proc is not None and handle.proc.is_alive():
                                handle.proc.kill()

    # ------------------------------------------------------------- health

    def is_ready(self) -> bool:
        """Ready when every non-broken worker is READY (and one exists)."""
        if self._stopping or not self._started:
            return False
        ready = 0
        for handle in self.handles:
            if handle.status is WorkerStatus.READY:
                ready += 1
            elif handle.status is not WorkerStatus.BROKEN:
                return False
        return ready > 0

    def worker_states(self) -> dict[str, dict]:
        now = time.monotonic()
        states = {}
        for handle in self.handles:
            states[str(handle.worker_id)] = {
                "status": handle.status.value,
                "pid": handle.pid,
                "restarts": handle.restart_count,
                "shard": sorted(handle.spec.shard),
                "breaker_open": handle.breaker.open,
                "last_pong_age_s": (
                    round(now - handle.last_pong, 3) if handle.last_pong else None
                ),
                "inflight": handle.pending_count(),
                "dispatch_depth": handle.dispatch.qsize(),
            }
        return states

    def health(self) -> dict:
        return {
            "status": "stopping" if self._stopping else (
                "ok" if self._started else "idle"),
            "mode": "cluster",
            "ready": self.is_ready(),
            "uptime_s": time.monotonic() - self._started_monotonic,
            "databases": sorted(self.database_ids),
            "workers": self.worker_states(),
            "shards": {
                str(w): sorted(h.spec.shard)
                for w, h in enumerate(self.handles)
            },
        }

    # ------------------------------------------------------------ refresh

    def trigger_refresh(self, database_id: str | None = None) -> int:
        """Broadcast a KB-refresh frame to every READY worker.

        Returns how many workers received the frame.  Each worker's
        refresher rebuilds off-path and swaps locally; there is nothing
        to wait for at the supervisor (SIGHUP and ``POST /admin/refresh``
        both come through here).
        """
        sent = 0
        for handle in self.handles:
            with self._lock:
                ready = handle.status is WorkerStatus.READY
                conn = handle.conn
            if not ready or conn is None:
                continue
            try:
                with handle.send_lock:
                    conn.send(protocol.refresh_frame(database_id))
                sent += 1
            except (OSError, protocol.ProtocolError):
                # A broken socket here is a worker death in progress; the
                # receiver's EOF path restarts it and the next trigger
                # reaches the replacement.
                self._log(
                    f"refresh frame to worker {handle.worker_id} failed"
                )
        return sent

    # ------------------------------------------------------------- chaos

    def kill_worker(self, worker_id: int) -> int | None:
        """SIGKILL one worker (fault injection for smoke tests); returns pid."""
        handle = self.handles[worker_id]
        pid = handle.pid
        if pid is not None:
            os.kill(pid, 9)
        return pid
