"""Multi-process sharded serving: supervisor, router, and front-end glue.

:class:`ClusterService` presents the same duck-typed surface as
:class:`~repro.serving.service.TranslationService` (``translate``,
``health``, ``metrics``, ``is_ready``), so the stdlib HTTP front-end
(:class:`~repro.serving.http.ServingServer`) serves a cluster without
changes.  Behind that surface it forks N worker processes (fork start
method; each builds its own :class:`~repro.cluster.worker.ServingStack`
and warms only its shard's indexes) and speaks the length-prefixed JSON
protocol of :mod:`repro.cluster.protocol` to each over a socketpair.

**One owner per request.**  The thread that calls :meth:`ClusterService.
translate` — the HTTP thread that accepted the request — drives it end
to end; there is no queue and no relay thread between it and the
worker's socket.  One attempt, in order:

1. pick the worker: **consistent hashing** on ``db_id``
   (:class:`~repro.cluster.router.HashRing`) over the routable workers,
   so each worker's schema and index caches stay hot for its shard;
2. be admitted: at most ``_MAX_WAITING`` callers may wait on one worker
   beyond its in-flight window; the next one is shed at once (retriable);
3. wait, within the request's deadline, for the worker to be ready and
   then for one of its ``_MAX_INFLIGHT`` window slots — a request whose
   deadline expires here is rejected without ever occupying a slot;
4. register under the request id, send the frame with the *remaining*
   budget, and wait for the worker's receiver thread to deliver the
   answer.

Every exit of an attempt gives back what it took (admission count,
window slot, pending entry).  When the worker is lost under the request
— not ready after all, send failed, died in flight (the receiver's EOF
marks every pending entry lost) — its own caller loops once more to the
next worker on the ring, and fails retriably if that one is lost too.

Besides callers, the supervisor runs one receiver thread per worker
incarnation and one supervise thread: heartbeat pings with miss-based
hang detection, SIGKILL + automatic restart with exponential backoff, a
circuit breaker that stops restarting a crash-looping worker, and
graceful drain on shutdown (``stop`` waits for every caller inside
``translate``).  ``/metrics`` merges every worker's snapshot with the
supervisor's own counters and per-worker liveness gauges; ``/healthz``
carries each worker's own health block from its latest pong.

Failure semantics for one accepted request: it is either answered (200,
possibly degraded) or rejected with a *retriable* error
(:class:`~repro.serving.service.QueueFullError` → HTTP 503).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import socket
import threading
import time
from dataclasses import dataclass

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

_MAX_INFLIGHT = 16           # request frames outstanding on one worker
_MAX_WAITING = 128           # callers admitted beyond that; the rest shed
_MAX_ATTEMPTS = 2            # workers one request may be tried on
_HEARTBEAT_INTERVAL_S = 0.5
_HEARTBEAT_MISSES = 6        # missed pongs before a kill
_READY_TIMEOUT_S = 120.0     # warm-up budget before a kill


@dataclass
class ClusterConfig:
    """What a deployment chooses; supervision policy is fixed above."""

    workers: int = 2
    default_timeout_ms: float = 10_000.0


class _Pending:
    """One attempt's wait cell: registered under the request id, resolved
    by the worker's receiver thread, waited on by the calling thread.
    ``done`` with neither field set means the worker was lost."""

    __slots__ = ("done", "payload", "reject_reason")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.payload: dict | None = None
        self.reject_reason: str | None = None


class _WorkerHandle:
    """Supervisor-side state for one worker slot (survives restarts)."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.worker_id = spec.worker_id
        self.status = WorkerStatus.STOPPED
        self.proc: multiprocessing.process.BaseProcess | None = None
        self.sock: socket.socket | None = None
        self.conn: protocol.FrameConnection | None = None
        self.incarnation = 0
        # Every caller releases the slot it took, so one semaphore serves
        # every incarnation.
        self.window = threading.Semaphore(_MAX_INFLIGHT)
        self.callers = 0  # guarded by: pending_lock
        self.pending: dict[int, _Pending] = {}  # guarded by: pending_lock
        self.pending_lock = make_lock(f"_WorkerHandle[{spec.worker_id}].pending_lock")
        self.send_lock = make_lock(f"_WorkerHandle[{spec.worker_id}].send_lock")
        self.ready_event = threading.Event()
        self.backoff = ExponentialBackoff()
        self.breaker = CircuitBreaker()
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

    def load(self) -> tuple[int, int]:
        """``(in flight, waiting)`` callers on this worker (consistent read)."""
        with self.pending_lock:
            return len(self.pending), self.callers - len(self.pending)


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
        config: worker count and the default request deadline.
        metrics: supervisor-local registry (created when omitted);
            worker-side serving metrics are merged in at scrape time.
        tenancy: optional :class:`~repro.tenancy.controller.TenancyController`
            — admission (auth/rate/quota) runs in the supervisor's HTTP
            front-end; workers only receive the already-admitted tenant
            identity over IPC for fair queueing and per-tenant metrics.
        spec_defaults: extra :class:`WorkerSpec` fields applied to every
            worker (threads, queue_size, per_tenant_depth, cache sizing,
            index_cache, ...).  ``kb_corpus`` names a directory here:
            each worker appends to its own ``worker-<id>.jsonl`` in it.
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
        self.ring = HashRing(range(self.config.workers))
        shards = self.ring.shards(sorted(self.database_ids))
        # The /admin/refresh route broadcasts only when workers actually
        # run a refresher (spec_defaults carry the interval to them).
        self.refresh_enabled = (
            spec_defaults.get("kb_refresh_interval_s") is not None
        )
        corpus_dir = spec_defaults.pop("kb_corpus", None)
        self.handles = [
            _WorkerHandle(
                WorkerSpec(
                    worker_id=worker_id,
                    databases=tuple(self.databases),
                    shard=tuple(shards[worker_id]),
                    model_path=model_path,
                    default_timeout_ms=self.config.default_timeout_ms,
                    kb_corpus=(
                        os.path.join(corpus_dir, f"worker-{worker_id}.jsonl")
                        if corpus_dir is not None else None
                    ),
                    **spec_defaults,
                )
            )
            for worker_id in range(self.config.workers)
        ]
        self.registry = metrics if metrics is not None else MetricsRegistry()
        self.metrics = _ClusterMetrics(self)
        self.tenancy = tenancy
        self._ids = itertools.count(1)
        self._ping_ids = itertools.count(1)
        self._lock = make_rlock("ClusterService._lock")
        self._started = False
        self._stopping = False
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
            "cluster_requeued_total", "requests retried off a lost worker")
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
        threading.Thread(
            target=self._supervise_loop, name="cluster-supervise", daemon=True
        ).start()
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
        with self._lock:
            for handle in self.handles:
                handle.status = WorkerStatus.STOPPED
                # Wake callers waiting for a worker that will not come.
                handle.ready_event.set()
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
                self._orphan_pending(handle, "cluster is shutting down")
                if handle.sock is not None:
                    try:
                        handle.sock.close()
                    except OSError:
                        pass
                    handle.sock = None
        self._started = False
        return clean

    def _drain(self, deadline: float) -> bool:
        """Wait for every caller inside an attempt to leave it."""
        while time.monotonic() < deadline:
            if not any(sum(handle.load()) for handle in self.handles):
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
            args=(handle, handle.conn, handle.incarnation),
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
    ) -> ServeResponse:
        """Drive one request to its shard's worker and back, on this thread.

        Raises :class:`UnknownDatabaseError` for unknown databases and
        :class:`QueueFullError` for every retriable rejection (no live
        worker, too many callers already waiting on the worker, deadline
        expired before a slot, the worker and its one stand-in both
        lost).
        """
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
        budget_s = max(0.0, timeout_s)
        deadline = time.monotonic() + budget_s
        frame = protocol.request_frame(
            next(self._ids),
            question,
            database_id,
            beam_size=int(beam_size) if beam_size is not None else None,
            execute=bool(execute),
            budget_s=budget_s,  # what is left of it is stamped at each send
            inject_failure=bool(inject_failure),
            tenant_id=tenant_id,
            tenant_weight=max(1, int(tenant_weight)),
        )
        lost: set[int] = set()  # workers lost under this request
        try:
            while True:
                order = self.ring.preference(database_id, self._routable(lost))
                if not order:
                    raise QueueFullError("no live worker for this database's shard")
                handle = self.handles[order[0]]
                payload = self._attempt(handle, frame, deadline, first=not lost)
                if payload is not None:
                    return ServeResponse.from_dict(payload)
                lost.add(handle.worker_id)
                if len(lost) >= _MAX_ATTEMPTS or time.monotonic() >= deadline:
                    raise QueueFullError(
                        f"worker {handle.worker_id} died while handling the "
                        f"request (no retry budget left)"
                    )
                self._requeued_total.inc()
        except QueueFullError:
            self._rejected_total.inc()
            raise

    def _routable(self, exclude: set[int]) -> list[int]:
        """Workers that may receive new traffic, READY ones first."""
        ready = [
            h.worker_id
            for h in self.handles
            if h.status is WorkerStatus.READY and h.worker_id not in exclude
        ]
        if ready:
            return ready
        # No READY worker: route to ones that are coming up — the caller
        # waits for readiness within the request's deadline.
        return [
            h.worker_id
            for h in self.handles
            if h.status in (WorkerStatus.STARTING, WorkerStatus.UNHEALTHY,
                            WorkerStatus.RESTARTING)
            and h.worker_id not in exclude
        ]

    def _attempt(
        self, handle: _WorkerHandle, frame: dict, deadline: float, *, first: bool
    ) -> dict | None:
        """One try on one worker: the response payload, or ``None`` when
        the worker was lost under the request; :class:`QueueFullError`
        when it is shed, expired or rejected by the worker.  Every exit
        gives back what it took."""
        with handle.pending_lock:
            if handle.callers - len(handle.pending) >= _MAX_WAITING:
                raise QueueFullError(
                    f"worker {handle.worker_id} is full "
                    f"({_MAX_WAITING} callers already waiting)"
                )
            handle.callers += 1
        try:
            if first:
                self._requests_total.inc()
            now = time.monotonic()
            if now >= deadline:
                raise self._expired("before reaching a worker")
            if not handle.ready_event.wait(timeout=deadline - now):
                raise self._expired("waiting for a live worker")
            if handle.status is not WorkerStatus.READY:
                return None
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not handle.window.acquire(timeout=remaining):
                raise self._expired("waiting for a worker slot")
            try:
                return self._exchange(handle, frame, deadline)
            finally:
                handle.window.release()
        finally:
            with handle.pending_lock:
                handle.callers -= 1

    def _expired(self, where: str) -> QueueFullError:
        """The rejection of a request whose deadline ran out before it
        held a slot (counted here)."""
        self._expired_total.inc()
        return QueueFullError(f"deadline expired {where}")

    def _exchange(
        self, handle: _WorkerHandle, frame: dict, deadline: float
    ) -> dict | None:
        """Holding a window slot: register, send, wait for the receiver."""
        pending = _Pending()
        with handle.pending_lock:
            handle.pending[frame["id"]] = pending
        try:
            frame["budget_s"] = protocol.remaining_budget_s(deadline)
            try:
                with handle.send_lock:
                    handle.conn.send(frame)
            except (OSError, protocol.ProtocolError):
                return None
            # Workers enforce the deadline; the generous cap only guards
            # against a bug wedging the bookkeeping.
            if not pending.done.wait(timeout=frame["budget_s"] + 60.0):
                raise QueueFullError("internal timeout: request lost in the cluster")
        finally:
            with handle.pending_lock:
                handle.pending.pop(frame["id"], None)
        if pending.reject_reason is not None:
            raise QueueFullError(pending.reject_reason)
        return pending.payload  # None: the receiver's EOF marked it lost

    # ----------------------------------------------------------- receiving

    def _receive_loop(
        self,
        handle: _WorkerHandle,
        conn: protocol.FrameConnection,
        incarnation: int,
    ) -> None:
        try:
            while True:
                frame = conn.recv()
                kind = frame.get("type")
                if kind in ("response", "reject"):
                    with handle.pending_lock:
                        pending = handle.pending.pop(frame.get("id"), None)
                    if pending is not None:  # else its caller already left
                        if kind == "response":
                            pending.payload = frame.get("payload") or {}
                        else:
                            pending.reject_reason = frame.get(
                                "reason", "worker rejected"
                            )
                        pending.done.set()
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
        """A worker's socket broke: schedule the restart, orphan its callers."""
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
            self._refresh_worker_gauges_locked()
        # Each in-flight request's own caller wakes and tries the next
        # worker; callers still waiting for a slot see the status.
        orphans = self._orphan_pending(handle)
        self._log(
            f"worker {handle.worker_id} connection lost "
            f"({'circuit broken' if broken else 'restart scheduled'}, "
            f"{orphans} in flight)"
        )

    def _orphan_pending(
        self, handle: _WorkerHandle, reject_reason: str | None = None
    ) -> int:
        """Wake every caller in flight on ``handle``: rejected with the
        reason when given, else lost (its caller retries elsewhere)."""
        with handle.pending_lock:
            orphans = list(handle.pending.values())
            handle.pending.clear()
        for pending in orphans:
            pending.reject_reason = reject_reason
            pending.done.set()
        return len(orphans)

    def _refresh_worker_gauges_locked(self) -> None:
        self._workers_alive.set(sum(
            1 for h in self.handles if h.status is WorkerStatus.READY
        ))
        self._workers_broken.set(sum(
            1 for h in self.handles if h.status is WorkerStatus.BROKEN
        ))

    def _supervise_loop(self) -> None:
        interval = _HEARTBEAT_INTERVAL_S
        hang_budget = interval * _HEARTBEAT_MISSES
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
                            f"{_HEARTBEAT_MISSES} heartbeats; killing"
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
                    if now - handle.started_at > _READY_TIMEOUT_S:
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
            inflight, waiting = handle.load()
            states[str(handle.worker_id)] = {
                "status": handle.status.value,
                "pid": handle.pid,
                "restarts": handle.restart_count,
                "shard": sorted(handle.spec.shard),
                "breaker_open": handle.breaker.open,
                "last_pong_age_s": (
                    round(now - handle.last_pong, 3) if handle.last_pong else None
                ),
                "inflight": inflight,
                "waiting": waiting,
                # The worker's own health block, as of its latest pong.
                "service": handle.health_snapshot,
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
