"""The cluster worker process: one TranslationService behind an IPC socket.

A worker is a full single-process serving stack — per-shard warmed
:class:`~repro.index.registry.IndexRegistry`, per-database runtimes, a
:class:`~repro.serving.service.TranslationService` with its own thread
pool, micro-batching, cache, and metrics — minus the HTTP layer: the
supervisor owns the listening socket and feeds the worker requests over
one :mod:`repro.cluster.protocol` connection.

Shard semantics: the worker *hosts* every database the cluster serves
(it knows all the paths) but eagerly opens and warms only the databases
in its ``shard``.  When the supervisor fails traffic over from a dead
sibling, the worker adopts the foreign database lazily on first request
— slower for that first request, but no worker pays memory or startup
time for indexes it is not routed.

Concurrency: a reader thread receives frames; requests are handed to a
bounded executor (the supervisor's in-flight window keeps it from ever
being the backlog), and every handler thread serializes its writes with
one send lock.  Heartbeat pings are answered inline by the reader thread
so they measure event-loop liveness, not translation throughput; a
worker wedged hard enough to stop reading frames stops ponging and gets
killed and restarted by the supervisor.
"""

from __future__ import annotations

import signal
import socket
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.cluster import protocol
from repro.concurrency import make_lock
from repro.db.database import Database
from repro.index.registry import IndexRegistry, set_default_registry
from repro.metrics import MetricsRegistry
from repro.serving.cache import TranslationCache
from repro.serving.runtime import DatabaseRuntime
from repro.serving.service import (
    QueueFullError,
    ServiceStoppedError,
    TranslationService,
    UnknownDatabaseError,
)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to build its serving stack (picklable)."""

    worker_id: int
    databases: tuple[tuple[str, str], ...]  # (db_id, sqlite path)
    shard: tuple[str, ...]                  # db ids this worker owns
    model_path: str | None = None
    beam_size: int = 1
    threads: int = 4
    queue_size: int = 64
    max_batch: int = 8
    batch_window_ms: float = 2.0
    cache_size: int = 256
    cache_ttl_s: float = 300.0
    default_timeout_ms: float = 10_000.0
    index_cache: str | None = None
    allow_failure_injection: bool = False
    execution_timeout_s: float | None = 5.0
    execution_max_rows: int | None = 10_000
    max_inflight: int = 16
    per_tenant_depth: int | None = None
    policy_path: str | None = None  # JSON policy config (see repro.policy)
    dialect: str = "sqlite"         # default response dialect
    # Live schema evolution (see repro.evolve): poll interval for the
    # per-worker background KB refresher (None = disabled) and an
    # optional directory for schema-driven corpus growth (each worker
    # writes its own shard's examples to worker-<id>.jsonl there).
    kb_refresh_interval_s: float | None = None
    kb_corpus_dir: str | None = None


class WorkerProcess:
    """Runtime state of one worker process (constructed *inside* it)."""

    def __init__(self, spec: WorkerSpec, sock: socket.socket):
        self.spec = spec
        self.sock = sock
        self._conn = protocol.FrameConnection(sock)
        self._send_lock = make_lock(f"WorkerProcess[{spec.worker_id}]._send_lock")
        self._adopt_lock = make_lock(f"WorkerProcess[{spec.worker_id}]._adopt_lock")
        self._paths = dict(spec.databases)
        self._databases: dict[str, Database] = {}  # guarded by: _adopt_lock
        self.registry = IndexRegistry(cache_dir=spec.index_cache)
        set_default_registry(self.registry)
        self.model = None
        if spec.model_path is not None:
            from repro.model import ValueNetModel

            self.model = ValueNetModel.load(spec.model_path)
        self.metrics = MetricsRegistry()  # the service's; policy blocks land here too
        self.policy = None
        if spec.policy_path is not None:
            from repro.policy import PolicyConfigStore, PolicyEngine

            self.policy = PolicyEngine(
                PolicyConfigStore.load(spec.policy_path), metrics=self.metrics
            )
        self.service: TranslationService | None = None
        self.refresher = None  # started in warm_and_start when configured
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, spec.max_inflight),
            thread_name_prefix=f"cluster-worker-{spec.worker_id}",
        )

    # ----------------------------------------------------------- lifecycle

    def warm_and_start(self) -> float:
        """Open + warm the shard, start the service; returns warm seconds."""
        start = time.perf_counter()
        with self._adopt_lock:
            shard = {
                db_id: self._open_locked(db_id)
                for db_id in self.spec.shard
                if db_id in self._paths
            }
        self.registry.warm(shard)
        runtimes = [self._make_runtime(db_id, db) for db_id, db in shard.items()]
        self.service = TranslationService(
            runtimes,
            workers=self.spec.threads,
            queue_size=self.spec.queue_size,
            per_tenant_depth=self.spec.per_tenant_depth,
            max_batch=self.spec.max_batch,
            batch_window_ms=self.spec.batch_window_ms,
            cache=TranslationCache(
                capacity=self.spec.cache_size, ttl_s=self.spec.cache_ttl_s
            ),
            default_timeout_ms=self.spec.default_timeout_ms,
            allow_failure_injection=self.spec.allow_failure_injection,
            ready=False,
            allow_empty=True,  # an empty shard adopts databases on failover
            metrics=self.metrics,
        )
        self.service.start()
        self.service.mark_ready()
        if self.spec.kb_refresh_interval_s is not None:
            self._start_refresher(shard)
        return time.perf_counter() - start

    def _start_refresher(self, shard: dict[str, Database]) -> None:
        """Per-worker background KB refresher over this worker's shard."""
        from pathlib import Path

        from repro.evolve import KBRefresher

        corpus_path = None
        if self.spec.kb_corpus_dir is not None:
            corpus_path = (
                Path(self.spec.kb_corpus_dir)
                / f"worker-{self.spec.worker_id}.jsonl"
            )
        self.refresher = KBRefresher(
            registry=self.registry,
            interval_s=self.spec.kb_refresh_interval_s,
            metrics=self.service.metrics,
            corpus_path=corpus_path,
            corpus_policy=self.policy,
        )
        for db_id, database in shard.items():
            self.refresher.watch(database, database_id=db_id)
        self.refresher.attach_service(self.service)
        self.refresher.start()

    def _open_locked(self, db_id: str) -> Database:
        """Open (or reuse) a hosted database; caller holds ``_adopt_lock``."""
        database = self._databases.get(db_id)
        if database is None:
            database = Database.open(self._paths[db_id])
            self._databases[db_id] = database
        return database

    def _make_runtime(self, db_id: str, database: Database) -> DatabaseRuntime:
        return DatabaseRuntime(
            database,
            self.model,
            database_id=db_id,
            beam_size=self.spec.beam_size,
            execution_timeout_s=self.spec.execution_timeout_s,
            execution_max_rows=self.spec.execution_max_rows,
            policy=self.policy,
            dialect=self.spec.dialect,
        )

    def _adopt(self, db_id: str) -> bool:
        """Lazily host a database outside this worker's shard (failover)."""
        if db_id not in self._paths:
            return False
        with self._adopt_lock:
            if db_id in self.service.runtimes:
                return True
            database = self._open_locked(db_id)
            runtime = self._make_runtime(db_id, database)
            self.service.add_runtime(runtime)
        if self.refresher is not None:
            # Failover traffic keeps flowing here until the sibling is
            # back; the adopted database drifts like any other.
            self.refresher.watch(database, database_id=db_id)
        return True

    # -------------------------------------------------------------- frames

    def send(self, frame: dict) -> None:
        with self._send_lock:
            self._conn.send(frame)

    def _handle_request(self, frame: dict) -> None:
        request_id = frame["id"]
        db_id = frame.get("database_id") or ""
        try:
            if db_id not in self.service.runtimes and not self._adopt(db_id):
                raise UnknownDatabaseError(f"unknown database {db_id!r}")
            budget_s = max(0.0, float(frame.get("budget_s", 0.0)))
            tenant_id = frame.get("tenant_id")
            response = self.service.translate(
                frame["question"],
                db_id,
                beam_size=frame.get("beam_size"),
                execute=bool(frame.get("execute", False)),
                timeout_ms=budget_s * 1000.0,
                inject_failure=bool(frame.get("inject_failure", False)),
                tenant_id=str(tenant_id) if tenant_id is not None else None,
                tenant_weight=int(frame.get("tenant_weight", 1)),
                dialect=frame.get("dialect"),
            )
            self.send(protocol.response_frame(request_id, response.as_dict()))
        except (QueueFullError, ServiceStoppedError, UnknownDatabaseError) as exc:
            self.send(protocol.reject_frame(request_id, str(exc)))
        except OSError:  # supervisor went away; the loop will exit on EOF
            pass
        except Exception as exc:  # justified: reject frame reports the failure upstream
            try:
                self.send(protocol.reject_frame(request_id, f"worker error: {exc}"))
            except OSError:
                pass

    def _health(self) -> dict:
        health = self.service.health() if self.service is not None else {}
        health["worker_id"] = self.spec.worker_id
        health["shard"] = sorted(self.spec.shard)
        health["registry"] = self.registry.stats()
        return health

    def _metrics_snapshot(self) -> dict:
        if self.service is None:
            return {}
        return self.service.metrics.snapshot()

    # ---------------------------------------------------------------- loop

    def run(self) -> int:
        warm_s = self.warm_and_start()
        self.send(
            protocol.ready_frame(
                self.spec.worker_id, warm_s, sorted(self.service.runtimes)
            )
        )
        try:
            while True:
                try:
                    frame = self._conn.recv()
                except (protocol.ProtocolError, OSError):
                    break  # supervisor died or closed; exit with it
                kind = frame.get("type")
                if kind == "request":
                    self._pool.submit(self._handle_request, frame)
                elif kind == "ping":
                    # Answered inline: measures frame-loop liveness.
                    try:
                        self.send(protocol.pong_frame(
                            frame.get("id", 0),
                            self._health(),
                            self._metrics_snapshot(),
                        ))
                    except OSError:
                        break
                elif kind == "refresh":
                    if self.refresher is not None:
                        # Async trigger: the refresher's own thread does
                        # the rebuild, so the frame loop stays responsive
                        # to pings during a refresh.
                        self.refresher.trigger()
                elif kind == "shutdown":
                    break
        finally:
            self._pool.shutdown(wait=True)
            if self.refresher is not None:
                self.refresher.stop(timeout=5.0)
            if self.service is not None:
                self.service.drain(timeout=5.0)
            with self._adopt_lock:
                databases = list(self._databases.values())
            for database in databases:
                database.close()
            try:
                self.sock.close()
            except OSError:
                pass
        return 0


def worker_entry(spec: WorkerSpec, sock: socket.socket) -> None:
    """Process entry point (target of ``multiprocessing.Process``)."""
    # Ctrl+C hits the whole process group; the supervisor coordinates
    # shutdown (shutdown frame, then SIGKILL) — workers must not race it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        code = WorkerProcess(spec, sock).run()
    except Exception as exc:  # justified: fatal startup error goes to stderr, exit code 1
        sys.stderr.write(f"[cluster-worker-{spec.worker_id}] fatal: {exc}\n")
        code = 1
    raise SystemExit(code)
