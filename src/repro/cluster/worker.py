"""The serving stack, and the cluster worker process that wraps one.

:class:`ServingStack` is the one place a serving process is built from a
:class:`WorkerSpec`: model → index registry → policy → databases → warm-up
→ per-database runtimes → :class:`~repro.serving.service.TranslationService`
→ KB refresher.  ``repro serve`` without ``--workers`` is that stack with
every database in its shard, behind the HTTP server; a cluster worker is
the same stack behind one :mod:`repro.cluster.protocol` connection to the
supervisor, which owns the listening socket.

Shard semantics: the stack *hosts* every database it is given (it knows
all the paths) but eagerly opens and warms only the databases in its
``shard``.  When the supervisor fails traffic over from a dead sibling,
the worker adopts the foreign database lazily on first request — slower
for that first request, but no worker pays memory or startup time for
indexes it is not routed.

Threads of a worker process: the frame loop (the process's main thread)
plus the service's ``threads`` serving threads, plus one refresher when
configured.  The frame loop submits each request to the service inline —
the supervisor's in-flight window bounds what can be outstanding — and
the serving thread that resolves a request sends its response frame;
nobody parks waiting for an answer.  Pings are answered inline by the
frame loop, so they measure frame-loop liveness, not translation
throughput: a worker wedged hard enough to stop reading frames stops
ponging and gets killed and restarted by the supervisor.  The one thing
that may take seconds — adopting a foreign database on failover, which
opens and indexes it — runs on a short-lived thread for exactly that
reason.
"""

from __future__ import annotations

import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial

from repro.cluster import protocol
from repro.concurrency import make_lock
from repro.db.database import Database
from repro.index.registry import IndexRegistry
from repro.metrics import MetricsRegistry
from repro.model.valuenet import ValueNetModel
from repro.policy import PolicyConfigStore, PolicyEngine
from repro.preprocessing.pipeline import Preprocessor
from repro.serving.cache import TranslationCache
from repro.serving.runtime import DatabaseRuntime
from repro.serving.service import (
    QueueFullError,
    ServeRequest,
    ServiceStoppedError,
    TranslationService,
    UnknownDatabaseError,
)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to build one serving stack (picklable)."""

    worker_id: int
    databases: tuple[tuple[str, str], ...]  # (db_id, sqlite path)
    shard: tuple[str, ...]                  # db ids this stack owns
    model_path: str | None = None
    beam_size: int = 1
    threads: int = 4
    queue_size: int = 64
    cache_size: int = 256
    cache_ttl_s: float = 300.0
    default_timeout_ms: float = 10_000.0
    index_cache: str | None = None
    allow_failure_injection: bool = False
    per_tenant_depth: int | None = None
    policy_path: str | None = None  # JSON policy config (see repro.policy)
    # Live schema evolution (see repro.evolve): poll interval of the
    # stack's background KB refresher (None = disabled) and the JSONL
    # file its schema-driven corpus growth appends to.
    kb_refresh_interval_s: float | None = None
    kb_corpus: str | None = None


class ServingStack:
    """A warmed, started serving stack over one shard of the databases."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self._paths = dict(spec.databases)
        self._adopt_lock = make_lock(f"ServingStack[{spec.worker_id}]._adopt_lock")
        self._databases: dict[str, Database] = {}  # guarded by: _adopt_lock
        self.registry = IndexRegistry(cache_dir=spec.index_cache)
        self.model = (
            ValueNetModel.load(spec.model_path)
            if spec.model_path is not None else None
        )
        self.metrics = MetricsRegistry()  # the service's; policy blocks land here too
        self.policy = None
        if spec.policy_path is not None:
            self.policy = PolicyEngine(
                PolicyConfigStore.load(spec.policy_path), metrics=self.metrics
            )
        start = time.perf_counter()
        shard = {
            db_id: self._open_locked(db_id)
            for db_id in spec.shard
            if db_id in self._paths
        }
        # One database after another: a cold build is CPU-bound under
        # the GIL, so a thread pool saves no time, while each of its
        # threads gets a malloc arena that keeps that build's transients
        # (tens of MB of peak RSS per database).
        for database in shard.values():
            self.registry.get(database)
        self.warm_s = time.perf_counter() - start
        self.service = TranslationService(
            [self._make_runtime(db_id, db) for db_id, db in shard.items()],
            workers=spec.threads,
            queue_size=spec.queue_size,
            per_tenant_depth=spec.per_tenant_depth,
            cache=TranslationCache(capacity=spec.cache_size, ttl_s=spec.cache_ttl_s),
            default_timeout_ms=spec.default_timeout_ms,
            allow_failure_injection=spec.allow_failure_injection,
            allow_empty=True,  # an empty shard adopts databases on failover
            metrics=self.metrics,
        ).start()
        self.refresher = None
        if spec.kb_refresh_interval_s is not None:
            # Lazy: ~10 ms of import only a refreshing stack needs.
            from repro.evolve import KBRefresher

            self.refresher = KBRefresher(
                registry=self.registry,
                interval_s=spec.kb_refresh_interval_s,
                metrics=self.metrics,
                corpus_path=spec.kb_corpus,
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
            preprocessor=Preprocessor(database, registry=self.registry),
            policy=self.policy,
        )

    def adopt(self, db_id: str) -> bool:
        """Lazily host a database outside the shard (failover); False
        when the stack was never given a path for it."""
        if db_id not in self._paths:
            return False
        with self._adopt_lock:
            if db_id in self.service.runtimes:
                return True
            database = self._open_locked(db_id)
            self.service.add_runtime(self._make_runtime(db_id, database))
        if self.refresher is not None:
            # Failover traffic keeps flowing here until the sibling is
            # back; the adopted database drifts like any other.
            self.refresher.watch(database, database_id=db_id)
        return True

    def close(self, *, timeout: float) -> bool:
        """Stop the refresher, drain the service, close the databases;
        True when nothing accepted was abandoned."""
        if self.refresher is not None:
            self.refresher.stop()
        clean = self.service.drain(timeout=timeout)
        with self._adopt_lock:
            databases = list(self._databases.values())
        for database in databases:
            database.close()
        return clean


class WorkerProcess:
    """One stack behind the supervisor's socket (constructed *inside*
    the worker process)."""

    def __init__(self, spec: WorkerSpec, sock: socket.socket):
        self.spec = spec
        self.sock = sock
        self._conn = protocol.FrameConnection(sock)
        self._send_lock = make_lock(f"WorkerProcess[{spec.worker_id}]._send_lock")
        self.stack: ServingStack | None = None  # built by run()

    # -------------------------------------------------------------- frames

    def send(self, frame: dict) -> None:
        with self._send_lock:
            self._conn.send(frame)

    def _submit(self, frame: dict, received: float) -> None:
        """Hand one request frame to the service.  Runs on the frame
        loop, or on a short-lived thread when the database must be
        adopted first; the answer goes out from :meth:`_respond`."""
        request_id = frame["id"]
        db_id = frame.get("database_id") or ""
        service = self.stack.service
        try:
            if db_id not in service.runtimes and not self.stack.adopt(db_id):
                raise UnknownDatabaseError(f"unknown database {db_id!r}")
            # The budget was anchored when the frame arrived: time spent
            # adopting counts against it.
            deadline = protocol.budget_to_deadline(
                frame.get("budget_s", 0.0), now=received
            )
            tenant_id = frame.get("tenant_id")
            service.submit(
                frame["question"],
                db_id,
                beam_size=frame.get("beam_size"),
                execute=bool(frame.get("execute", False)),
                timeout_ms=1000.0 * protocol.remaining_budget_s(deadline),
                inject_failure=bool(frame.get("inject_failure", False)),
                tenant_id=str(tenant_id) if tenant_id is not None else None,
                tenant_weight=int(frame.get("tenant_weight", 1)),
                on_done=partial(self._respond, request_id),
            )
        except (QueueFullError, ServiceStoppedError, UnknownDatabaseError) as exc:
            self._reject(request_id, str(exc))
        except Exception as exc:  # justified: reject frame reports the failure upstream
            self._reject(request_id, f"worker error: {exc}")

    def _respond(self, request_id: int, request: ServeRequest) -> None:
        """``on_done`` of every submitted request: the serving thread
        that resolved it sends the response frame."""
        try:
            self.send(protocol.response_frame(request_id, request.response.as_dict()))
        except protocol.ProtocolError as exc:  # an answer too large to frame
            self._reject(request_id, f"worker error: {exc}")
        except OSError:  # supervisor went away; the loop will exit on EOF
            pass

    def _reject(self, request_id: int, reason: str) -> None:
        try:
            self.send(protocol.reject_frame(request_id, reason))
        except OSError:
            pass

    def _health(self) -> dict:
        health = self.stack.service.health()
        health["worker_id"] = self.spec.worker_id
        health["shard"] = sorted(self.spec.shard)
        health["registry"] = self.stack.registry.stats()
        return health

    # ---------------------------------------------------------------- loop

    def run(self) -> int:
        self.stack = stack = ServingStack(self.spec)
        self.send(
            protocol.ready_frame(
                self.spec.worker_id, stack.warm_s, sorted(stack.service.runtimes)
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
                    received = time.monotonic()
                    if frame.get("database_id") in stack.service.runtimes:
                        self._submit(frame, received)
                    else:
                        # Adoption opens and indexes a database (seconds);
                        # off this loop, so pings keep being answered.
                        threading.Thread(
                            target=self._submit,
                            args=(frame, received),
                            name=f"cluster-worker-{self.spec.worker_id}-adopt",
                            daemon=True,
                        ).start()
                elif kind == "ping":
                    # Answered inline: measures frame-loop liveness.
                    try:
                        self.send(protocol.pong_frame(
                            frame.get("id", 0),
                            self._health(),
                            stack.metrics.snapshot(),
                        ))
                    except OSError:
                        break
                elif kind == "refresh":
                    if stack.refresher is not None:
                        # Async trigger: the refresher's own thread does
                        # the rebuild, so the frame loop stays responsive
                        # to pings during a refresh.
                        stack.refresher.trigger(frame.get("database_id"))
                elif kind == "shutdown":
                    break
        finally:
            # Drains: every request already submitted is still answered
            # (its serving thread sends the frame) before the socket goes.
            stack.close(timeout=5.0)
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
