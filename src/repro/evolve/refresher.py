"""Background KB refresher: poll, rebuild off-path, swap with zero downtime.

The :class:`KBRefresher` is the only way new database content reaches a
serving process: indexes are immutable once built, so drift arrives as
a whole new bundle.  It is a supervised daemon thread that polls every
watched database on a jittered interval, and each poll asks one
question: is the :class:`~repro.index.registry.IndexEntry` the attached
service serves for that database still current?  The
:class:`~repro.index.registry.IndexRegistry` answers it
(:meth:`~repro.index.registry.IndexRegistry.is_current`: the file state
taken before that bundle's scan against the file's state now), so the
baseline is the served bundle itself and nothing else is snapshotted.
When the bundle is not current (or no registry bundle is served), or
the refresh is forced, the refresher

1. opens a *fresh* :class:`~repro.db.database.Database` from the file
   (so DDL is re-introspected — new tables and columns appear in the
   schema object),
2. gets a bundle for the file's current state off the request path:
   :meth:`IndexRegistry.get <repro.index.registry.IndexRegistry.get>`
   when stale (memo → disk → build, so two routing ids over one file
   move to one new bundle), :meth:`IndexRegistry.rebuild
   <repro.index.registry.IndexRegistry.rebuild>` when forced; a build is
   saved to the registry's disk cache and becomes what the registry
   answers for that file — so a restart loads what was last swapped in,
3. swaps the bundle into the attached
   :class:`~repro.serving.service.TranslationService` (whose runtime
   warms the new schema's features, then rebinds under the per-runtime
   lock, evicts the retired schema's features, and bumps the generation
   that keys its translation cache), and counts the swap for that
   database (``/healthz`` ``evolve.versions``).

No request ever blocks on a rebuild: requests keep running against the
runtime's current bundle while the new one is built.  The swap itself is
the new schema's features (built outside the runtime lock) and a
handful of attribute rebinds — measured by the
``evolve_index_swap_seconds`` histogram.

Failures back off exponentially per database and never kill the thread;
a manual refresh of one database or of all of them can be forced
through :meth:`trigger` (async — SIGHUP handlers, the admin route's
``wait: false`` and cluster IPC frames use it) or :meth:`refresh_now`
(synchronous — the ``POST /admin/refresh`` route's default).

When a :class:`~repro.evolve.corpus.CorpusWriter` is configured, each
swap also emits validated Q->SQL examples for every table of the fresh
schema, so the training corpus grows with the schema; the writer drops
the examples it already holds, so only new ones are appended.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.concurrency import ExponentialBackoff
from repro.concurrency import make_lock
from repro.db.database import Database
from repro.evolve.corpus import CorpusWriter, generate_examples
from repro.index.registry import IndexRegistry
from repro.logs import get_logger
from repro.metrics import MetricsRegistry

_LOG = get_logger(__name__)

DEFAULT_INTERVAL_S = 30.0
# +/- fraction of the interval each sleep is jittered by, so a fleet of
# workers polling the same files never thunders in lockstep.
JITTER = 0.2


@dataclass
class _WatchTarget:
    """Refresher-side state for one watched database."""

    database_id: str     # external routing id (what services key runtimes by)
    path: str
    backoff: ExponentialBackoff
    retry_at: float = 0.0  # monotonic; 0 = not backing off


class KBRefresher:
    """Supervised background refresher for live schema evolution.

    Args:
        registry: the index registry that says whether a served bundle
            is current and hands out the bundle for a drifted file
            (saving a new build, when it has a disk cache).
        interval_s: base polling interval; each sleep is jittered by
            ±20 % so multiple refreshers never align.
        metrics: registry for the ``evolve_*`` instruments — pass the
            serving registry so they appear on the same ``/metrics``
            exposition.
        corpus_path: JSONL file to grow with validated Q->SQL examples
            on every swap (``None`` disables corpus growth).
        corpus_policy: optional policy engine the generated examples are
            validated against.
    """

    def __init__(
        self,
        registry: IndexRegistry,
        *,
        interval_s: float = DEFAULT_INTERVAL_S,
        metrics: MetricsRegistry | None = None,
        corpus_path: str | Path | None = None,
        corpus_policy=None,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.registry = registry
        self.interval_s = float(interval_s)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.corpus = CorpusWriter(corpus_path) if corpus_path is not None else None
        self.corpus_policy = corpus_policy
        self._targets: dict[str, _WatchTarget] = {}  # guarded by: _lock
        self._service = None  # guarded by: _lock
        self._swaps: dict[str, int] = {}  # guarded by: _lock
        # Database ids with a pending trigger(); None forces all.
        self._forced: set[str | None] = set()  # guarded by: _lock
        self._lock = make_lock("KBRefresher._lock")
        # Serializes refresh cycles (the daemon's scheduled ones against
        # manual refresh_now calls); never held while _lock is waited on
        # by readers of stats().
        self._cycle_lock = make_lock("KBRefresher._cycle_lock")
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # RNG for sleep jitter only; results never depend on it.
        self._rng = random.Random()
        m = self.metrics
        self._runs_total = m.counter(
            "evolve_refresh_runs_total",
            "background refresh polls (one per watched database per cycle)")
        self._failures_total = m.counter(
            "evolve_refresh_failures_total",
            "refresh polls that raised (retried with backoff)")
        self._swap_hist = m.histogram(
            "evolve_index_swap_seconds",
            "wall time of one index swap into the serving runtime")
        self._corpus_total = m.counter(
            "evolve_corpus_examples_total",
            "validated corpus examples emitted by schema-driven growth")
        self._watched_gauge = m.gauge(
            "evolve_watched_databases", "databases under drift watch")

    # ------------------------------------------------------------- wiring

    def watch(self, database: Database, *, database_id: str | None = None) -> None:
        """Put one served database under drift watch.

        The database must be file-backed: rebuilds are re-introspected
        from the file, which an in-memory database does not support.
        """
        if database.path is None:
            raise ValueError(
                "KBRefresher requires a file-backed database "
                "(in-memory databases cannot be re-opened for rebuilds)"
            )
        db_id = database_id if database_id is not None else database.schema.name
        target = _WatchTarget(
            database_id=db_id,
            path=database.path,
            backoff=ExponentialBackoff(
                initial=min(1.0, self.interval_s),
                max_delay=max(self.interval_s * 8, 10.0),
            ),
        )
        with self._lock:
            self._targets[db_id] = target
            self._watched_gauge.set(len(self._targets))

    def attach_service(self, service) -> None:
        """Notify ``service`` on every swap (and expose this refresher on
        it for the admin route and ``/healthz``)."""
        with self._lock:
            self._service = service
        service.refresher = self

    # ---------------------------------------------------------- lifecycle

    def start(self) -> "KBRefresher":
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="kb-refresher", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, timeout: float = 10.0) -> None:
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
        self._thread = None

    # ----------------------------------------------------------- triggers

    def trigger(self, database_id: str | None = None) -> None:
        """Schedule an out-of-band forced refresh of one database, or of
        every database when ``database_id`` is None (non-blocking; safe
        from signal handlers and the cluster IPC reader thread)."""
        with self._lock:
            self._forced.add(database_id)
        self._wake.set()

    def refresh_now(
        self, database_id: str | None = None, *, force: bool = True
    ) -> list[dict]:
        """Run one refresh cycle synchronously on the caller's thread.

        ``force=True`` rebuilds and swaps even when the served bundle is
        current (the admin-route contract: "refresh" always refreshes).
        Returns one info dict per database that was swapped.
        """
        return self._run_cycle(
            only=database_id, forced={database_id} if force else set()
        )

    # --------------------------------------------------------------- loop

    def _loop(self) -> None:
        while not self._stop.is_set():
            spread = self.interval_s * JITTER
            delay = self.interval_s + self._rng.uniform(-spread, spread)
            self._wake.wait(timeout=max(0.05, delay))
            self._wake.clear()
            if self._stop.is_set():
                return
            with self._lock:
                forced, self._forced = self._forced, set()
            try:
                self._run_cycle(forced=forced)
            except Exception:
                # The per-target path already counts and backs off; this
                # guard only catches refresher bugs — the daemon must
                # survive them (it is the zero-downtime mechanism).
                self._failures_total.inc()
                _LOG.exception("refresh cycle failed")

    def _run_cycle(
        self, *, only: str | None = None, forced: set[str | None]
    ) -> list[dict]:
        """Poll the watched databases (only ``only``, when given); those
        in ``forced`` (all of them, when it holds None) rebuild even
        when their served bundle is current."""
        with self._cycle_lock:
            with self._lock:
                targets = [
                    t for t in self._targets.values()
                    if only is None or t.database_id == only
                ]
            swapped: list[dict] = []
            for target in targets:
                if self._stop.is_set():
                    break
                force = None in forced or target.database_id in forced
                if not force and target.retry_at > time.monotonic():
                    continue  # still backing off after a failure
                self._runs_total.inc()
                try:
                    info = self._refresh_one(target, force=force)
                    target.backoff.reset()
                    target.retry_at = 0.0
                except Exception as exc:
                    self._failures_total.inc()
                    delay = target.backoff.next_delay()
                    target.retry_at = time.monotonic() + delay
                    _LOG.warning(
                        "refresh of %r failed (retrying in %.1fs): %s",
                        target.database_id, delay, exc,
                    )
                    continue
                if info is not None:
                    swapped.append(info)
            return swapped

    # ------------------------------------------------------------ refresh

    def _refresh_one(self, target: _WatchTarget, *, force: bool) -> dict | None:
        with self._lock:
            service = self._service
        if not force:
            served = (
                service.served_entry(target.database_id)
                if service is not None else None
            )
            if served is not None and self.registry.is_current(served):
                return None

        # ---- the bundle for the file's current state, off the request path ----
        fresh = Database.open(target.path)
        try:
            entry = (
                self.registry.rebuild(fresh) if force else self.registry.get(fresh)
            )

            # ---- the swap: attribute rebinds in the runtime ----
            start = time.perf_counter()
            if service is not None:
                service.on_index_swap(
                    target.database_id, entry, schema=fresh.schema
                )
            swap_s = time.perf_counter() - start
            self._swap_hist.observe(swap_s)
            with self._lock:
                version = self._swaps.get(target.database_id, 0) + 1
                self._swaps[target.database_id] = version

            examples_added = self._grow_corpus(fresh, target)
        finally:
            fresh.close()

        _LOG.info(
            "swapped index for %r (version=%d, %.2fms)",
            target.database_id, version, 1000.0 * swap_s,
        )
        return {
            "database_id": target.database_id,
            "version": version,
            "swap_ms": round(1000.0 * swap_s, 3),
            "corpus_examples": examples_added,
        }

    def _grow_corpus(self, fresh: Database, target: _WatchTarget) -> int:
        if self.corpus is None:
            return 0
        # Every table, every time: the writer drops the repeats.
        examples = generate_examples(
            fresh,
            database_id=target.database_id,
            policy=self.corpus_policy,
            validate=True,
        )
        added = self.corpus.append(examples)
        if added:
            self._corpus_total.inc(added)
        return added

    # -------------------------------------------------------------- stats

    def stats(self) -> dict:
        with self._lock:
            watched = sorted(self._targets)
            swaps = dict(self._swaps)
        return {
            "running": self._thread is not None and self._thread.is_alive(),
            "interval_s": self.interval_s,
            "watched": watched,
            "swaps": sum(swaps.values()),
            # Swaps per watched database.
            "versions": {db_id: swaps.get(db_id, 0) for db_id in watched},
            "corpus_examples": self.corpus.written if self.corpus else None,
        }
