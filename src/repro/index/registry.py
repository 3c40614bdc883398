"""Process-wide registry of per-database value indexes.

Before this layer existed every :class:`~repro.preprocessing.pipeline.Preprocessor`
cold-built its own :class:`~repro.index.inverted.InvertedIndex` and
:class:`~repro.index.similarity.SimilaritySearcher` — the serving layer
ended up with multiple copies per database (runtime, pipeline, fallback),
and every benchmark or eval script paid the full scan again.  The
registry makes the pair a shared, keyed resource:

* **keying** — database id + a cheap content fingerprint (schema shape
  plus per-table row counts); a fingerprint change (new rows, new
  columns) triggers a rebuild on the next :meth:`IndexRegistry.get`,
  which offline evaluation and the disk cache rely on;
* **swapping** — a serving process calls ``get`` only while it builds
  its preprocessors (startup, failover adoption); after that, drift
  reaches it only through :meth:`IndexRegistry.swap`, called by the
  background refresher (:mod:`repro.evolve.refresher`) with an entry
  it built off the request path.  Entries are never mutated;
* **thread safety** — one build per key even under concurrent first use
  (per-key build locks; readers never block builders of other keys);
* **persistence** — with a ``cache_dir`` the registry saves every cold
  build through :mod:`repro.index.persistence` and warm-loads it next
  time, skipping both the column scans and the q-gram derivation;
* **accounting** — ``build_count`` / ``load_count`` / ``hit_count`` let
  tests assert "exactly one index per database" instead of hoping.

``get_default_registry`` returns the process-wide instance used whenever
a :class:`Preprocessor` is built without an explicit index; tests can
swap it with ``set_default_registry`` to observe accounting in isolation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from repro.concurrency import make_lock
from repro.db.database import Database
from repro.index.inverted import InvertedIndex
from repro.index.persistence import load_bundle, save_bundle
from repro.index.similarity import SimilaritySearcher


# taint: trusted (COUNT targets are quoted identifiers from the database's own Schema object)
def database_fingerprint(database: Database) -> str:
    """Cheap content fingerprint: schema shape + per-table row counts.

    Deliberately avoids scanning base data (that is what the index build
    itself does); in-place updates that keep every row count identical are
    not detected — the refresher's watcher
    (:class:`~repro.evolve.watcher.SchemaWatcher`) catches those and
    swaps in a rebuilt entry.
    """
    digest = hashlib.sha256()
    digest.update(database.schema.name.encode())
    for table in database.schema.tables:
        digest.update(b"\x00" + table.name.encode())
        for column in table.columns:
            digest.update(
                b"\x01" + column.name.encode() + column.column_type.name.encode()
            )
        try:
            rows = database.execute(f'SELECT COUNT(*) FROM "{table.name}"')
            count = int(rows[0][0]) if rows else 0
        except Exception:  # justified: table missing on disk is fingerprinted as -1
            count = -1
        digest.update(b"\x02" + str(count).encode())
    return digest.hexdigest()


@dataclass
class IndexEntry:
    """One shared per-database index bundle."""

    database_id: str
    fingerprint: str
    index: InvertedIndex
    searcher: SimilaritySearcher
    source: str  # "built" | "disk"


class IndexRegistry:
    """Shared, thread-safe, optionally disk-backed index store."""

    def __init__(self, *, cache_dir: str | Path | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._entries: dict[str, IndexEntry] = {}  # guarded by: _lock
        self._key_locks: dict[str, object] = {}  # guarded by: _lock
        self._versions: dict[str, int] = {}  # guarded by: _lock
        self._lock = make_lock("IndexRegistry._lock")
        self.build_count = 0  # guarded by: _lock
        self.load_count = 0  # guarded by: _lock
        self.hit_count = 0  # guarded by: _lock
        self.swap_count = 0  # guarded by: _lock

    # --------------------------------------------------------------- core

    def get(self, database: Database, *, database_id: str | None = None) -> IndexEntry:
        """The shared entry for ``database``, building or loading on miss
        or on a fingerprint change."""
        db_id = database_id if database_id is not None else database.schema.name
        fingerprint = database_fingerprint(database)
        with self._lock:
            entry = self._entries.get(db_id)
            if entry is not None and entry.fingerprint == fingerprint:
                self.hit_count += 1
                return entry
            key_lock = self._key_locks.setdefault(
                db_id, make_lock(f"IndexRegistry.key[{db_id}]")
            )
        with key_lock:
            with self._lock:
                entry = self._entries.get(db_id)
                if entry is not None and entry.fingerprint == fingerprint:
                    self.hit_count += 1
                    return entry
            entry = self._load_or_build(database, db_id, fingerprint)
            with self._lock:
                self._entries[db_id] = entry
                self._versions[db_id] = self._versions.get(db_id, 0) + 1
            return entry

    def _cache_path(self, db_id: str) -> Path:
        assert self.cache_dir is not None
        # db ids come from schema names / CLI labels; keep the path safe.
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in db_id)
        return self.cache_dir / f"{safe}.index"

    def _load_or_build(
        self, database: Database, db_id: str, fingerprint: str
    ) -> IndexEntry:
        if self.cache_dir is not None:
            loaded = load_bundle(self._cache_path(db_id), fingerprint=fingerprint)
            if loaded is not None:
                index, searcher = loaded
                with self._lock:
                    self.load_count += 1
                return IndexEntry(db_id, fingerprint, index, searcher, "disk")
        index = InvertedIndex.build(database)
        searcher = SimilaritySearcher(index)
        with self._lock:
            self.build_count += 1
        if self.cache_dir is not None:
            save_bundle(
                self._cache_path(db_id),
                fingerprint=fingerprint,
                index=index,
                searcher=searcher,
            )
        return IndexEntry(db_id, fingerprint, index, searcher, "built")

    # ---------------------------------------------------------- lifecycle

    def warm(
        self,
        databases: dict[str, Database] | list[Database],
        *,
        only: set[str] | None = None,
    ) -> list[IndexEntry]:
        """Build (or load) entries for many databases, one after another.

        Sequential on purpose: a cold build is CPU-bound under the GIL, so
        a thread pool saves no time, while each of its threads gets a
        malloc arena that keeps that build's transients (tens of MB of
        peak RSS per database).

        ``only`` restricts warming to that subset of database ids — a
        cluster worker hosting every database but *owning* one shard
        warms only its shard eagerly and builds the rest lazily if it
        ever receives failover traffic for them.
        """
        if isinstance(databases, dict):
            items = list(databases.items())
        else:
            items = [(db.schema.name, db) for db in databases]
        if only is not None:
            items = [(db_id, db) for db_id, db in items if db_id in only]
        return [self.get(database, database_id=db_id) for db_id, database in items]

    def swap(self, entry: IndexEntry) -> int:
        """Atomically publish a background-built entry; returns its version.

        This is the zero-downtime half of the refresh protocol: the
        builder did all its work off-path, so publishing is a single
        dictionary assignment under the registry lock.  Readers either
        see the old bundle or the new one, never a partial state.
        """
        with self._lock:
            self._entries[entry.database_id] = entry
            version = self._versions.get(entry.database_id, 0) + 1
            self._versions[entry.database_id] = version
            self.swap_count += 1
            return version

    def version(self, database_id: str) -> int:
        """How many times this key's entry has been (re)built or swapped."""
        with self._lock:
            return self._versions.get(database_id, 0)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "build_count": self.build_count,
                "load_count": self.load_count,
                "hit_count": self.hit_count,
                "swap_count": self.swap_count,
                "versions": dict(self._versions),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_default_registry = IndexRegistry()  # guarded by: _default_lock
_default_lock = make_lock("index.registry._default_lock")


def get_default_registry() -> IndexRegistry:
    """The process-wide registry shared by all default-constructed
    preprocessors, pipelines, and serving runtimes."""
    with _default_lock:
        return _default_registry


def set_default_registry(registry: IndexRegistry) -> IndexRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous
