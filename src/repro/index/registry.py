"""Per-database-file value indexes, one owner per file.

Cold-building an :class:`~repro.index.inverted.InvertedIndex` and its
:class:`~repro.index.similarity.SimilaritySearcher` scans every text
column.  An :class:`IndexRegistry` builds that bundle once per database
**file** and hands the same bundle to every preprocessor, pipeline and
serving runtime that asks for it:

* **keying** — the resolved path of the SQLite file, so two routing ids
  over one file share one bundle and two files that share a name do
  not.  In-memory databases have no file and are refused;
* **freshness** — an entry holds ``(st_size, st_mtime_ns)`` of the file
  and of its ``-wal``, taken before the scan, with the few header bytes
  SQLite rewrites on every commit (so a same-size commit inside one
  coarse timestamp tick still shows).  It is current while all of them
  are unchanged, i.e. while SQLite has committed nothing since the scan
  began.  :meth:`IndexRegistry.is_current` is the one place this is
  decided: :meth:`~IndexRegistry.get` asks it of the memo, and the
  background refresher (:mod:`repro.evolve.refresher`) asks it of the
  bundle a runtime serves;
* **two entry points** — :meth:`IndexRegistry.get` answers memo → disk →
  build and is what startup, failover adoption and the refresher (for a
  served bundle that is no longer current) call, so two routing ids over
  one file move to one new bundle; :meth:`IndexRegistry.rebuild` answers
  build → save → memo and is what a forced refresh calls, so the memo
  and the disk cache follow every swap;
* **thread safety** — one build per file even under concurrent first use
  (per-file build locks; readers of other files never wait);
* **persistence** — with a ``cache_dir`` every build is saved through
  :mod:`repro.index.persistence` as ``<stem>-<hash of path>.index`` and a
  later ``get`` over an unchanged file loads it instead of scanning.
  Bundles are pickles: the directory must be trusted;
* **accounting** — ``build_count`` / ``load_count`` / ``hit_count`` let
  tests assert "exactly one index per file" instead of hoping.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

from repro.concurrency import make_lock
from repro.db.database import Database
from repro.index.inverted import InvertedIndex
from repro.index.persistence import load_bundle, save_bundle
from repro.index.similarity import SimilaritySearcher


@dataclass(frozen=True)
class IndexEntry:
    """One database file's index bundle, as of the file state it was
    built from."""

    path: Path
    state: tuple  # _file_state() of the file, taken before the scan
    index: InvertedIndex
    searcher: SimilaritySearcher
    source: str  # "built" | "disk"


def _database_file(database: Database) -> Path:
    if database.path is None:
        raise ValueError(
            "IndexRegistry needs a file-backed database "
            "(an in-memory one has no file to key or stat)"
        )
    return Path(database.path).resolve()


# Header bytes SQLite rewrites on every commit, which a same-size commit
# inside one timestamp tick leaves size and mtime blind to: the database
# header's file change counter, and the WAL header's checkpoint sequence
# number and salts (in WAL mode a commit appends frames, so the WAL grows,
# until a reset rewrites these).
_COMMIT_BYTES = (("", 24, 28), ("-wal", 12, 24))


def _file_state(path: Path) -> tuple:
    """What SQLite has committed, as the file system sees it: size, mtime
    and commit header bytes of the database file and of its write-ahead
    log, if any."""
    state: list = []
    for suffix, start, end in _COMMIT_BYTES:
        try:
            with open(path.with_name(path.name + suffix), "rb") as handle:
                stat = os.fstat(handle.fileno())
                handle.seek(start)
                state += [stat.st_size, stat.st_mtime_ns, handle.read(end - start)]
        except FileNotFoundError:
            if not suffix:
                raise
    return tuple(state)


class IndexRegistry:
    """Shared, thread-safe, optionally disk-backed index store."""

    def __init__(self, *, cache_dir: str | Path | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._entries: dict[Path, IndexEntry] = {}  # guarded by: _lock
        self._key_locks: dict[Path, object] = {}  # guarded by: _lock
        self._lock = make_lock("IndexRegistry._lock")
        self.build_count = 0  # guarded by: _lock
        self.load_count = 0  # guarded by: _lock
        self.hit_count = 0  # guarded by: _lock

    @staticmethod
    def is_current(entry: IndexEntry) -> bool:
        """Whether ``entry`` still matches its file: SQLite has committed
        nothing to it since the entry's scan began."""
        return entry.state == _file_state(entry.path)

    def get(self, database: Database) -> IndexEntry:
        """The bundle for ``database``'s file: the memo while it is
        current, else the disk cache's, else a new build."""
        path = _database_file(database)
        with self._key_lock(path):
            with self._lock:
                entry = self._entries.get(path)
            if entry is not None and self.is_current(entry):
                with self._lock:
                    self.hit_count += 1
                return entry
            state = _file_state(path)
            loaded = self._load(path, state)
            if loaded is None:
                return self._build(database, path, state)
            with self._lock:
                self.load_count += 1
                self._entries[path] = loaded
            return loaded

    def rebuild(self, database: Database) -> IndexEntry:
        """Build a new bundle for ``database``'s file whatever the memo
        holds, save it, and make it the one :meth:`get` answers."""
        path = _database_file(database)
        with self._key_lock(path):
            return self._build(database, path, _file_state(path))

    def _key_lock(self, path: Path):
        with self._lock:
            lock = self._key_locks.get(path)
            if lock is None:
                lock = self._key_locks[path] = make_lock(
                    f"IndexRegistry.key[{path}]"
                )
            return lock

    def _cache_path(self, path: Path) -> Path:
        assert self.cache_dir is not None
        digest = hashlib.sha256(str(path).encode()).hexdigest()[:16]
        return self.cache_dir / f"{path.stem}-{digest}.index"

    def _load(self, path: Path, state: tuple) -> IndexEntry | None:
        if self.cache_dir is None:
            return None
        loaded = load_bundle(
            self._cache_path(path), fingerprint=_fingerprint(path, state)
        )
        if loaded is None:
            return None
        return IndexEntry(path, state, *loaded, "disk")

    def _build(self, database: Database, path: Path, state: tuple) -> IndexEntry:
        # ``state`` was taken before the scan: a commit during it leaves
        # the file in a later state, so the next get() sees this entry
        # as stale.
        index = InvertedIndex.build(database)
        entry = IndexEntry(path, state, index, SimilaritySearcher(index), "built")
        if self.cache_dir is not None:
            save_bundle(
                self._cache_path(path),
                fingerprint=_fingerprint(path, state),
                index=entry.index,
                searcher=entry.searcher,
            )
        with self._lock:
            self.build_count += 1
            self._entries[path] = entry
        return entry

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "build_count": self.build_count,
                "load_count": self.load_count,
                "hit_count": self.hit_count,
            }


def _fingerprint(path: Path, state: tuple) -> str:
    """What a disk bundle must match: its file and that file's state."""
    return f"{path}\x00{state}"
