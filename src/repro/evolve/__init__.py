"""Live schema evolution: drift detection, background refresh, corpus growth.

The subsystem keeps a running service's knowledge of its databases
current without downtime:

* :mod:`repro.evolve.watcher` — :class:`SchemaWatcher` detects drift in
  a database file from two signals SQLite keeps: its change counters
  (``data_version``, ``schema_version``) say whether anything was
  committed, and a diff of the tables' DDL and columns says whether
  the schema changed.  Any other commit is content drift, naming no
  tables — count-preserving UPDATEs included.
* :mod:`repro.evolve.refresher` — :class:`KBRefresher` polls off-path,
  rebuilds the index/searcher bundle in the background through the
  :class:`~repro.index.registry.IndexRegistry` it is given (which saves
  it to its disk cache and answers it from then on), and swaps it into
  the attached service.  This swap is the only way new data reaches a
  serving process: a built index is never mutated.
* :mod:`repro.evolve.corpus` — derives validated Q->SQL examples from
  the live schema as diffs arrive (``repro corpus generate``): for the
  tables a schema diff names, or every table (deduplicated) on content
  drift.

See ``docs/schema-evolution.md`` for the lifecycle and metrics.
"""

from repro.evolve.corpus import CorpusExample, CorpusWriter, generate_examples
from repro.evolve.refresher import KBRefresher
from repro.evolve.watcher import DriftReport, DriftVerdict, SchemaWatcher

__all__ = [
    "CorpusExample",
    "CorpusWriter",
    "DriftReport",
    "DriftVerdict",
    "KBRefresher",
    "SchemaWatcher",
    "generate_examples",
]
