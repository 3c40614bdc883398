"""Live schema evolution: drift detection, background refresh, corpus growth.

The subsystem keeps a running service's knowledge of its databases
current without downtime:

* :mod:`repro.evolve.watcher` — :class:`SchemaWatcher` detects drift in
  a database file, including count-preserving UPDATEs the registry's
  cheap fingerprint misses.
* :mod:`repro.evolve.refresher` — :class:`KBRefresher` polls off-path,
  rebuilds the index/searcher bundle in the background, and swaps it
  atomically into the :class:`~repro.index.registry.IndexRegistry` and
  every attached service.  This swap is the only way new data reaches
  a serving process: a built index is never mutated.
* :mod:`repro.evolve.corpus` — derives validated Q->SQL examples from
  the live schema as diffs arrive (``repro corpus generate``).

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
