"""Live schema evolution: background refresh and corpus growth.

The subsystem keeps a running service's knowledge of its databases
current without downtime:

* :mod:`repro.evolve.refresher` — :class:`KBRefresher` polls off-path.
  Each poll asks the :class:`~repro.index.registry.IndexRegistry`
  whether the bundle a runtime serves still matches its database file
  (the file state taken before the bundle's scan), so an INSERT, an
  in-place UPDATE anywhere in a table and DDL all show the same way.  A
  stale bundle is replaced by the registry's bundle for the file's
  current state (built and saved to its disk cache when needed), and
  that bundle is swapped into the attached service.  This swap is the
  only way new data reaches a serving process: a built index is never
  mutated.
* :mod:`repro.evolve.corpus` — derives validated Q->SQL examples from
  the live schema (``repro corpus generate``); the refresher regrows
  every table on each swap and the writer keeps only new examples.

See ``docs/schema-evolution.md`` for the lifecycle and metrics.
"""

from repro.evolve.corpus import CorpusExample, CorpusWriter, generate_examples
from repro.evolve.refresher import KBRefresher

__all__ = [
    "CorpusExample",
    "CorpusWriter",
    "KBRefresher",
    "generate_examples",
]
