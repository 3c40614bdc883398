"""Project-specific static analysis and dynamic sanitizers.

The serving stack's correctness rests on invariants that no general
linter knows about: lock discipline across modules, monotonic-clock
deadline arithmetic, resolve-exactly-once request handling, grad-off
tensor ops on the inference path, and a metrics namespace whose kinds
must stay stable across worker processes.  This package enforces them:

* :mod:`repro.analysis.engine` — a stdlib-``ast`` lint engine
  (``python -m repro.analysis``) running the named rules in
  :mod:`repro.analysis.rules` with per-line/per-scope suppressions
  (``# lint: disable=RULE (reason)``, the one exemption: every other
  finding fails the run);
* :mod:`repro.analysis.lockorder` — a dynamic lock-order sanitizer:
  under ``REPRO_SANITIZE=1`` every lock built through
  :mod:`repro.concurrency` records per-thread held→acquired edges and
  fails the run on a cycle (a potential deadlock) with the acquisition
  stacks of both sides.

See ``docs/analysis-rules.md`` for the rule catalog, the
``# guarded by:`` annotation syntax, and how to suppress with a
justification.
"""

from repro.analysis.core import FileContext, Rule, Violation
from repro.analysis.engine import analyze_paths

__all__ = ["FileContext", "Rule", "Violation", "analyze_paths"]
