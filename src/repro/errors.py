"""Exception hierarchy for the ValueNet reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library may raise with a single ``except`` clause while
still being able to distinguish the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SchemaError(ReproError):
    """A database schema is malformed or an entity lookup failed."""


class SqlParseError(ReproError):
    """The SQL parser could not parse a query in the supported subset."""


class SemQLError(ReproError):
    """A SemQL 2.0 tree or action sequence violates the grammar."""


class GrammarError(SemQLError):
    """An action is illegal in the current grammar state."""


class TranslationError(ReproError):
    """SemQL -> SQL post-processing failed (e.g. no join path exists)."""


class ExecutionError(ReproError):
    """Executing a query against the database failed."""


class DatasetError(ReproError):
    """The synthetic corpus generator produced or read inconsistent data."""


class ModelError(ReproError):
    """The neural model was configured or used incorrectly."""
