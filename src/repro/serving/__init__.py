"""Concurrent NL-to-SQL inference serving.

The production-shaped layer over the translation pipelines: a bounded
request queue with a micro-batching worker pool
(:class:`TranslationService`), an LRU+TTL result cache
(:class:`TranslationCache`), graceful degradation to the heuristic
baseline on model failure or deadline breach, and the HTTP front door
(:class:`ServingServer` over the route logic in
:mod:`repro.serving.routes`).  Start it from the CLI with ``repro
serve``.  Metrics live in :mod:`repro.metrics`.
"""

from repro.serving.cache import CacheKey, TranslationCache, normalize_question
from repro.serving.http import ServingRequestHandler, ServingServer
from repro.serving.runtime import DatabaseRuntime
from repro.serving.service import (
    QueueFullError,
    ServeRequest,
    ServeResponse,
    ServiceStoppedError,
    ServingError,
    TranslationService,
    UnknownDatabaseError,
)

__all__ = [
    "CacheKey",
    "DatabaseRuntime",
    "QueueFullError",
    "ServeRequest",
    "ServeResponse",
    "ServiceStoppedError",
    "ServingError",
    "ServingRequestHandler",
    "ServingServer",
    "TranslationCache",
    "TranslationService",
    "UnknownDatabaseError",
    "normalize_question",
]
