"""Multi-process sharded serving with worker supervision.

The single-process serving stack (:mod:`repro.serving`) is bounded by
the GIL: its thread pool overlaps I/O and the GIL-releasing kernels, but
pure-Python stages serialize.  This package scales past one core by
forking worker *processes*, each running a full ``TranslationService``
over a consistent-hash shard of the databases, under a supervisor that
routes, health-checks, restarts, and aggregates metrics.

Entry point: :class:`ClusterService` — duck-type compatible with
:class:`~repro.serving.service.TranslationService`, so the stdlib HTTP
front-end serves either without changes (``repro serve --workers N``).
"""

from repro.cluster.health import CircuitBreaker, WorkerStatus
from repro.cluster.protocol import (
    MAX_FRAME_BYTES,
    PeerClosedError,
    ProtocolError,
    budget_to_deadline,
    recv_frame,
    remaining_budget_s,
    send_frame,
)
from repro.cluster.router import HashRing
from repro.cluster.supervisor import ClusterConfig, ClusterService
from repro.cluster.worker import WorkerSpec

__all__ = [
    "CircuitBreaker",
    "ClusterConfig",
    "ClusterService",
    "HashRing",
    "MAX_FRAME_BYTES",
    "PeerClosedError",
    "ProtocolError",
    "WorkerSpec",
    "WorkerStatus",
    "budget_to_deadline",
    "recv_frame",
    "remaining_budget_s",
    "send_frame",
]
