"""Supervision primitives: worker states and the restart circuit breaker.

Kept free of process/socket concerns so the policies are unit-testable
with a fake clock; the supervisor composes them with the restart delay
schedule, :class:`repro.concurrency.ExponentialBackoff`.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from collections.abc import Callable


class WorkerStatus(enum.Enum):
    """Lifecycle of one worker slot as the supervisor sees it."""

    STARTING = "starting"      # process forked, warm-up in progress
    READY = "ready"            # sent `ready`, heartbeats healthy
    UNHEALTHY = "unhealthy"    # missed heartbeats; about to be killed
    RESTARTING = "restarting"  # dead; restart scheduled (backoff)
    BROKEN = "broken"          # circuit breaker tripped; no more restarts
    STOPPED = "stopped"        # deliberately shut down


class CircuitBreaker:
    """Trips after ``max_failures`` failures inside a sliding window.

    A worker that crashes occasionally is restarted (with backoff); one
    that crash-loops — e.g. a corrupt index bundle that kills it during
    warm-up every time — would otherwise burn CPU forever.  After the
    breaker trips the slot is marked :data:`WorkerStatus.BROKEN` and the
    router stops sending it traffic until an operator intervenes.
    """

    def __init__(
        self,
        *,
        max_failures: int = 5,
        window_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_failures < 1 or window_s <= 0:
            raise ValueError("need max_failures >= 1 and window_s > 0")
        self.max_failures = max_failures
        self.window_s = window_s
        self._clock = clock
        self._failures: deque[float] = deque()
        self._tripped = False

    def _prune(self, now: float) -> None:
        while self._failures and now - self._failures[0] > self.window_s:
            self._failures.popleft()

    def record_failure(self) -> bool:
        """Record one failure; returns True when the breaker is (now) open."""
        now = self._clock()
        self._failures.append(now)
        self._prune(now)
        if len(self._failures) >= self.max_failures:
            self._tripped = True
        return self._tripped

    def record_success(self) -> None:
        """A full healthy interval closes the breaker and clears history."""
        self._failures.clear()
        self._tripped = False

    @property
    def open(self) -> bool:
        return self._tripped

    @property
    def recent_failures(self) -> int:
        self._prune(self._clock())
        return len(self._failures)
