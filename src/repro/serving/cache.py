"""LRU + TTL result cache for translations.

Keys are ``(database_id, normalized_question, beam_size, index
generation)`` — the inputs that fully determine a translation for a fixed
model — so repeated questions (the common interactive pattern: users
iterate on phrasings and re-ask) skip the neural pipeline entirely.

Nothing is ever invalidated by hand.  An index swap bumps the runtime's
generation, so every later request looks up fresh keys and no pre-swap
answer can be read again; the old entries age out through the LRU bound
and the TTL.  The cache keeps hit/miss/expiration accounting for the
metrics registry.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

from repro.concurrency import make_lock


def normalize_question(question: str) -> str:
    """Collapse case/whitespace and trailing punctuation so trivially
    rephrased duplicates share a cache entry."""
    collapsed = " ".join(question.strip().lower().split())
    return collapsed.rstrip(" ?.!")


@dataclass(frozen=True)
class CacheKey:
    database_id: str
    question: str
    beam_size: int
    # DatabaseRuntime.generation when the request was triaged: an index
    # swap moves every later request to fresh keys, so a pre-swap answer
    # (even one put after the swap) can never be read.
    generation: int = 0

    @classmethod
    def make(
        cls,
        database_id: str,
        question: str,
        beam_size: int,
        generation: int = 0,
    ) -> "CacheKey":
        return cls(
            database_id,
            normalize_question(question),
            int(beam_size),
            int(generation),
        )


class TranslationCache:
    """Thread-safe LRU cache with per-entry TTL.

    Args:
        capacity: maximum number of entries; the least recently *used*
            entry is evicted when full.
        ttl_s: entry lifetime in seconds; ``None`` disables expiry.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl_s: float | None = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self._entries: OrderedDict[CacheKey, tuple[object, float]] = OrderedDict()  # guarded by: _lock
        self._lock = make_lock("TranslationCache._lock")
        self.hits = 0  # guarded by: _lock
        self.misses = 0  # guarded by: _lock
        self.expirations = 0  # guarded by: _lock
        self.evictions = 0  # guarded by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> object | None:
        """The cached value, or ``None`` on miss/expiry (counted apart)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            value, expires_at = entry
            if self.ttl_s is not None and self._clock() >= expires_at:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: CacheKey, value: object) -> None:
        expires_at = (
            self._clock() + self.ttl_s if self.ttl_s is not None else float("inf")
        )
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            elif len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = (value, expires_at)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        # One critical section: size and the counters come from the same
        # instant, and hit_rate is derived inline (calling the property
        # here would re-take the non-reentrant lock).
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "expirations": self.expirations,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
            }
