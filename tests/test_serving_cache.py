"""Unit tests for the serving result cache (LRU + TTL + accounting)."""

from __future__ import annotations

from repro.serving import CacheKey, TranslationCache, normalize_question


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestNormalization:
    def test_case_whitespace_punctuation_collapse(self):
        assert normalize_question("  How many  Students?\n") == "how many students"
        assert normalize_question("how many students") == "how many students"

    def test_key_equivalence(self):
        a = CacheKey.make("pets", "How many students?", 1)
        b = CacheKey.make("pets", "how many   students", 1)
        assert a == b

    def test_key_discriminates_database_and_beam(self):
        base = CacheKey.make("pets", "q", 1)
        assert base != CacheKey.make("other", "q", 1)
        assert base != CacheKey.make("pets", "q", 4)


class TestLru:
    def test_get_put_roundtrip(self):
        cache = TranslationCache(capacity=4, ttl_s=None)
        key = CacheKey.make("db", "q", 1)
        assert cache.get(key) is None
        cache.put(key, {"sql": "SELECT 1"})
        assert cache.get(key) == {"sql": "SELECT 1"}
        assert cache.hits == 1
        assert cache.misses == 1

    def test_evicts_least_recently_used(self):
        cache = TranslationCache(capacity=2, ttl_s=None)
        k1, k2, k3 = (CacheKey.make("db", f"q{i}", 1) for i in range(3))
        cache.put(k1, 1)
        cache.put(k2, 2)
        assert cache.get(k1) == 1  # refresh k1; k2 becomes LRU
        cache.put(k3, 3)
        assert cache.get(k2) is None
        assert cache.get(k1) == 1
        assert cache.get(k3) == 3
        assert cache.evictions == 1

    def test_overwrite_does_not_evict(self):
        cache = TranslationCache(capacity=2, ttl_s=None)
        k1, k2 = CacheKey.make("db", "a", 1), CacheKey.make("db", "b", 1)
        cache.put(k1, 1)
        cache.put(k2, 2)
        cache.put(k1, 10)
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get(k1) == 10


class TestTtl:
    def test_entry_expires(self):
        clock = FakeClock()
        cache = TranslationCache(capacity=4, ttl_s=10.0, clock=clock)
        key = CacheKey.make("db", "q", 1)
        cache.put(key, "v")
        clock.advance(9.9)
        assert cache.get(key) == "v"
        clock.advance(0.2)
        assert cache.get(key) is None
        assert cache.expirations == 1
        assert cache.misses == 1

    def test_put_refreshes_ttl(self):
        clock = FakeClock()
        cache = TranslationCache(capacity=4, ttl_s=10.0, clock=clock)
        key = CacheKey.make("db", "q", 1)
        cache.put(key, "v1")
        clock.advance(8.0)
        cache.put(key, "v2")
        clock.advance(8.0)
        assert cache.get(key) == "v2"

    def test_stats_shape(self):
        cache = TranslationCache(capacity=4, ttl_s=None)
        cache.get(CacheKey.make("db", "q", 1))
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.0
        assert stats["capacity"] == 4
