"""Unit tests for the content-addressed result cache."""

from repro.runtime.trace import Tracer
from repro.service.cache import MISS, ResultCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("fp") is MISS
        cache.put("fp", {"score": 1})
        assert cache.get("fp") == {"score": 1}
        assert cache.hits == 1
        assert cache.misses == 1

    def test_miss_is_not_a_falsy_row(self):
        cache = ResultCache()
        cache.put("empty", {})
        row = cache.get("empty")
        assert row is not MISS
        assert row == {}

    def test_hit_returns_a_copy(self):
        cache = ResultCache()
        cache.put("fp", {"score": 1})
        row = cache.get("fp")
        row["score"] = 99
        assert cache.get("fp") == {"score": 1}

    def test_put_normalizes_like_checkpoints(self):
        # tuples become lists, exactly as a checkpoint round-trip would
        cache = ResultCache()
        kept = cache.put("fp", {"pair": (1, 2)})
        assert kept == {"pair": [1, 2]}
        assert cache.get("fp") == {"pair": [1, 2]}

    def test_contains_len_clear(self):
        cache = ResultCache()
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert "a" in cache and "b" in cache
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert "a" not in cache


class TestEviction:
    def test_unbounded_by_default(self):
        cache = ResultCache()
        for i in range(500):
            cache.put(f"fp-{i}", {"v": i})
        assert len(cache) == 500
        assert "fp-0" in cache


class TestTelemetry:
    def test_counters_on_tracer(self):
        tr = Tracer(keep_events=False)
        cache = ResultCache(tracer=tr)
        cache.get("nope")
        cache.put("a", {"v": 1})
        cache.get("a")
        cache.put("b", {"v": 2})
        assert tr.counters["service.cache.misses"] == 1
        assert tr.counters["service.cache.hits"] == 1
        assert tr.counters["service.cache.stores"] == 2

    def test_stats_snapshot(self):
        cache = ResultCache()
        cache.put("a", {"v": 1})
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats == {"entries": 1, "hits": 1, "misses": 1}
