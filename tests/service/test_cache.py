"""Unit tests for the service's result cache: an in-memory RowStore."""

from repro.runtime.checkpoint import RowStore
from repro.service import ResilienceService


def square(x: int) -> dict:
    return {"sq": x * x}


class TestBasics:
    def test_miss_then_hit(self):
        cache = RowStore()
        assert cache.get("fp") is None
        cache.put("fp", {"score": 1})
        assert cache.get("fp") == {"score": 1}
        assert cache.hits == 1
        assert cache.misses == 1

    def test_miss_is_not_a_falsy_row(self):
        cache = RowStore()
        cache.put("empty", {})
        row = cache.get("empty")
        assert row is not None
        assert row == {}

    def test_hit_returns_a_copy(self):
        cache = RowStore()
        cache.put("fp", {"score": 1})
        row = cache.get("fp")
        row["score"] = 99
        assert cache.get("fp") == {"score": 1}

    def test_put_normalizes_like_checkpoints(self):
        # tuples become lists, exactly as a checkpoint round-trip would
        cache = RowStore()
        kept = cache.put("fp", {"pair": (1, 2)})
        assert kept == {"pair": [1, 2]}
        assert cache.get("fp") == {"pair": [1, 2]}

    def test_contains_and_len(self):
        cache = RowStore()
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert "a" in cache and "b" in cache
        assert "c" not in cache
        assert len(cache) == 2


class TestEviction:
    def test_unbounded_by_default(self):
        cache = RowStore()
        for i in range(500):
            cache.put(f"fp-{i}", {"v": i})
        assert len(cache) == 500
        assert "fp-0" in cache


class TestTelemetry:
    def test_counters_on_tracer(self):
        # the service counts its cache traffic on its own tracer
        with ResilienceService() as svc:
            assert svc.submit("t", square, grid={"x": [1, 2]}).wait(30)
            assert svc.submit("t", square, grid={"x": [1]}).wait(30)
            counters = svc.tracer.counters
            assert isinstance(svc.cache, RowStore)
        assert counters["service.cache.misses"] == 2
        assert counters["service.cache.hits"] == 1
        assert counters["service.cache.stores"] == 2
        assert svc.cache.stats() == {"entries": 2, "hits": 1, "misses": 2}

    def test_stats_snapshot(self):
        cache = RowStore()
        cache.put("a", {"v": 1})
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats == {"entries": 1, "hits": 1, "misses": 1}
