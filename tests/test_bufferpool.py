"""Unit tests of the standalone buffer pool.

No read path uses the pool; it stays a self-contained LRU behind the
``"bufferpool"`` handle of ``repro.caches``. Covers hit/miss accounting,
LRU order, capacity and eviction, explicit invalidation, event emission
and JSONL round-trip, the unified ``repro.caches`` surface shared with the
planner and kernel caches, and that no estimate, plan, explain or server
batch reads through the pool.
"""

from __future__ import annotations

import json

import pytest

from repro import caches
from repro.kernels import KernelCacheInfo
from repro.observability import RecordingSink
from repro.observability.trace import event_from_dict
from repro.storage.bufferpool import BufferPool, BufferPoolInfo, default_pool
from repro.storage.events import BufferEvicted, BufferInvalidated
from tests.conftest import make_relation


@pytest.fixture
def heap(int_schema):
    """25 rows over 5-row blocks → 5 blocks."""
    return make_relation(
        "r1", int_schema, [(i, i % 10) for i in range(25)], block_size=40
    )


def read(pool, heap, block_ids):
    """The rows of ``block_ids``, each block looked up or admitted."""
    return [
        row for block_id in block_ids
        for row in pool.get_or_admit(heap, block_id)[0].rows
    ]


class TestLookupAndLRU:
    def test_miss_then_hit(self, heap):
        pool = BufferPool(capacity=8)
        rows_cold = read(pool, heap, [0, 1])
        rows_warm = read(pool, heap, [0, 1])
        assert rows_cold == rows_warm == heap.block_rows_uncharged(0) + (
            heap.block_rows_uncharged(1)
        )
        info = pool.info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)

    def test_lru_evicts_least_recently_used(self, heap):
        pool = BufferPool(capacity=2)
        read(pool, heap, [0])
        read(pool, heap, [1])
        read(pool, heap, [0])  # refresh 0; 1 is now LRU
        read(pool, heap, [2])  # evicts 1
        info = pool.info()
        assert info.evictions == 1
        assert pool.info().currsize == 2
        before = pool.info().hits
        read(pool, heap, [0])
        assert pool.info().hits == before + 1  # 0 survived
        read(pool, heap, [1])
        assert pool.info().misses == 4  # 1 did not

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(capacity=0)

    def test_same_name_different_heap_never_aliases(self, int_schema):
        other = make_relation("r1", int_schema, [(i, 99) for i in range(25)])
        heap = make_relation("r1", int_schema, [(i, i % 10) for i in range(25)])
        pool = BufferPool(capacity=8)
        read(pool, heap, [0])
        rows = read(pool, other, [0])
        assert rows == other.block_rows_uncharged(0)
        assert pool.info().hits == 0 and pool.info().misses == 2


class TestInvalidation:
    def test_invalidate_relation_drops_only_that_relation(
        self, int_schema, free_charger
    ):
        r1 = make_relation("r1", int_schema, [(i, 0) for i in range(25)])
        r2 = make_relation("r2", int_schema, [(i, 0) for i in range(25)])
        pool = BufferPool(capacity=16)
        read(pool, r1, [0, 1])
        read(pool, r2, [0, 1])
        assert pool.invalidate_relation("r1") == 2
        info = pool.info()
        assert info.currsize == 2 and info.invalidations == 2
        assert pool.invalidate_relation("r1") == 0

    def test_clear_resets_counters(self, heap):
        pool = BufferPool(capacity=8)
        read(pool, heap, [0, 0])
        pool.clear()
        assert pool.info() == BufferPoolInfo(
            hits=0, misses=0, maxsize=8, currsize=0,
            evictions=0, invalidations=0,
        )


class TestEvents:
    def test_eviction_and_invalidation_events(self, heap):
        sink = RecordingSink()
        pool = BufferPool(capacity=2, sink=sink)
        read(pool, heap, [0, 1])
        read(pool, heap, [0, 2])  # hit 0, admit 2, evict 1
        pool.invalidate_relation("r1")
        assert sink.kinds() == ["buffer_evicted", "buffer_invalidated"]
        assert [e.block_id for e in sink.of_kind("buffer_evicted")] == [1]
        (invalidated,) = sink.of_kind("buffer_invalidated")
        assert invalidated.relation == "r1" and invalidated.entries == 2

    def test_events_round_trip_through_jsonl(self):
        events = [
            BufferEvicted(relation="r1", block_id=7),
            BufferInvalidated(relation="r1", entries=12),
        ]
        for event in events:
            payload = json.loads(json.dumps(event.to_dict()))
            assert event_from_dict(payload) == event

    def test_raising_sink_never_breaks_the_read(self, heap):
        class ClosedSink:
            def emit(self, event):
                raise ValueError("I/O operation on closed file")

        pool = BufferPool(capacity=2, sink=ClosedSink())
        rows = read(pool, heap, [0, 1, 2])  # miss + evict paths
        assert len(rows) == 15
        assert pool.invalidate_relation("r1") >= 1  # invalidate path too


class TestUnifiedCacheSurface:
    def test_bufferpool_cache_info_tracks_default_pool(self, heap):
        caches.get("bufferpool").clear()
        read(default_pool(), heap, [0, 0])
        info = caches.get("bufferpool").info()
        assert isinstance(info, BufferPoolInfo)
        assert (info.hits, info.misses) == (1, 1)
        caches.get("bufferpool").clear()
        assert caches.get("bufferpool").info().currsize == 0

    def test_nothing_reads_through_the_default_pool(self):
        """Estimates, plans, explain and a server batch across a committed
        write leave the process-wide pool untouched."""
        from repro.core.database import Database
        from repro.relational import cmp, join, rel
        from repro.server import QueryRequest, QueryServer
        from repro.server.workload import demo_database

        caches.get("bufferpool").clear()
        db = Database(seed=3)
        db.create_relation(
            "r1", [("id", "int"), ("a", "int")],
            rows=[(i, i % 50) for i in range(2_000)],
        )
        db.create_relation(
            "r2", [("a", "int"), ("c", "int")],
            rows=[(i % 7, i) for i in range(500)], partitions=3,
        )
        expr = join(rel("r1").where(cmp("a", "<", 20)), rel("r2"), on=["a"])
        assert db.estimate(expr, quota=900.0, seed=1).report.total_blocks > 0
        db.explain(expr)

        served = demo_database(seed=4, tuples=1_000)
        server = QueryServer(served)
        query = rel("r1").where(cmp("a", "<", 5_000))
        first = server.process(
            [QueryRequest(query, quota=2.0, arrival=0.0, request_id="q0")]
        )
        served.append_rows(
            "r1", [(10_000 + i, i, i, "x" * 8) for i in range(50)]
        )
        later = server.clock.now()
        second = server.process(
            [QueryRequest(query, quota=2.0, arrival=later, request_id="q1")]
        )
        assert first[0].result.report.total_blocks > 0
        assert second[0].result.report.total_blocks > 0
        info = caches.info()["bufferpool"]
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_kernel_cache_info_counts_compiles(self):
        from repro.catalog.schema import Schema
        from repro.catalog.types import AttributeType
        from repro.kernels.cache import compiled_predicate
        from repro.relational.predicate import cmp

        caches.get("kernels").clear()
        schema = Schema.of(id=AttributeType.INT, a=AttributeType.INT)
        first = compiled_predicate(cmp("a", "<", 5), schema)
        again = compiled_predicate(cmp("a", "<", 5), schema)
        assert again is first
        info = caches.get("kernels").info()
        assert isinstance(info, KernelCacheInfo)
        assert info.hits >= 1 and info.misses >= 1 and info.currsize >= 1
        caches.get("kernels").clear()
        assert caches.get("kernels").info().currsize == 0

    def test_all_three_caches_exported_from_package_root(self):
        import repro

        for name in ("caches", "KernelCacheInfo"):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name
        assert repro.caches.names() == ("kernels", "plans", "bufferpool")
        # The pool is off every read path, so off the public surface too.
        for name in ("BufferPool", "PooledBatch", "default_pool", "BufferHit"):
            assert name not in repro.__all__, name
            assert not hasattr(repro, name), name
