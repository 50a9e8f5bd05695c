"""Unit tests of the buffer pool (system S1's buffer manager).

Covers the pool in isolation — hit/miss accounting, LRU order, capacity
and eviction, a live :class:`PooledBatch` outliving its pool entries,
decode-once column sharing, explicit invalidation, event emission and JSONL round-trip,
and the unified ``repro.caches`` surface shared with the planner and
kernel caches. Engine-level identity contracts live
in ``test_bufferpool_identity.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import caches
from repro.kernels import KernelCacheInfo
from repro.kernels.columns import ColumnBatch
from repro.observability import RecordingSink
from repro.observability.trace import event_from_dict
from repro.storage.bufferpool import (
    BufferPool,
    BufferPoolInfo,
    PooledBatch,
    default_pool,
    invalidate_bufferpool_relation,
)
from repro.storage.events import BufferEvicted, BufferHit, BufferInvalidated
from tests.conftest import make_relation


@pytest.fixture
def heap(int_schema):
    """25 rows over 5-row blocks → 5 blocks."""
    return make_relation(
        "r1", int_schema, [(i, i % 10) for i in range(25)], block_size=40
    )


def read(pool, heap, block_ids, charger):
    return heap.read_blocks_decoded(block_ids, charger, pool=pool)[0]


class TestLookupAndLRU:
    def test_miss_then_hit(self, heap, free_charger):
        pool = BufferPool(capacity=8)
        rows_cold = read(pool, heap, [0, 1], free_charger)
        rows_warm = read(pool, heap, [0, 1], free_charger)
        assert rows_cold == rows_warm == heap.block_rows_uncharged(0) + (
            heap.block_rows_uncharged(1)
        )
        info = pool.info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)

    def test_every_block_charged_even_on_hit(self, heap, unit_charger):
        pool = BufferPool(capacity=8)
        read(pool, heap, [0, 1, 0], unit_charger)
        cold = unit_charger.clock.now()
        read(pool, heap, [0, 1, 0], unit_charger)
        assert unit_charger.clock.now() == pytest.approx(2 * cold)

    def test_lru_evicts_least_recently_used(self, heap, free_charger):
        pool = BufferPool(capacity=2)
        read(pool, heap, [0], free_charger)
        read(pool, heap, [1], free_charger)
        read(pool, heap, [0], free_charger)  # refresh 0; 1 is now LRU
        read(pool, heap, [2], free_charger)  # evicts 1
        info = pool.info()
        assert info.evictions == 1
        assert pool.info().currsize == 2
        before = pool.info().hits
        read(pool, heap, [0], free_charger)
        assert pool.info().hits == before + 1  # 0 survived
        read(pool, heap, [1], free_charger)
        assert pool.info().misses == 4  # 1 did not

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(capacity=0)

    def test_same_name_different_heap_never_aliases(self, int_schema, free_charger):
        other = make_relation("r1", int_schema, [(i, 99) for i in range(25)])
        heap = make_relation("r1", int_schema, [(i, i % 10) for i in range(25)])
        pool = BufferPool(capacity=8)
        read(pool, heap, [0], free_charger)
        rows = read(pool, other, [0], free_charger)
        assert rows == other.block_rows_uncharged(0)
        assert pool.info().hits == 0 and pool.info().misses == 2


class TestDecodeOnceAndPinning:
    def test_pooled_batch_columns_match_plain_decode(self, heap, free_charger):
        pool = BufferPool(capacity=8)
        rows, batch = heap.read_blocks_decoded(
            [0, 2, 4], free_charger, pool=pool
        )
        assert isinstance(batch, PooledBatch)
        assert batch.rows is rows
        plain = ColumnBatch(rows, heap.schema)
        for position in range(len(heap.schema.attributes)):
            np.testing.assert_array_equal(
                batch.column(position), plain.column(position)
            )

    def test_decoded_arrays_shared_across_batches(self, heap, free_charger):
        pool = BufferPool(capacity=8)
        _, first = heap.read_blocks_decoded([0], free_charger, pool=pool)
        _, second = heap.read_blocks_decoded([0], free_charger, pool=pool)
        assert first.column(1) is second.column(1)  # one decode, pool-wide

    @pytest.mark.parametrize(
        "capacity, drop",
        [
            (1, "evict"),
            (2, "evict"),
            (8, "invalidate"),
            (8, "clear"),
        ],
        ids=["evict-capacity-1", "evict-capacity-2", "invalidate", "clear"],
    )
    def test_batch_outlives_its_entries(self, heap, free_charger, capacity, drop):
        """A batch holds its entries: once the pool has dropped every one of
        them, the batch still returns the columns of a fresh decode."""
        pool = BufferPool(capacity=capacity)
        rows, batch = heap.read_blocks_decoded([0, 1, 2], free_charger, pool=pool)
        assert pool.info().currsize <= capacity
        if drop == "evict":
            for block_id in (3, 4, 3, 4):
                read(pool, heap, [block_id], free_charger)
                assert pool.info().currsize <= capacity
        elif drop == "invalidate":
            assert pool.invalidate_relation("r1") == 3
        else:
            pool.clear()
        assert not set(batch._entries) & set(pool._entries.values())
        plain = ColumnBatch(list(rows), heap.schema)
        for position in range(len(heap.schema.attributes)):
            np.testing.assert_array_equal(
                batch.column(position), plain.column(position)
            )

    def test_empty_read_produces_empty_batch(self, heap, free_charger):
        pool = BufferPool(capacity=8)
        rows, batch = heap.read_blocks_decoded([], free_charger, pool=pool)
        assert rows == [] and len(batch) == 0
        assert batch.column(0).shape == (0,)


class TestInvalidation:
    def test_invalidate_relation_drops_only_that_relation(
        self, int_schema, free_charger
    ):
        r1 = make_relation("r1", int_schema, [(i, 0) for i in range(25)])
        r2 = make_relation("r2", int_schema, [(i, 0) for i in range(25)])
        pool = BufferPool(capacity=16)
        read(pool, r1, [0, 1], free_charger)
        read(pool, r2, [0, 1], free_charger)
        assert pool.invalidate_relation("r1") == 2
        info = pool.info()
        assert info.currsize == 2 and info.invalidations == 2
        assert pool.invalidate_relation("r1") == 0

    def test_broadcast_reaches_every_live_pool(self, heap, free_charger):
        caches.get("bufferpool").clear()
        custom = BufferPool(capacity=8)
        read(custom, heap, [0], free_charger)
        read(default_pool(), heap, [1], free_charger)
        assert invalidate_bufferpool_relation("r1") == 2
        assert custom.info().currsize == 0
        assert default_pool().info().currsize == 0

    def test_clear_resets_counters(self, heap, free_charger):
        pool = BufferPool(capacity=8)
        read(pool, heap, [0, 0], free_charger)
        pool.clear()
        assert pool.info() == BufferPoolInfo(
            hits=0, misses=0, maxsize=8, currsize=0,
            evictions=0, invalidations=0,
        )


class TestEvents:
    def test_hit_miss_eviction_invalidation_events(self, heap, free_charger):
        sink = RecordingSink()
        pool = BufferPool(capacity=2, sink=sink)
        read(pool, heap, [0, 1], free_charger)
        read(pool, heap, [0, 2], free_charger)  # hit 0, admit 2, evict 1
        pool.invalidate_relation("r1")
        hits = sink.of_kind("buffer_hit")
        assert [(e.blocks, e.hits, e.misses) for e in hits] == [
            (2, 0, 2),
            (2, 1, 1),
        ]
        assert [e.block_id for e in sink.of_kind("buffer_evicted")] == [1]
        (invalidated,) = sink.of_kind("buffer_invalidated")
        assert invalidated.relation == "r1" and invalidated.entries == 2

    def test_events_round_trip_through_jsonl(self):
        events = [
            BufferHit(relation="r1", blocks=4, hits=3, misses=1),
            BufferEvicted(relation="r1", block_id=7),
            BufferInvalidated(relation="r1", entries=12),
        ]
        for event in events:
            payload = json.loads(json.dumps(event.to_dict()))
            assert event_from_dict(payload) == event

    def test_raising_sink_never_breaks_the_read(self, heap, free_charger):
        class ClosedSink:
            def emit(self, event):
                raise ValueError("I/O operation on closed file")

        pool = BufferPool(capacity=2, sink=ClosedSink())
        rows = read(pool, heap, [0, 1, 2], free_charger)  # miss + evict paths
        assert len(rows) == 15
        assert pool.invalidate_relation("r1") >= 1  # invalidate path too

    def test_route_events_is_scoped(self, heap, free_charger):
        ours = RecordingSink()
        pool = BufferPool(capacity=8)
        with pool.route_events(ours):
            read(pool, heap, [0], free_charger)
        read(pool, heap, [0], free_charger)  # outside the scope
        assert len(ours.of_kind("buffer_hit")) == 1


class TestUnifiedCacheSurface:
    def test_bufferpool_cache_info_tracks_default_pool(self, heap, free_charger):
        caches.get("bufferpool").clear()
        read(default_pool(), heap, [0, 0], free_charger)
        info = caches.get("bufferpool").info()
        assert isinstance(info, BufferPoolInfo)
        assert (info.hits, info.misses) == (1, 1)
        caches.get("bufferpool").clear()
        assert caches.get("bufferpool").info().currsize == 0

    def test_directly_built_plan_reads_through_the_default_pool(self, heap):
        """``bufferpool=None`` means the process pool wherever a plan is
        built — not only behind ``Database.open_session``."""
        from repro.catalog.catalog import Catalog
        from repro.costmodel.model import CostModel
        from repro.engine.plan import StagedPlan
        from repro.relational.expression import rel
        from repro.timekeeping.charger import CostCharger
        from repro.timekeeping.profile import MachineProfile

        caches.get("bufferpool").clear()
        catalog = Catalog()
        catalog.register("r1", heap)
        plan = StagedPlan(
            rel("r1"),
            catalog,
            CostCharger(MachineProfile.uniform(0.0)),
            CostModel(),
            np.random.default_rng(0),
        )
        assert plan.bufferpool is default_pool()
        stats = plan.advance_stage(0.4)
        info = caches.get("bufferpool").info()
        assert info.misses == info.currsize == stats.blocks_read > 0

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

        for name in (
            "caches",
            "BufferPool",
            "BufferPoolInfo",
            "KernelCacheInfo",
            "PooledBatch",
            "default_pool",
            "invalidate_bufferpool_relation",
            "BufferHit",
            "BufferEvicted",
            "BufferInvalidated",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name
