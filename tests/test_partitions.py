"""Partitioned relations — shard mechanics, caches, faults, and events.

Covers the storage half of the partitioned-execution feature: the
deterministic block→shard assignment, :class:`HeapShard` views with their
own buffer-pool identity, the shard metadata cache (the ``"shards"``
handle in :mod:`repro.caches`), the ``read_sharded`` parallel read path's
parity with the reference reads, shard-targeted fault injection, and the
``shard_scan_started``/``shard_merged`` trace events. The invariant-10
on/off identity battery lives in ``test_partitions_identity.py``.
"""

from __future__ import annotations

import pytest

from repro import caches
from repro.catalog.types import AttributeType
from repro.catalog.schema import Schema
from repro.core.database import Database
from repro.core.options import QueryOptions
from repro.errors import ReproError, StorageError
from repro.faults.plan import FaultPlan
from repro.kernels.columns import ColumnBatch
from repro.observability import RecordingSink
from repro.observability.trace import event_from_dict
from repro.relational.expression import rel
from repro.relational.predicate import cmp
from repro.sampling.sampler import derive_shard_rng, shard_seed
from repro.storage.bufferpool import BufferPool
from repro.storage.events import ShardMerged, ShardScanStarted
from repro.storage.heapfile import HeapFile
from repro.storage.partitioned import (
    PARTITION_STRATEGIES,
    PartitionedHeapFile,
    _compute_assignment,
    invalidate_shard_cache_relation,
    shard_cache_info,
)
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile

import numpy as np


@pytest.fixture(autouse=True)
def fresh_shard_cache():
    caches.get("shards").clear()
    yield
    caches.get("shards").clear()


def int_schema() -> Schema:
    return Schema.of(id=AttributeType.INT, a=AttributeType.INT)


def make_partitioned(
    tuples: int = 500,
    partitions: int = 4,
    strategy: str = "round_robin",
    block_size: int = 64,
) -> PartitionedHeapFile:
    heap = PartitionedHeapFile(
        "orders", int_schema(), block_size,
        partitions=partitions, strategy=strategy,
    )
    heap.load([(i, i % 50) for i in range(tuples)])
    return heap


def unit_charger() -> CostCharger:
    return CostCharger(MachineProfile.uniform(1.0))


class TestAssignment:
    def test_round_robin_is_block_mod_k(self):
        heap = make_partitioned(partitions=3)
        for block_id in range(heap.block_count):
            assert heap.shard_of_block(block_id) == block_id % 3

    def test_hash_strategy_is_deterministic_and_covers_shards(self):
        a = _compute_assignment(64, 4, "hash")
        b = _compute_assignment(64, 4, "hash")
        assert a == b
        assert set(a.shard_of_block) == {0, 1, 2, 3}
        assert a.shard_of_block != _compute_assignment(64, 4, "round_robin").shard_of_block

    def test_local_ids_are_positions_within_shard(self):
        heap = make_partitioned(partitions=3)
        assignment = heap.assignment
        for shard, blocks in enumerate(assignment.shard_blocks):
            for local, global_id in enumerate(blocks):
                assert assignment.local_ids[global_id] == local
                assert assignment.shard_of_block[global_id] == shard

    def test_global_layout_matches_plain_heapfile(self):
        """Partitioning is an overlay: blocks/ids/contents are untouched."""
        rows = [(i, i % 50) for i in range(500)]
        plain = HeapFile("orders", int_schema(), 64)
        plain.load(rows)
        part = make_partitioned(tuples=500, partitions=4)
        assert part.block_count == plain.block_count
        assert part.tuple_count == plain.tuple_count
        for block_id in range(plain.block_count):
            assert part.block_rows_uncharged(block_id) == (
                plain.block_rows_uncharged(block_id)
            )

    def test_bad_partitions_and_strategy_rejected(self):
        with pytest.raises(StorageError, match="at least 1 partition"):
            PartitionedHeapFile("t", int_schema(), partitions=0)
        with pytest.raises(StorageError, match="unknown partition strategy"):
            PartitionedHeapFile("t", int_schema(), strategy="vibes")
        assert PARTITION_STRATEGIES == ("round_robin", "hash")


class TestHeapShard:
    def test_shard_views_partition_the_relation(self):
        heap = make_partitioned(partitions=4)
        assert len(heap.shards) == 4
        assert [s.name for s in heap.shards] == [
            f"orders/shard{i}" for i in range(4)
        ]
        assert sum(s.block_count for s in heap.shards) == heap.block_count
        assert sum(s.tuple_count for s in heap.shards) == heap.tuple_count

    def test_shard_tokens_are_distinct_pool_identities(self):
        heap = make_partitioned(partitions=4)
        tokens = {s.storage_token for s in heap.shards}
        assert len(tokens) == 4
        assert heap.storage_token not in tokens

    def test_to_global_round_trips_and_bounds_checks(self):
        heap = make_partitioned(partitions=3)
        shard = heap.shards[1]
        for local in range(shard.block_count):
            global_id = shard.to_global(local)
            assert heap.assignment.local_ids[global_id] == local
        with pytest.raises(StorageError, match="has no block"):
            shard.to_global(shard.block_count)

    def test_shard_block_rows_match_parent(self):
        heap = make_partitioned(partitions=3)
        shard = heap.shards[2]
        for local in range(shard.block_count):
            assert shard.block_rows_uncharged(local) == (
                heap.block_rows_uncharged(shard.to_global(local))
            )


class TestShardMetadataCache:
    def test_repeated_loads_hit_the_cache(self):
        make_partitioned()
        first = shard_cache_info()
        make_partitioned()  # same name/geometry → pure hit
        second = shard_cache_info()
        assert second.hits > first.hits
        assert second.misses == first.misses

    def test_invalidate_by_relation_name(self):
        make_partitioned()
        other = PartitionedHeapFile("other", int_schema(), 64, partitions=2)
        other.load([(i, i) for i in range(100)])
        dropped = invalidate_shard_cache_relation("orders")
        assert dropped >= 1
        info = shard_cache_info()
        assert info.invalidations == dropped
        # "other" untouched.
        assert any(True for _ in range(1)) and info.currsize >= 1

    def test_caches_handle_reports_and_clears(self):
        make_partitioned()
        assert caches.get("shards").info().currsize >= 1
        caches.get("shards").clear()
        info = caches.get("shards").info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_database_mutations_invalidate(self):
        db = Database(seed=3)
        db.create_relation(
            "r1", [("id", "int"), ("a", "int")],
            rows=[(i, i % 9) for i in range(400)], partitions=4,
        )
        before = shard_cache_info().invalidations
        db.append_rows("r1", [(1000, 1)])
        assert shard_cache_info().invalidations > before


class TestDatabaseCreateRelation:
    def test_partitions_builds_partitioned_heapfile(self):
        db = Database(seed=1)
        heap = db.create_relation(
            "r1", [("id", "int"), ("a", "int")],
            rows=[(i, i) for i in range(100)],
            partitions=3, partition_strategy="hash",
        )
        assert isinstance(heap, PartitionedHeapFile)
        assert heap.partitions == 3 and heap.strategy == "hash"

    def test_default_stays_plain(self):
        db = Database(seed=1)
        heap = db.create_relation(
            "r1", [("id", "int")], rows=[(i,) for i in range(10)]
        )
        assert not isinstance(heap, PartitionedHeapFile)

    def test_zero_partitions_rejected(self):
        db = Database(seed=1)
        with pytest.raises(ReproError, match="partitions must be >= 1"):
            db.create_relation(
                "r1", [("id", "int")], rows=[(0,)], partitions=0
            )


class TestReadSharded:
    DRAW = [5, 0, 11, 3, 8, 2, 7]

    def test_matches_reference_read_blocks(self):
        heap = make_partitioned()
        ref_charger, shard_charger = unit_charger(), unit_charger()
        expected = heap.read_blocks(self.DRAW, ref_charger)
        rows, batch, stats = heap.read_sharded(
            self.DRAW, shard_charger, pool=BufferPool()
        )
        assert rows == expected
        assert batch.rows is rows
        assert shard_charger.total_charged() == ref_charger.total_charged()
        assert sum(s.blocks for s in stats) == len(self.DRAW)
        assert sum(s.tuples for s in stats) == len(rows)

    def test_parallel_workers_match_serial(self):
        heap = make_partitioned()
        serial_rows, _, serial_stats = heap.read_sharded(
            self.DRAW, unit_charger(), pool=BufferPool(), workers=1
        )
        parallel_rows, _, parallel_stats = heap.read_sharded(
            self.DRAW, unit_charger(), pool=BufferPool(), workers=4
        )
        assert parallel_rows == serial_rows
        assert parallel_stats == serial_stats

    def test_pooled_read_admits_shard_keys(self):
        heap = make_partitioned(partitions=3)
        pool = BufferPool()
        rows, _, _ = heap.read_sharded(
            self.DRAW, unit_charger(), pool=pool, workers=2
        )
        assert rows == heap.read_blocks(self.DRAW, unit_charger())
        assert pool.info().currsize == len(set(self.DRAW))
        # Second read over a warm pool: pure hits, same rows.
        again, _, _ = heap.read_sharded(self.DRAW, unit_charger(), pool=pool)
        assert again == rows
        assert pool.info().hits >= len(self.DRAW)

    def test_decoded_returns_column_batch(self):
        heap = make_partitioned()
        rows, batch, _ = heap.read_sharded(
            self.DRAW, unit_charger(), pool=BufferPool()
        )
        assert isinstance(batch, ColumnBatch)
        assert len(batch) == len(rows)
        assert batch.column(0).tolist() == [row[0] for row in rows]

    def test_out_of_bounds_charges_then_raises_like_reference(self):
        heap = make_partitioned()
        bad = [0, heap.block_count + 5]
        ref_charger, shard_charger = unit_charger(), unit_charger()
        with pytest.raises(StorageError):
            heap.read_blocks(bad, ref_charger)
        with pytest.raises(StorageError):
            heap.read_sharded(bad, shard_charger, pool=BufferPool())
        assert shard_charger.total_charged() == ref_charger.total_charged()

    def test_pool_invalidation_covers_shard_prefix(self):
        heap = make_partitioned(partitions=3)
        pool = BufferPool()
        heap.read_sharded(self.DRAW, unit_charger(), pool=pool)
        heap.read_blocks_decoded(self.DRAW, unit_charger(), pool=pool)
        assert pool.info().currsize > len(set(self.DRAW))  # both key spaces
        pool.invalidate_relation("orders")
        assert pool.info().currsize == 0


class TestShardSeeds:
    def test_shard_seed_is_stable_and_non_consuming(self):
        rng = np.random.default_rng(123)
        before = rng.bit_generator.state
        seeds = [shard_seed(rng, i) for i in range(4)]
        assert rng.bit_generator.state == before  # stream untouched
        assert seeds == [shard_seed(np.random.default_rng(123), i) for i in range(4)]
        assert len(set(seeds)) == 4

    def test_derive_shard_rng_streams_differ(self):
        rng = np.random.default_rng(7)
        a = derive_shard_rng(rng, 0).integers(0, 2**31, 8).tolist()
        b = derive_shard_rng(rng, 1).integers(0, 2**31, 8).tolist()
        assert a != b


class TestShardFaults:
    def test_fail_shards_fires_once_per_shard(self):
        from repro.errors import InjectedFault
        from repro.faults.injector import FaultInjector

        heap = make_partitioned(partitions=4)
        sink = RecordingSink()
        injector = FaultInjector.for_session(
            FaultPlan(fail_shards=(0, 1)), np.random.default_rng(2), sink
        )
        draw = list(range(8))  # two blocks of every shard, in order
        pool = BufferPool()
        # First two reads trip the two targeted shards, once each …
        for _ in range(2):
            with pytest.raises(InjectedFault):
                heap.read_sharded(draw, unit_charger(), injector, pool=pool)
        # … then the stream is clean and the read completes normally.
        rows, _, _ = heap.read_sharded(draw, unit_charger(), injector, pool=pool)
        assert rows == heap.read_blocks(draw, unit_charger())
        injected = sink.of_kind("fault_injected")
        assert len(injected) == 2
        assert sorted(e.block_id % 4 for e in injected) == [0, 1]

    def test_fail_shards_salvaged_end_to_end(self):
        db = Database(seed=5)
        db.create_relation(
            "r1", [("id", "int"), ("a", "int")],
            rows=[(i, i % 9) for i in range(4_000)], partitions=4,
        )
        sink = RecordingSink()
        result = db.estimate(
            rel("r1").where(cmp("a", "<", 5)), quota=8.0, seed=2,
            options=QueryOptions(
                sink=sink,
                partitions=2,
                fault_plan=FaultPlan(fail_shards=(0, 1, 2, 3)),
            ),
        )
        assert sink.of_kind("fault_injected")  # at least one shard tripped
        assert result.report.termination  # … and the run still finished

    def test_fail_shards_fires_on_the_unsharded_path_too(self):
        """Shard-targeted faults key off block→shard, not the read path:
        the pool-less reference read trips exactly what the sharded one does."""
        from repro.errors import InjectedFault
        from repro.faults.injector import FaultInjector

        heap = make_partitioned(partitions=4)
        draw = list(range(8))

        def faults(read):
            sink = RecordingSink()
            injector = FaultInjector.for_session(
                FaultPlan(fail_shards=(1,)), np.random.default_rng(2), sink
            )
            with pytest.raises(InjectedFault):
                read(injector)
            read(injector)  # the shard fails once; the retry is clean
            return [e.to_dict() for e in sink.of_kind("fault_injected")]

        reference = faults(lambda inj: heap.read_blocks(draw, unit_charger(), inj))
        sharded = faults(
            lambda inj: heap.read_sharded(
                draw, unit_charger(), inj, pool=BufferPool()
            )
        )
        assert reference == sharded and len(reference) == 1

    def test_negative_fail_shards_rejected(self):
        with pytest.raises(ReproError, match="fail_shards"):
            FaultPlan(fail_shards=(-1,))


class TestAdmissionPricing:
    def test_partitioned_relation_prices_like_a_plain_one(self):
        # Admission prices in charged (simulated) seconds, which sharding
        # leaves untouched (invariant 10): the feasibility floor of a
        # partitioned relation is the plain relation's, whatever the
        # worker count.
        from repro.server.admission import minimum_stage_cost

        def price(partitions, workers=None):
            db = Database(seed=7)
            db.create_relation(
                "r1", [("id", "int"), ("a", "int")],
                rows=[(i, i % 9) for i in range(8_000)],
                partitions=partitions,
            )
            return minimum_stage_cost(
                db.open_session(
                    rel("r1").where(cmp("a", "<", 5)), quota=5.0, seed=0,
                    partitions=workers,
                )
            )

        assert price(4) == price(None)
        assert price(4, workers=4) == price(None)


class TestShardTraceEvents:
    @staticmethod
    def run_traced(partitions_opt, shards=4):
        db = Database(seed=9)
        db.create_relation(
            "r1", [("id", "int"), ("a", "int")],
            rows=[(i, i % 9) for i in range(4_000)], partitions=shards,
        )
        sink = RecordingSink()
        db.estimate(
            rel("r1").where(cmp("a", "<", 5)), quota=6.0, seed=3,
            options=QueryOptions(sink=sink, partitions=partitions_opt),
        )
        return sink

    def test_sharded_run_emits_shard_events(self):
        sink = self.run_traced(2)
        starts = sink.of_kind("shard_scan_started")
        merges = sink.of_kind("shard_merged")
        assert starts and merges
        assert {e.relation for e in starts} == {"r1"}
        for merge in merges:
            stage_starts = [e for e in starts if e.stage == merge.stage]
            assert merge.shards == len(stage_starts)
            assert merge.blocks == sum(e.blocks for e in stage_starts)
            assert merge.tuples == sum(e.tuples for e in stage_starts)

    def test_unsharded_run_emits_none(self):
        sink = self.run_traced(2, shards=None)
        assert not sink.of_kind("shard_scan_started")
        assert not sink.of_kind("shard_merged")

    def test_events_round_trip_jsonl(self):
        start = ShardScanStarted(
            relation="r1", shard=2, stage=1, blocks=3, tuples=96, seed=42
        )
        merge = ShardMerged(relation="r1", stage=1, shards=4, blocks=9, tuples=288)
        for event in (start, merge):
            assert event_from_dict(event.to_dict()) == event
