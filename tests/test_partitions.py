"""Partitioned relations — shard labels, the shared read loop, faults, events.

Covers the storage half of partitioning: the deterministic block→shard
label (:meth:`PartitionedHeapFile.shard_of_block`), ``read_sharded``'s
parity with the reference reads (it *is* the batched read, plus tallies),
shard-targeted fault injection, and the
``shard_scan_started``/``shard_merged`` trace events. The invariant-10
plain-vs-partitioned identity battery lives in
``test_partitions_identity.py``; the storage-level differential against
``read_blocks_decoded`` sits next to ``TestStorageReference`` in
``test_read_reference.py``.
"""

from __future__ import annotations

import pytest

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
from repro.storage.events import ShardMerged, ShardScanStarted
from repro.storage.heapfile import HeapFile
from repro.storage.partitioned import PARTITION_STRATEGIES, PartitionedHeapFile
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile

import numpy as np


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
        def labels(strategy):
            heap = make_partitioned(strategy=strategy)
            return [heap.shard_of_block(b) for b in range(heap.block_count)]

        assert labels("hash") == labels("hash")
        assert set(labels("hash")) == {0, 1, 2, 3}
        assert labels("hash") != labels("round_robin")

    def test_labels_are_arithmetic_on_the_block_id(self):
        """No table to refresh: growing the relation relabels nothing."""
        for strategy in PARTITION_STRATEGIES:
            heap = make_partitioned(tuples=200, strategy=strategy)
            before = [heap.shard_of_block(b) for b in range(heap.block_count)]
            heap.load([(i, i % 50) for i in range(200, 500)])
            assert heap.block_count > len(before)
            after = [heap.shard_of_block(b) for b in range(heap.block_count)]
            assert after[: len(before)] == before
            assert set(after) <= set(range(heap.partitions))

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
        rows, batch, stats = heap.read_sharded(self.DRAW, shard_charger)
        assert rows == expected
        assert batch.rows is rows
        assert shard_charger.total_charged() == ref_charger.total_charged()
        tallies: dict[int, list[int]] = {}
        for block_id in self.DRAW:
            tally = tallies.setdefault(heap.shard_of_block(block_id), [0, 0])
            tally[0] += 1
            tally[1] += len(heap.block_rows_uncharged(block_id))
        assert [(s.shard, s.blocks, s.tuples) for s in stats] == sorted(
            (shard, *tally) for shard, tally in tallies.items()
        )
        assert sum(s.tuples for s in stats) == len(rows)

    def test_decoded_returns_column_batch(self):
        heap = make_partitioned()
        rows, batch, _ = heap.read_sharded(self.DRAW, unit_charger())
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
            heap.read_sharded(bad, shard_charger)
        assert shard_charger.total_charged() == ref_charger.total_charged()


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
        # First two reads trip the two targeted shards, once each …
        for _ in range(2):
            with pytest.raises(InjectedFault):
                heap.read_sharded(draw, unit_charger(), injector)
        # … then the stream is clean and the read completes normally.
        rows, _, _ = heap.read_sharded(draw, unit_charger(), injector)
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
                fault_plan=FaultPlan(fail_shards=(0, 1, 2, 3)),
            ),
        )
        assert sink.of_kind("fault_injected")  # at least one shard tripped
        assert result.report.termination  # … and the run still finished

    def test_fail_shards_fires_on_the_unsharded_path_too(self):
        """Shard-targeted faults key off the block's label, not the read
        method: the per-block reference read trips exactly what
        ``read_sharded`` does."""
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
        sharded = faults(lambda inj: heap.read_sharded(draw, unit_charger(), inj))
        assert reference == sharded and len(reference) == 1

    def test_negative_fail_shards_rejected(self):
        with pytest.raises(ReproError, match="fail_shards"):
            FaultPlan(fail_shards=(-1,))


class TestAdmissionPricing:
    def test_partitioned_relation_prices_like_a_plain_one(self):
        # Admission prices in charged (simulated) seconds, which shard
        # labels leave untouched (invariant 10): the feasibility floor of
        # a partitioned relation is the plain relation's.
        from repro.server.admission import minimum_stage_cost

        def price(partitions):
            db = Database(seed=7)
            db.create_relation(
                "r1", [("id", "int"), ("a", "int")],
                rows=[(i, i % 9) for i in range(8_000)],
                partitions=partitions,
            )
            return minimum_stage_cost(db.plan(rel("r1").where(cmp("a", "<", 5))))

        assert price(4) == price(None)


class TestShardTraceEvents:
    @staticmethod
    def run_traced(shards=4, tuples=4_000, quota=6.0):
        db = Database(seed=9)
        db.create_relation(
            "r1", [("id", "int"), ("a", "int")],
            rows=[(i, i % 9) for i in range(tuples)], partitions=shards,
        )
        sink = RecordingSink()
        db.estimate(
            rel("r1").where(cmp("a", "<", 5)), quota=quota, seed=3,
            options=QueryOptions(sink=sink),
        )
        return sink

    def test_sharded_run_emits_shard_events(self):
        sink = self.run_traced()
        starts = sink.of_kind("shard_scan_started")
        merges = sink.of_kind("shard_merged")
        assert starts and merges
        assert {e.relation for e in starts} == {"r1"}
        for merge in merges:
            stage_starts = [e for e in starts if e.stage == merge.stage]
            assert merge.shards == len(stage_starts)
            assert merge.blocks == sum(e.blocks for e in stage_starts)
            assert merge.tuples == sum(e.tuples for e in stage_starts)

    def test_round_robin_spreads_a_run_fairly_over_every_shard(self):
        """A property of the label arithmetic, not of any scheduling."""
        shards = 8
        sink = self.run_traced(shards=shards, tuples=24_000, quota=120.0)
        blocks_by_shard: dict[int, int] = {}
        for event in sink.of_kind("shard_scan_started"):
            blocks_by_shard[event.shard] = (
                blocks_by_shard.get(event.shard, 0) + event.blocks
            )
        merged_blocks = sum(e.blocks for e in sink.of_kind("shard_merged"))
        assert set(blocks_by_shard) == set(range(shards))
        assert sum(blocks_by_shard.values()) == merged_blocks
        spread = max(blocks_by_shard.values()) - min(blocks_by_shard.values())
        assert spread <= max(2, merged_blocks / shards), blocks_by_shard

    def test_unsharded_run_emits_none(self):
        sink = self.run_traced(shards=None)
        assert not sink.of_kind("shard_scan_started")
        assert not sink.of_kind("shard_merged")

    def test_events_round_trip_jsonl(self):
        start = ShardScanStarted(
            relation="r1", shard=2, stage=1, blocks=3, tuples=96
        )
        merge = ShardMerged(relation="r1", stage=1, shards=4, blocks=9, tuples=288)
        for event in (start, merge):
            assert event_from_dict(event.to_dict()) == event
