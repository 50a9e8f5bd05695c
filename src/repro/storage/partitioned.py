"""Partitioned heap files — a deterministic shard label on every block.

A :class:`PartitionedHeapFile` *is* a plain
:class:`~repro.storage.heapfile.HeapFile`: rows pack densely into the same
blocks, in the same order, with the same global block ids, and every read
goes through the one per-block loop the plain relation uses
(:meth:`HeapFile._read`: bounds check → ``BLOCK_READ`` charge → fault
injector).
Partitioning adds exactly one thing — :meth:`shard_of_block`, arithmetic on
the block id (``round_robin``: ``block_id % K``; ``hash``: a splitmix64
bit-mix of the block id modulo ``K``) — and only two readers look at it:
``FaultPlan.fail_shards`` (through the injector) and the
``ShardScanStarted`` / ``ShardMerged`` trace events
:meth:`PartitionedHeapFile.read_sharded` tallies for.

That is invariant 10 (``docs/architecture.md``) by construction: the same
rows in a partitioned and an unpartitioned relation produce bit-identical
estimates, charged costs, stage schedules and fault records; traces differ
only by the ``shard_*`` events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.catalog.schema import Schema
from repro.errors import StorageError
from repro.kernels.columns import ColumnBatch
from repro.storage.block import Row
from repro.storage.heapfile import DEFAULT_BLOCK_SIZE, HeapFile
from repro.timekeeping.charger import CostCharger

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

PARTITION_STRATEGIES = ("round_robin", "hash")
"""Deterministic block→shard assignment strategies."""


def _mix64(value: int) -> int:
    """The splitmix64 finalizer — a deterministic 64-bit bit-mix.

    Used by the ``hash`` strategy so shard membership scatters block ids
    without depending on Python's randomized ``hash()``.
    """
    z = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ShardReadStats:
    """Per-shard tallies of one sharded stage read (for trace events)."""

    shard: int
    blocks: int
    tuples: int


class PartitionedHeapFile(HeapFile):
    """A heap file whose blocks each carry one of K shard labels."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        block_size: int = DEFAULT_BLOCK_SIZE,
        partitions: int = 2,
        strategy: str = "round_robin",
    ) -> None:
        if partitions < 1:
            raise StorageError(
                f"relation {name!r} needs at least 1 partition: {partitions}"
            )
        if strategy not in PARTITION_STRATEGIES:
            raise StorageError(
                f"unknown partition strategy {strategy!r} for relation "
                f"{name!r}; choose from {PARTITION_STRATEGIES}"
            )
        super().__init__(name, schema, block_size)
        self.partitions = partitions
        self.strategy = strategy

    def shard_of_block(self, block_id: int) -> int:
        """The shard label of global block ``block_id``."""
        if self.strategy == "round_robin":
            return block_id % self.partitions
        return _mix64(block_id) % self.partitions

    def read_sharded(
        self,
        block_ids: Sequence[int],
        charger: CostCharger,
        injector: "FaultInjector | None" = None,
    ) -> tuple[list[Row], ColumnBatch, list[ShardReadStats]]:
        """:meth:`read_blocks_decoded` plus per-shard tallies of the read.

        Returns ``(rows, batch, stats)``: rows and batch exactly as the
        plain read returns them (same loop, same charges and injector
        consultations), and one :class:`ShardReadStats` per shard touched,
        ascending, for the ``ShardScanStarted`` / ``ShardMerged`` trace
        events.
        """
        rows = self._read(block_ids, charger, injector)
        tallies: dict[int, list[int]] = {}  # shard -> [blocks, tuples]
        for block_id in block_ids:
            tally = tallies.setdefault(self.shard_of_block(block_id), [0, 0])
            tally[0] += 1
            tally[1] += len(self._blocks[block_id])
        stats = [ShardReadStats(shard, *tallies[shard]) for shard in sorted(tallies)]
        return rows, ColumnBatch(rows, self.schema), stats

    def __repr__(self) -> str:
        return (
            f"PartitionedHeapFile({self.name!r}, tuples={self._tuple_count}, "
            f"blocks={self.block_count}, partitions={self.partitions}, "
            f"strategy={self.strategy!r})"
        )
