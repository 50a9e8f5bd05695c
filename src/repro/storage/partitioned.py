"""Partitioned heap files — one relation split into K deterministic shards.

Serving the paper's per-query guarantee to many users means one relation
can no longer be a single :class:`~repro.storage.heapfile.HeapFile` scanned
by one worker. BlinkDB-style bounded-time answers rest on striped storage
sampled in parallel, and sampling-algebra results show unbiased estimators
compose across independently sampled fragments — exactly what the staged
estimators need to merge per-shard results without bias.

:class:`PartitionedHeapFile` keeps the *global* block layout of a plain
heap file — rows pack densely into the same blocks, in the same order, with
the same global block ids — and layers a deterministic block→shard
assignment on top (``round_robin``: ``block_id % K``; ``hash``: a
splitmix64 bit-mix of the block id modulo ``K``). Because block identity
and content are untouched, the global :class:`~repro.sampling.BlockSampler`
permutation, every drawn block, and every charged ``BLOCK_READ`` are
*structurally* identical to a run over the same rows in a plain heap file —
the heart of invariant 10 (``docs/architecture.md``): a partitioned and an
unpartitioned relation produce bit-identical estimates, charged costs, and
stage schedules, at any shard worker count.

Each shard is a :class:`HeapShard` view with its own name
(``"<relation>/shard<i>"``) and its own storage token, so the buffer pool
keys shard blocks separately from whole-relation blocks and committed
mutations can evict by name prefix.

:meth:`PartitionedHeapFile.read_sharded` is the parallel read path: shard
workers (a shared thread pool) materialize/admit each shard's blocks
concurrently — a pure wall-clock optimization — while the main thread
replays the reference per-block sequence (bounds check → ``BLOCK_READ``
charge → fault injector → pool lookup) in global draw order, so simulated
costs and fault streams never depend on worker scheduling. With a fault
injector active the read degrades to the fully serial reference loop: the
"faulted read is never admitted" contract requires the injector to run
before each block's admission.

The block→shard assignment table is memoized process-wide in the **shard
metadata cache** (``repro.caches`` handle ``"shards"``): assignments depend
only on ``(relation name, block count, K, strategy)``, so repeated
loads/appends and look-alike relations across databases share one
computation. Committed mutations invalidate by relation name alongside the
plan-cache/synopsis/buffer-pool invalidation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.catalog.schema import Schema
from repro.errors import StorageError
from repro.storage.block import Row
from repro.storage.heapfile import DEFAULT_BLOCK_SIZE, HeapFile, _storage_tokens
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import CostKind

if TYPE_CHECKING:
    from repro.kernels.columns import ColumnBatch
    from repro.storage.bufferpool import BufferPool

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
class PartitionAssignment:
    """The immutable block→shard map for one relation geometry."""

    shard_of_block: tuple[int, ...]
    """Global block id → shard index."""

    local_ids: tuple[int, ...]
    """Global block id → the block's id *within* its shard."""

    shard_blocks: tuple[tuple[int, ...], ...]
    """Shard index → that shard's global block ids, ascending."""


def _compute_assignment(
    block_count: int, partitions: int, strategy: str
) -> PartitionAssignment:
    shard_of_block: list[int] = []
    local_ids: list[int] = []
    shard_blocks: list[list[int]] = [[] for _ in range(partitions)]
    for block_id in range(block_count):
        if strategy == "round_robin":
            shard = block_id % partitions
        else:  # "hash"
            shard = _mix64(block_id) % partitions
        shard_of_block.append(shard)
        local_ids.append(len(shard_blocks[shard]))
        shard_blocks[shard].append(block_id)
    return PartitionAssignment(
        shard_of_block=tuple(shard_of_block),
        local_ids=tuple(local_ids),
        shard_blocks=tuple(tuple(blocks) for blocks in shard_blocks),
    )


# ----------------------------------------------------------------------
# Shard metadata cache (the "shards" handle in repro.caches)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardCacheInfo:
    """Counters in the style of ``lru_cache.cache_info()``, plus the
    mutation-invalidation count."""

    hits: int
    misses: int
    maxsize: int
    currsize: int
    invalidations: int


_META_MAXSIZE = 128
_meta_lock = threading.Lock()
_MetaKey = tuple[str, int, int, str]
_meta: "OrderedDict[_MetaKey, PartitionAssignment]" = OrderedDict()
_meta_hits = 0
_meta_misses = 0
_meta_invalidations = 0


def _assignment_for(
    name: str, block_count: int, partitions: int, strategy: str
) -> PartitionAssignment:
    """The memoized assignment for one relation geometry (LRU, locked)."""
    global _meta_hits, _meta_misses
    key = (name, block_count, partitions, strategy)
    with _meta_lock:
        cached = _meta.get(key)
        if cached is not None:
            _meta.move_to_end(key)
            _meta_hits += 1
            return cached
        _meta_misses += 1
    assignment = _compute_assignment(block_count, partitions, strategy)
    with _meta_lock:
        _meta[key] = assignment
        while len(_meta) > _META_MAXSIZE:
            _meta.popitem(last=False)
    return assignment


def shard_cache_info() -> ShardCacheInfo:
    """Counters of the process-wide shard metadata cache."""
    with _meta_lock:
        return ShardCacheInfo(
            hits=_meta_hits,
            misses=_meta_misses,
            maxsize=_META_MAXSIZE,
            currsize=len(_meta),
            invalidations=_meta_invalidations,
        )


def clear_shard_cache() -> None:
    """Drop all cached assignments and reset the counters (tests)."""
    global _meta_hits, _meta_misses, _meta_invalidations
    with _meta_lock:
        _meta.clear()
        _meta_hits = 0
        _meta_misses = 0
        _meta_invalidations = 0


def invalidate_shard_cache_relation(name: str) -> int:
    """Drop every cached assignment of relation ``name``.

    Called by committed mutations (``append_rows`` / ``drop_relation`` /
    realtime ``WriteTask``) alongside plan-cache, synopsis, and buffer-pool
    invalidation. Assignments are content-free (they depend only on the
    block count), so this is hygiene rather than correctness — a stale
    entry could never be *wrong*, only unreachable. Returns the number of
    entries dropped.
    """
    global _meta_invalidations
    with _meta_lock:
        doomed = [key for key in _meta if key[0] == name]
        for key in doomed:
            del _meta[key]
        _meta_invalidations += len(doomed)
    return len(doomed)


# ----------------------------------------------------------------------
# Shared shard-worker pools (wall-clock only; never touch simulated time)
# ----------------------------------------------------------------------
_executor_lock = threading.Lock()
_executors: dict[int, ThreadPoolExecutor] = {}


def _shard_executor(workers: int) -> ThreadPoolExecutor:
    """A process-wide thread pool bounded at ``workers`` concurrent fetches."""
    with _executor_lock:
        pool = _executors.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-shard-{workers}"
            )
            _executors[workers] = pool
        return pool


class HeapShard:
    """A read-only view of one shard of a :class:`PartitionedHeapFile`.

    Duck-typed like a relation for the buffer pool: it has its own
    ``name`` (``"<relation>/shard<i>"``), its own ``storage_token``, and
    local block ids ``0..block_count-1`` that map onto the parent's global
    blocks — so pooled shard blocks get keys disjoint from the parent's
    whole-relation keys and from every other shard's.
    """

    __slots__ = ("parent", "index", "name", "storage_token")

    def __init__(self, parent: "PartitionedHeapFile", index: int) -> None:
        self.parent = parent
        self.index = index
        self.name = f"{parent.name}/shard{index}"
        self.storage_token = next(_storage_tokens)

    @property
    def schema(self) -> Schema:
        return self.parent.schema

    @property
    def global_block_ids(self) -> tuple[int, ...]:
        """This shard's global block ids, ascending (local id = position)."""
        return self.parent.assignment.shard_blocks[self.index]

    @property
    def block_count(self) -> int:
        return len(self.global_block_ids)

    @property
    def tuple_count(self) -> int:
        return self.parent.shard_tuple_counts[self.index]

    def to_global(self, local_id: int) -> int:
        """Map a shard-local block id to the parent's global block id."""
        blocks = self.global_block_ids
        if not 0 <= local_id < len(blocks):
            raise StorageError(
                f"shard {self.name!r} has no block {local_id} "
                f"(has {len(blocks)})",
                relation=self.name,
                block_id=local_id,
            )
        return blocks[local_id]

    def block_tuple(self, local_id: int) -> tuple[Row, ...]:
        """One shard block's rows, uncharged (buffer-pool admission)."""
        return self.parent.block_tuple(self.to_global(local_id))

    def block_rows_uncharged(self, local_id: int) -> list[Row]:
        """One shard block's rows without charging — for tests."""
        return list(self.block_tuple(local_id))

    def __repr__(self) -> str:
        return (
            f"HeapShard({self.name!r}, blocks={self.block_count}, "
            f"tuples={self.tuple_count})"
        )


@dataclass(frozen=True)
class ShardReadStats:
    """Per-shard tallies of one sharded stage read (for trace events)."""

    shard: int
    blocks: int
    tuples: int


class PartitionedHeapFile(HeapFile):
    """A heap file whose blocks are deterministically assigned to K shards.

    The global block layout — ids, contents, packing order — is exactly a
    plain :class:`HeapFile`'s; only the shard overlay is new. The inherited
    pool-less :meth:`read_blocks` therefore behaves identically to an
    unpartitioned relation's — the reference invariant 10's identity tests
    compare :meth:`read_sharded` against.
    """

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
        self.shards: tuple[HeapShard, ...] = tuple(
            HeapShard(self, i) for i in range(partitions)
        )
        self.assignment: PartitionAssignment = _assignment_for(
            name, 0, partitions, strategy
        )
        self.shard_tuple_counts: tuple[int, ...] = (0,) * partitions

    # ------------------------------------------------------------------
    # Loading (keeps the shard overlay in sync with the global blocks)
    # ------------------------------------------------------------------
    def load(self, rows: Iterable[Sequence]) -> int:
        count = super().load(rows)
        self._refresh_assignment()
        return count

    def _refresh_assignment(self) -> None:
        self.assignment = _assignment_for(
            self.name, self.block_count, self.partitions, self.strategy
        )
        tuples = [0] * self.partitions
        for block_id, shard in enumerate(self.assignment.shard_of_block):
            tuples[shard] += len(self._blocks[block_id].rows)
        self.shard_tuple_counts = tuple(tuples)

    # ------------------------------------------------------------------
    # Shard introspection
    # ------------------------------------------------------------------
    def shard_of_block(self, block_id: int) -> int:
        """The shard index owning global block ``block_id``."""
        return self.assignment.shard_of_block[block_id]

    def _injector_shard(self, block_id: int) -> int:
        # Shard-targeted faults must fire identically whether the read
        # went through the sharded path or the inherited global one.
        return self.assignment.shard_of_block[block_id]

    # ------------------------------------------------------------------
    # The sharded read path
    # ------------------------------------------------------------------
    def read_sharded(
        self,
        block_ids: Sequence[int],
        charger: CostCharger,
        injector: "FaultInjector | None" = None,
        *,
        pool: "BufferPool",
        workers: int = 1,
    ) -> "tuple[list[Row], ColumnBatch, list[ShardReadStats]]":
        """Read drawn global blocks with shard workers; replay charges serially.

        Returns ``(rows, batch, stats)``: the rows concatenated in *global
        draw order* (element-for-element what :meth:`read_blocks` returns),
        a :class:`~repro.storage.bufferpool.PooledBatch` over the shard
        entries, and per-shard read tallies for the
        ``ShardScanStarted``/``ShardMerged`` trace events.

        Worker threads only *admit* shard blocks into ``pool`` — pure
        wall-clock work. The main thread then replays the reference
        per-block sequence — bounds check → ``BLOCK_READ`` charge →
        injector → pool lookup — in draw order, so charged costs, fault
        streams, and row order are bit-identical to the reference read
        regardless of worker scheduling. With an injector the prefetch is
        skipped entirely: admission must stay strictly after each block's
        injector consultation so a faulted read is never admitted.
        """
        assignment = self.assignment
        in_bounds = all(0 <= b < len(self._blocks) for b in block_ids)
        groups: dict[int, list[int]] = {}
        if in_bounds:
            for block_id in block_ids:
                groups.setdefault(assignment.shard_of_block[block_id], []).append(
                    block_id
                )

        prefetched: dict[int, tuple] = {}
        if in_bounds and injector is None and groups:
            if workers > 1 and len(groups) > 1:
                executor = _shard_executor(workers)
                futures = [
                    executor.submit(self._fetch_shard, shard, shard_blocks, pool)
                    for shard, shard_blocks in groups.items()
                ]
                for future in futures:
                    prefetched.update(future.result())
            else:
                for shard, shard_blocks in groups.items():
                    prefetched.update(self._fetch_shard(shard, shard_blocks, pool))

        rows: list[Row] = []
        entries: list = []
        shard_blocks_read: dict[int, int] = {}
        shard_tuples_read: dict[int, int] = {}
        shard_hits: dict[int, int] = {}
        # Nothing prefetched (injector active): every block is admitted below.
        prefixes = (
            [] if prefetched else [pool.key_prefix(view) for view in self.shards]
        )
        for block_id in block_ids:
            if not 0 <= block_id < len(self._blocks):
                raise self._no_such_block(block_id)
            shard = assignment.shard_of_block[block_id]
            charger.charge(CostKind.BLOCK_READ, 1)
            if injector is not None:
                injector.on_block_read(self.name, block_id, charger, shard=shard)
            if block_id in prefetched:
                entry, hit = prefetched[block_id]
            else:
                entry, hit = pool.get_or_admit(
                    self.shards[shard],
                    assignment.local_ids[block_id],
                    prefixes[shard],
                )
            entries.append(entry)
            rows.extend(entry.rows)
            shard_hits[shard] = shard_hits.get(shard, 0) + hit
            shard_blocks_read[shard] = shard_blocks_read.get(shard, 0) + 1
            shard_tuples_read[shard] = shard_tuples_read.get(shard, 0) + len(
                entry.rows
            )

        stats = []
        for shard in sorted(shard_blocks_read):
            blocks = shard_blocks_read[shard]
            hits = shard_hits[shard]
            pool.note_read(self.shards[shard].name, blocks, hits, blocks - hits)
            stats.append(
                ShardReadStats(
                    shard=shard, blocks=blocks, tuples=shard_tuples_read[shard]
                )
            )
        return rows, pool.batch(rows, self.schema, entries), stats

    def _fetch_shard(
        self, shard: int, shard_blocks: list[int], pool: "BufferPool"
    ) -> dict[int, tuple]:
        """Worker body: admit one shard's drawn blocks (no charges)."""
        view = self.shards[shard]
        prefix = pool.key_prefix(view)
        local_ids = self.assignment.local_ids
        return {
            block_id: pool.get_or_admit(view, local_ids[block_id], prefix)
            for block_id in shard_blocks
        }

    def __repr__(self) -> str:
        return (
            f"PartitionedHeapFile({self.name!r}, tuples={self._tuple_count}, "
            f"blocks={self.block_count}, partitions={self.partitions}, "
            f"strategy={self.strategy!r})"
        )
