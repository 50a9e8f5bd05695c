"""Typed trace events of the buffer pool.

Like the serving layer (:mod:`repro.server.events`) and the synopsis
catalog (:mod:`repro.synopses.events`), the buffer pool reports its
decisions through the observability stream: how many of a read's blocks
were already in the pool, which entries the LRU evicted, and which a relation
mutation threw away. All three events are registered with
:func:`~repro.observability.register_event_type`, so JSONL traces
containing them round-trip through
:func:`~repro.observability.trace.event_from_dict`.

Buffer events deliberately do **not** flow into per-session trace sinks:
the pool is a wall-clock optimization and session traces must not depend
on what the pool holds (invariant 9 in ``docs/architecture.md``). They go to the pool's *own* sink, which
:class:`~repro.server.QueryServer` routes onto its metrics stream for the
duration of its own processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.observability.trace import TraceEvent, register_event_type


@register_event_type
@dataclass(frozen=True)
class BufferHit(TraceEvent):
    """One batched block read consulted the pool.

    Emitted once per :meth:`~repro.storage.heapfile.HeapFile.read_blocks`
    call that went through a pool (not once per block, keeping event volume
    at one per scan stage); ``hits``/``misses`` split the read's blocks
    into already pooled and freshly admitted.
    """

    kind: ClassVar[str] = "buffer_hit"
    relation: str = ""
    blocks: int = 0
    hits: int = 0
    misses: int = 0


@register_event_type
@dataclass(frozen=True)
class BufferEvicted(TraceEvent):
    """The capacity-bounded LRU evicted its least recently used block entry."""

    kind: ClassVar[str] = "buffer_evicted"
    relation: str = ""
    block_id: int = 0


@register_event_type
@dataclass(frozen=True)
class BufferInvalidated(TraceEvent):
    """A relation mutation dropped every pooled entry of that relation."""

    kind: ClassVar[str] = "buffer_invalidated"
    relation: str = ""
    entries: int = 0


@register_event_type
@dataclass(frozen=True)
class ShardScanStarted(TraceEvent):
    """One shard label's portion of a stage read over a partitioned relation.

    Unlike buffer events, shard events **do** flow into per-session trace
    sinks: invariant 10 holds estimates, charged costs, and stage schedules
    bit-identical to an unpartitioned relation's, but explicitly lets
    traces differ by these shard markers.
    """

    kind: ClassVar[str] = "shard_scan_started"
    relation: str = ""
    shard: int = 0
    stage: int = 0
    blocks: int = 0
    tuples: int = 0


@register_event_type
@dataclass(frozen=True)
class ShardMerged(TraceEvent):
    """The per-shard tallies of one stage read, summed over its shards."""

    kind: ClassVar[str] = "shard_merged"
    relation: str = ""
    stage: int = 0
    shards: int = 0
    blocks: int = 0
    tuples: int = 0
