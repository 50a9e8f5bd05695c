"""Typed trace events of the storage layer.

A partitioned relation's stage reads report their per-shard tallies
(:class:`ShardScanStarted`, :class:`ShardMerged`) into the session's trace;
the standalone :class:`~repro.storage.bufferpool.BufferPool` reports its
evictions and invalidations to its own sink. Every event is registered
with :func:`~repro.observability.register_event_type`, so JSONL traces
containing them round-trip through
:func:`~repro.observability.trace.event_from_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.observability.trace import TraceEvent, register_event_type


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
    """``BufferPool.invalidate_relation`` dropped a relation's entries."""

    kind: ClassVar[str] = "buffer_invalidated"
    relation: str = ""
    entries: int = 0


@register_event_type
@dataclass(frozen=True)
class ShardScanStarted(TraceEvent):
    """One shard label's portion of a stage read over a partitioned relation.

    Shard events flow into per-session trace sinks: invariant 10 holds
    estimates, charged costs, and stage schedules bit-identical to an
    unpartitioned relation's, but explicitly lets traces differ by these
    shard markers.
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
