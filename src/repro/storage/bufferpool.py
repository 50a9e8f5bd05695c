"""A standalone LRU over decoded disk blocks — not on the read path.

The engine reads every sampled block straight from its heap file and
decodes a stage's columns once (:meth:`HeapFile.read_blocks_decoded
<repro.storage.heapfile.HeapFile.read_blocks_decoded>`). The controller
charges each block one full ``BLOCK_READ`` whether or not it was read
before, so a cache of decoded blocks could only ever save wall-clock time,
and measured, its lookups cost more than the decodes they saved; no plan,
session or server reads through a pool.

:class:`BufferPool` remains as a self-contained, thread-safe LRU keyed by
``(relation name, size fingerprint, block_id)``: the benchmark harness in
``bench/`` still names :meth:`BufferPool.get_or_admit` and the
``"bufferpool"`` handle of :mod:`repro.caches`, which reports the
process-wide default pool (empty unless something admits into it).
Capacity is a plain LRU over block entries: a miss in a full pool evicts
the least recently used entry, never the block just admitted.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.kernels.columns import ColumnBatch
from repro.observability.trace import NULL_SINK, TraceSink
from repro.storage.events import BufferEvicted, BufferInvalidated

if TYPE_CHECKING:
    from repro.storage.heapfile import HeapFile

DEFAULT_CAPACITY = 4096
"""Default LRU capacity in block entries (≈ 4k blocks of rows + columns)."""

_pool_ids = itertools.count(1)

PoolKey = tuple[str, str, int]
"""``(relation name, size fingerprint, block_id)``."""


@dataclass(frozen=True)
class BufferPoolInfo:
    """Counters in the style of ``functools.lru_cache``'s ``cache_info``,
    extended with the pool's eviction/invalidation bookkeeping."""

    hits: int
    misses: int
    maxsize: int
    currsize: int
    evictions: int
    invalidations: int


class BufferPool:
    """A thread-safe, capacity-bounded LRU over decoded disk blocks."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink: TraceSink | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"buffer pool capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.sink: TraceSink = sink if sink is not None else NULL_SINK
        self.label = f"bufferpool-{next(_pool_ids)}"
        self._lock = threading.RLock()
        self._entries: "OrderedDict[PoolKey, ColumnBatch]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    # Lookup / admission
    # ------------------------------------------------------------------
    @staticmethod
    def key_prefix(relation: "HeapFile") -> tuple[str, str]:
        """``(name, fingerprint)`` — a key minus the block id, naming the
        relation *contents* it is built against.

        The per-heap storage token distinguishes same-named relations from
        different databases (or a drop-and-recreate); the size components
        make a grown heap miss naturally.
        """
        return relation.name, (
            f"{relation.storage_token}:"
            f"{relation.tuple_count}:{relation.block_count}"
        )

    def get_or_admit(
        self, relation: "HeapFile", block_id: int
    ) -> tuple[ColumnBatch, bool]:
        """The pooled entry for one block, admitting it on miss.

        Returns ``(entry, hit)``. Uncharged: the pool caches, the caller
        charges. Replacement contract: the victim is the least recently
        used entry, never the block just admitted, so the pool never holds
        more than ``capacity`` entries and a miss costs O(1).
        """
        key = (*self.key_prefix(relation), block_id)
        evicted: list[PoolKey] = []
        with self._lock:
            entries = self._entries
            entry = entries.get(key)
            if entry is not None:
                entries.move_to_end(key)
                self._hits += 1
                return entry, True
            self._misses += 1
            entry = ColumnBatch(relation.block_tuple(block_id), relation.schema)
            entries[key] = entry
            while len(entries) > self.capacity:
                evicted.append(entries.popitem(last=False)[0])
            self._evictions += len(evicted)
        for name, _, victim_id in evicted:
            self._emit(BufferEvicted, relation=name, block_id=victim_id)
        return entry, False

    def _emit(self, event_type, **fields) -> None:
        """Build and emit one event — unless nobody is listening.

        The one place that decides: with the default ``NULL_SINK`` no
        event object is built at all. Sink failures are swallowed: buffer
        events are pure observability, and a broken sink (say, a closed
        JSONL file) must never leak an exception into a caller.
        """
        sink = self.sink
        if sink is NULL_SINK:
            return
        event = event_type(**fields)
        try:
            sink.emit(event)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Invalidation and introspection
    # ------------------------------------------------------------------
    def invalidate_relation(self, name: str) -> int:
        """Drop every entry of relation ``name`` (any fingerprint).

        Returns the number of entries dropped.
        """
        with self._lock:
            doomed = [key for key in self._entries if key[0] == name]
            for key in doomed:
                del self._entries[key]
            self._invalidations += len(doomed)
        if doomed:
            self._emit(BufferInvalidated, relation=name, entries=len(doomed))
        return len(doomed)

    def info(self) -> BufferPoolInfo:
        """Current counters, ``lru_cache.cache_info()``-style."""
        with self._lock:
            return BufferPoolInfo(
                hits=self._hits,
                misses=self._misses,
                maxsize=self.capacity,
                currsize=len(self._entries),
                evictions=self._evictions,
                invalidations=self._invalidations,
            )

    def clear(self) -> None:
        """Drop all entries and reset counters (tests; catalog reloads)."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._invalidations = 0

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"BufferPool({self.label}, {info.currsize}/{info.maxsize} blocks, "
            f"hits={info.hits}, misses={info.misses})"
        )


# ----------------------------------------------------------------------
# Process-wide default pool (reported through repro.caches)
# ----------------------------------------------------------------------
_DEFAULT_POOL = BufferPool()


def default_pool() -> BufferPool:
    """The process-wide pool the ``"bufferpool"`` cache handle reports."""
    return _DEFAULT_POOL


def _bufferpool_cache_info() -> BufferPoolInfo:
    """Counters of the process-wide default pool."""
    return _DEFAULT_POOL.info()


def _clear_bufferpool_cache() -> None:
    """Drop all entries of the default pool and reset its counters."""
    _DEFAULT_POOL.clear()
