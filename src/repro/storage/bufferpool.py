"""The buffer pool — decoded blocks cached and shared across queries.

The engine charges *simulated* time for every sampled block (the paper's
dominant ``BLOCK_READ`` term) — but on the wall-clock side each stage used
to re-materialize Python row tuples and re-decode their columns even when
the very same block was decoded moments ago by an earlier stage, a salvage
retry, or a concurrent server request over the same relation.
:class:`BufferPool` is a process-wide, thread-safe buffer manager that
caches, per ``(relation name, size fingerprint, block_id)``, both the raw
row tuples and their lazily decoded columnar arrays, so the decode happens
once and every later reader shares it.

The hard contract (invariant 9 in ``docs/architecture.md``): **charged
simulated costs, estimates, stage schedules, and traces never depend on
what the pool holds** — cold, warm, thrashing at capacity 1, or shared by
50 interleaved sessions — and equal the pool-less storage reference
:meth:`HeapFile.read_blocks <repro.storage.heapfile.HeapFile.read_blocks>`.
Concretely:

* every sampled block is still charged one full ``BLOCK_READ`` — a cache
  hit is a wall-clock shortcut, never a cost-model change;
* the fault injector is consulted per block in the exact same order on
  hits and misses, so injected-fault replay streams are untouched;
* a faulted read is **never admitted** — the injector runs *before* the
  lookup/admit step, so an :class:`~repro.errors.InjectedFault` (or a
  deadline raise from a slow-read stall) propagates with the cache
  unchanged;
* buffer events go to the pool's **own** sink, never the session's trace
  sink. :class:`~repro.server.QueryServer` routes them to its metrics
  stream only for the duration of its own processing
  (:meth:`BufferPool.route_events`), and a sink that raises is dropped
  silently — observability can never alter execution.

Keys embed a per-:class:`~repro.storage.heapfile.HeapFile` storage token
plus the relation's tuple/block counts, so two relations that happen to
share a name (separate :class:`~repro.core.database.Database` instances,
drop-and-recreate) can never alias each other's blocks. Committed
mutations additionally evict explicitly through
:func:`invalidate_bufferpool_relation`, which
:meth:`~repro.core.database.Database.append_rows` / ``drop_relation`` (and
therefore realtime :class:`~repro.realtime.transaction.WriteTask` commits)
call alongside plan-cache and synopsis invalidation.

Capacity is a plain LRU over block entries: a miss in a full pool evicts
the least recently used entry, never the block just admitted. Eviction
only decides what a *later* read finds pooled — a :class:`PooledBatch`
holds its entries by reference, so a stage never loses the columns it is
filtering, whatever the pool drops meanwhile.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.catalog.schema import Schema
from repro.errors import ReproError
from repro.kernels.columns import ColumnBatch, column_array
from repro.observability.trace import NULL_SINK, TraceSink
from repro.storage.block import Row
from repro.storage.events import BufferEvicted, BufferHit, BufferInvalidated

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


class PooledBatch(ColumnBatch):
    """A :class:`~repro.kernels.columns.ColumnBatch` whose columns come
    from pooled per-block arrays instead of a fresh decode.

    ``rows`` stays the authoritative flat row list (identical, element for
    element, to what the unpooled read returns), so everything downstream
    of the scan — estimates, charges, traces — is untouched. Only
    :meth:`column` changes: it concatenates the blocks' cached arrays
    (decoding each block at most once, pool-wide) instead of re-decoding
    the stage's rows. Mixed per-block dtypes concatenate to the widest
    (``int64`` + ``object`` → ``object``, ``<U3`` + ``<U5`` → ``<U5``),
    preserving exact comparison semantics.

    ``entries`` are the pool's per-block batches, one per block read, held
    by reference: the pool evicting or invalidating one later leaves this
    batch's columns as they were.
    """

    __slots__ = ("_entries",)

    def __init__(
        self,
        rows: Sequence[Row],
        schema: Schema,
        entries: Sequence[ColumnBatch],
    ) -> None:
        super().__init__(rows, schema)
        self._entries = tuple(entries)

    def column(self, position: int) -> np.ndarray:
        col = self._cols.get(position)
        if col is None:
            if not self._entries:
                attr = self.schema.attributes[position]
                col = column_array((), attr.type)
            elif len(self._entries) == 1:
                col = self._entries[0].column(position)
            else:
                col = np.concatenate(
                    [e.column(position) for e in self._entries]
                )
            self._cols[position] = col
        return col


class _PoolReader:
    """The context manager :meth:`BufferPool.reader` returns.

    Holds the pool lock from ``__enter__`` to ``__exit__`` and yields
    :meth:`lookup`: a hit is served inline, a miss goes through
    :meth:`BufferPool.get_or_admit`. On exit the read's hits join the
    pool's counter and, when the read completed, :meth:`BufferPool.
    note_read` reports it.
    """

    __slots__ = (
        "_pool", "_relation", "_prefix", "_name", "_fingerprint", "_get",
        "_move_to_end", "_hits", "_misses",
    )

    def __init__(self, pool: "BufferPool", relation: "HeapFile") -> None:
        self._pool = pool
        self._relation = relation
        self._prefix = pool.key_prefix(relation)
        self._name, self._fingerprint = self._prefix
        self._get = pool._entries.get
        self._move_to_end = pool._entries.move_to_end
        self._hits = 0
        self._misses = 0

    def __enter__(self) -> Callable[[int], ColumnBatch]:
        self._pool._lock.acquire()
        return self.lookup

    def lookup(self, block_id: int) -> ColumnBatch:
        """The pooled entry for ``block_id``, admitting it on miss."""
        key = (self._name, self._fingerprint, block_id)
        entry = self._get(key)
        if entry is not None:
            self._move_to_end(key)
            self._hits += 1
            return entry
        self._misses += 1
        return self._pool.get_or_admit(self._relation, block_id, self._prefix)[0]

    def __exit__(self, exc_type, *exc_info) -> None:
        pool = self._pool
        pool._hits += self._hits
        pool._lock.release()
        if exc_type is None:
            pool.note_read(
                self._name, self._hits + self._misses, self._hits, self._misses
            )


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
        _all_pools.add(self)

    # ------------------------------------------------------------------
    # Lookup / admission (called by HeapFile after charge + injector)
    # ------------------------------------------------------------------
    @staticmethod
    def key_prefix(relation: "HeapFile") -> tuple[str, str]:
        """``(name, fingerprint)`` — a key minus the block id, naming the
        relation *contents* it is built against.

        The per-heap storage token distinguishes same-named relations from
        different databases (or a drop-and-recreate); the size components
        make a grown heap miss naturally even before the explicit
        mutation-time eviction lands. A :meth:`reader` computes it once
        per read.
        """
        return relation.name, (
            f"{relation.storage_token}:"
            f"{relation.tuple_count}:{relation.block_count}"
        )

    def get_or_admit(
        self,
        relation: "HeapFile",
        block_id: int,
        prefix: tuple[str, str] | None = None,
    ) -> tuple[ColumnBatch, bool]:
        """The pooled entry for one block, admitting it on miss.

        Returns ``(entry, hit)``. Must be called only after the block's
        ``BLOCK_READ`` was charged and the fault injector consulted: a
        read that raised never reaches this point, so faulted reads are
        never admitted. ``prefix`` is ``key_prefix(relation)`` when the
        caller already has it.

        Replacement contract: the victim is the least recently used entry,
        never the block just admitted, so the pool never holds more than
        ``capacity`` entries and a miss costs O(1).
        """
        if prefix is None:
            prefix = self.key_prefix(relation)
        key = (*prefix, block_id)
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

    def reader(self, relation: "HeapFile") -> _PoolReader:
        """``with pool.reader(relation) as lookup:`` — one batched read.

        The lock is taken once for the whole read, not once per block;
        ``lookup(block_id)`` returns the block's entry with
        :meth:`get_or_admit`'s contract (a hit moves it to the MRU end, a
        miss admits and may evict). The hit/miss split reaches
        :meth:`note_read` only when the read completes.
        """
        return _PoolReader(self, relation)

    def note_read(
        self, relation_name: str, blocks: int, hits: int, misses: int
    ) -> None:
        """Report one batched read's hit/miss split to the pool's sink."""
        if blocks:
            self._emit(
                BufferHit,
                relation=relation_name,
                blocks=blocks,
                hits=hits,
                misses=misses,
            )

    def _emit(self, event_type, **fields) -> None:
        """Build and emit one event — unless nobody is listening.

        The one place that decides: with the default ``NULL_SINK`` no
        event object is built at all. The sink is read here, at emit time,
        because :meth:`route_events` swaps it. Sink failures are
        swallowed: buffer events are pure observability; a broken sink
        (say, a JSONL file closed after its server was torn down) must
        never leak an exception into a query that happened to touch the
        pool — that would violate the bit-identity contract.
        """
        sink = self.sink
        if sink is NULL_SINK:
            return
        event = event_type(**fields)
        try:
            sink.emit(event)
        except Exception:
            pass

    @contextmanager
    def route_events(self, sink: TraceSink) -> Iterator["BufferPool"]:
        """Route this pool's events to ``sink`` for the scope's duration.

        Servers use this instead of reassigning :attr:`sink` permanently:
        a shared pool outlives any one :class:`~repro.server.QueryServer`,
        and events raised while *this* server runs belong on *its* metrics
        stream — not whichever server was constructed last.
        """
        previous = self.sink
        self.sink = sink
        try:
            yield self
        finally:
            self.sink = previous

    # ------------------------------------------------------------------
    # Invalidation and introspection
    # ------------------------------------------------------------------
    def invalidate_relation(self, name: str) -> int:
        """Drop every entry of relation ``name`` (any fingerprint).

        Called on committed mutations, in the same breath as plan-cache
        and synopsis invalidation. A batch already holding some of them
        keeps its (pre-mutation) arrays, but no future read can see them.
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
# Process-wide default pool + the unified cache-introspection surface
# ----------------------------------------------------------------------
_all_pools: "weakref.WeakSet[BufferPool]" = weakref.WeakSet()

_DEFAULT_POOL = BufferPool()


def default_pool() -> BufferPool:
    """The process-wide pool every plan shares unless given its own."""
    return _DEFAULT_POOL


def resolve_pool(pool: "BufferPool | None") -> BufferPool:
    """The pool a plan reads through: ``pool``, or the default for ``None``.

    The one place that decides — plans, options and servers all resolve
    here, so ``None`` means the same pool wherever a plan is built.
    """
    if pool is None:
        return _DEFAULT_POOL
    if not isinstance(pool, BufferPool):
        raise ReproError(
            f"bufferpool must be a BufferPool instance or None, got "
            f"{pool!r}; every plan reads through a pool, so the on/off "
            "forms (True / False) were removed — pass BufferPool(...) for "
            "an isolated pool"
        )
    return pool


def _bufferpool_cache_info() -> BufferPoolInfo:
    """Counters of the process-wide default pool."""
    return _DEFAULT_POOL.info()


def _clear_bufferpool_cache() -> None:
    """Drop all entries of the default pool and reset its counters."""
    _DEFAULT_POOL.clear()


def invalidate_bufferpool_relation(name: str) -> int:
    """Evict relation ``name`` from **every** live pool (default + custom).

    Mutation safety must not depend on which pool instance a session was
    configured with, so committed mutations broadcast. Returns the total
    number of entries dropped across pools.
    """
    dropped = 0
    for pool in list(_all_pools):
        dropped += pool.invalidate_relation(name)
    return dropped
