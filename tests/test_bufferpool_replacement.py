"""The buffer pool's replacement against a naive reference model.

:class:`NaivePool` is a plain LRU written the slow way: on every miss in a
full pool it copies the whole key list and walks it for a victim,
least recently used first, never the block just admitted. The pool proper
pops the victim off the LRU end; seeded random op sequences — with entries
held and released along the way — must not be able to tell the two apart,
and an instrumented mapping shows a miss does not walk the pool.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import OrderedDict

import pytest

from repro.kernels.columns import ColumnBatch
from repro.observability import RecordingSink
from repro.storage.bufferpool import BufferPool, BufferPoolInfo
from repro.storage.events import BufferEvicted
from repro.storage.partitioned import PartitionedHeapFile
from tests.conftest import make_relation


class NaivePool:
    """Reference model: LRU-first, never the new block."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.hits = self.misses = self.evictions = self.invalidations = 0
        self.evicted_log: list[tuple] = []

    def get_or_admit(self, name: str, block_id: int):
        """``(hit, victims)`` — victims as ``(name, block_id)``."""
        key = (name, block_id)
        if key in self.entries:
            self.entries.move_to_end(key)
            self.hits += 1
            return True, []
        self.misses += 1
        self.entries[key] = key
        victims = []
        for candidate_key in list(self.entries):
            if len(self.entries) <= self.capacity:
                break
            if candidate_key == key:
                continue
            del self.entries[candidate_key]
            victims.append(candidate_key)
        self.evictions += len(victims)
        self.evicted_log.extend(victims)
        return False, victims

    def invalidate_relation(self, name: str) -> int:
        doomed = [key for key in self.entries if key[0] == name]
        for key in doomed:
            del self.entries[key]
        self.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        self.entries.clear()
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def info(self) -> BufferPoolInfo:
        return BufferPoolInfo(
            hits=self.hits,
            misses=self.misses,
            maxsize=self.capacity,
            currsize=len(self.entries),
            evictions=self.evictions,
            invalidations=self.invalidations,
        )


@pytest.fixture
def relations(int_schema):
    """Pool-facing relations by name: two heaps and one partitioned heap."""
    rows = [(i, i % 7) for i in range(12)]
    part = PartitionedHeapFile("p", int_schema, block_size=8, partitions=2)
    part.load(rows)
    views = [
        make_relation("r1", int_schema, rows, block_size=8),
        make_relation("r2", int_schema, rows[:9], block_size=8),
        part,
    ]
    return {view.name: view for view in views}


@pytest.mark.parametrize("seed", range(12))
def test_random_ops_match_the_naive_model(relations, seed):
    rng = random.Random(seed)
    capacity = rng.choice([1, 2, 3, 5, 8, 13])
    sink = RecordingSink()
    pool = BufferPool(capacity=capacity, sink=sink)
    naive = NaivePool(capacity)
    names = sorted(relations)
    held: list[ColumnBatch] = []  # live pool entries

    for _ in range(600):
        roll = rng.random()
        if roll < 0.70:
            view = relations[rng.choice(names)]
            for _ in range(rng.randint(1, 4)):
                block_id = rng.randrange(view.block_count)
                seen = len(sink.events)
                entry, hit = pool.get_or_admit(view, block_id)
                victims = [
                    (e.relation, e.block_id)
                    for e in sink.events[seen:]
                    if isinstance(e, BufferEvicted)
                ]
                assert (hit, victims) == naive.get_or_admit(view.name, block_id)
                if rng.random() < 0.5:
                    held.append(entry)
        elif roll < 0.90:
            if held:
                batch = held.pop(rng.randrange(len(held)))
                # Whatever the pool dropped meanwhile, the entry's columns
                # are those of a fresh decode.
                plain = ColumnBatch(list(batch.rows), batch.schema)
                for position in range(len(batch.schema.attributes)):
                    assert list(batch.column(position)) == list(
                        plain.column(position)
                    )
        elif roll < 0.98:
            name = rng.choice(["r1", "r2", "p"])
            assert pool.invalidate_relation(name) == naive.invalidate_relation(name)
        else:
            pool.clear()
            naive.clear()
        assert pool.info() == naive.info()
        assert pool.info().currsize <= capacity

    evicted = [
        (e.relation, e.block_id) for e in sink.events if isinstance(e, BufferEvicted)
    ]
    assert evicted == naive.evicted_log


class CountingEntries(OrderedDict):
    """The pool's mapping, counting every entry an iteration yields."""

    examined = 0

    def __iter__(self):
        for key in super().__iter__():
            self.examined += 1
            yield key

    def keys(self):
        return iter(self)

    def values(self):
        return (OrderedDict.__getitem__(self, key) for key in self)

    def items(self):
        return ((key, OrderedDict.__getitem__(self, key)) for key in self)


@pytest.mark.parametrize("capacity", [64, 8192])
@pytest.mark.parametrize("held_prefix", [0, 5])
def test_entries_examined_per_miss_do_not_grow_with_capacity(
    int_schema, capacity, held_prefix
):
    misses = 100
    blocks = capacity + misses
    heap = make_relation(
        "big", int_schema, [(i, 0) for i in range(blocks)], block_size=8
    )
    pool = BufferPool(capacity=capacity)
    pool._entries = CountingEntries()
    # Fill to capacity in block order; live references hold the LRU end,
    # which changes nothing about what is evicted first.
    held = [pool.get_or_admit(heap, block_id)[0] for block_id in range(held_prefix)]
    for block_id in range(held_prefix, capacity):
        pool.get_or_admit(heap, block_id)
    assert pool.info().currsize == capacity

    for block_id in range(capacity, blocks):
        pool._entries.examined = 0
        _, hit = pool.get_or_admit(heap, block_id)
        assert not hit
        assert pool._entries.examined <= 2
    info = pool.info()
    assert (info.currsize, info.evictions) == (capacity, misses)
    assert len(held) == held_prefix


def test_concurrent_readers_keep_the_counters_exact(int_schema):
    """More threads than cores on one small pool: no lost update in the
    hit/miss/eviction counters, and the pool ends within capacity."""
    heap = make_relation(
        "r1", int_schema, [(i, i % 7) for i in range(40)], block_size=8
    )
    pool = BufferPool(capacity=8)
    threads, reads, width = 8, 150, 3
    failures: list[Exception] = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(reads):
                ids = [rng.randrange(heap.block_count) for _ in range(width)]
                rows = [pool.get_or_admit(heap, b)[0].rows[0] for b in ids]
                assert rows == [heap.block_rows_uncharged(b)[0] for b in ids]
        except Exception as error:  # surfaced by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=worker, args=(s,)) for s in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert not failures
    info = pool.info()
    assert info.hits + info.misses == threads * reads * width
    assert info.currsize <= pool.capacity
    assert info.misses - info.evictions == info.currsize
