"""The buffer pool's replacement against a naive reference model.

:class:`NaivePool` is the pool's original replacement kept as an oracle: on
every miss in a full pool it copies the whole key list and walks it for a
victim, and it recounts pinned entries by walking on every ``info()``. The
pool proper finds the same victims from the LRU end without the copy and
keeps the pinned count incrementally; seeded random op sequences must not
be able to tell the two apart, and an instrumented mapping shows the walk
no longer depends on capacity.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import OrderedDict

import pytest

from repro.observability import RecordingSink
from repro.storage.bufferpool import BufferPool, BufferPoolInfo
from repro.storage.events import BufferEvicted
from repro.storage.partitioned import PartitionedHeapFile
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation


class _NaiveEntry:
    def __init__(self, key):
        self.key = key
        self.pins = 0


class NaivePool:
    """Reference model: LRU-first, pinned skipped, never the new block."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: "OrderedDict[tuple, _NaiveEntry]" = OrderedDict()
        self.hits = self.misses = self.evictions = self.invalidations = 0
        self.evicted_log: list[tuple] = []

    def get_or_admit(self, name: str, block_id: int):
        """``(entry, hit, victims)`` — victims as ``(name, block_id)``."""
        key = (name, block_id)
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
            self.hits += 1
            return entry, True, []
        self.misses += 1
        entry = self.entries[key] = _NaiveEntry(key)
        victims = []
        if len(self.entries) > self.capacity:
            for candidate_key in list(self.entries):
                if len(self.entries) <= self.capacity:
                    break
                candidate = self.entries[candidate_key]
                if candidate.pins > 0 or candidate_key == key:
                    continue
                del self.entries[candidate_key]
                victims.append(candidate_key)
            self.evictions += len(victims)
        self.evicted_log.extend(victims)
        return entry, False, victims

    def pin(self, entries) -> None:
        for entry in entries:
            entry.pins += 1

    def unpin(self, entries) -> None:
        for entry in entries:
            entry.pins = max(0, entry.pins - 1)

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
            pinned=sum(1 for e in self.entries.values() if e.pins > 0),
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
    held: list[tuple] = []  # (live PooledBatch, the naive entries it pins)

    for _ in range(600):
        roll = rng.random()
        if roll < 0.70:
            view = relations[rng.choice(names)]
            entries, naive_entries = [], []
            for _ in range(rng.randint(1, 4)):
                block_id = rng.randrange(view.block_count)
                seen = len(sink.events)
                entry, hit = pool.get_or_admit(view, block_id)
                victims = [
                    (e.relation, e.block_id)
                    for e in sink.events[seen:]
                    if isinstance(e, BufferEvicted)
                ]
                naive_entry, naive_hit, naive_victims = naive.get_or_admit(
                    view.name, block_id
                )
                assert (hit, victims) == (naive_hit, naive_victims)
                entries.append(entry)
                naive_entries.append(naive_entry)
            if rng.random() < 0.5:
                rows = [row for entry in entries for row in entry.rows]
                held.append((pool.batch(rows, view.schema, entries), naive_entries))
                naive.pin(naive_entries)
        elif roll < 0.90:
            if held:
                batch, naive_entries = held.pop(rng.randrange(len(held)))
                del batch  # the last reference: its finalizer unpins
                naive.unpin(naive_entries)
        elif roll < 0.98:
            name = rng.choice(["r1", "r2", "p"])
            assert pool.invalidate_relation(name) == naive.invalidate_relation(name)
        else:
            pool.clear()
            naive.clear()
        assert pool.info() == naive.info()

    evicted = [
        (e.relation, e.block_id) for e in sink.events if isinstance(e, BufferEvicted)
    ]
    assert evicted == naive.evicted_log
    held.clear()
    assert pool.info().pinned == 0


class TestPinnedCounter:
    """``info().pinned`` is a maintained counter, not a recount."""

    def test_batch_outliving_invalidate_and_clear_never_drifts(
        self, relations, free_charger
    ):
        heap = relations["r1"]
        pool = BufferPool(capacity=8)
        _, first = heap.read_blocks_decoded([0, 1, 2], free_charger, pool=pool)
        _, second = heap.read_blocks_decoded([2, 3], free_charger, pool=pool)
        assert pool.info().pinned == 4
        assert pool.invalidate_relation("r1") == 4
        assert pool.info().pinned == 0
        # The same blocks again: new entries, pinned by a new batch, while
        # the old batches still pin their no-longer-resident ones.
        _, third = heap.read_blocks_decoded([0, 1], free_charger, pool=pool)
        assert pool.info().pinned == 2
        del first, second
        assert pool.info().pinned == 2
        pool.clear()
        assert pool.info().pinned == 0
        del third
        assert pool.info().pinned == 0

    def test_entry_evicted_by_its_own_read_is_not_counted(
        self, relations, free_charger
    ):
        pool = BufferPool(capacity=1)
        _, batch = relations["r1"].read_blocks_decoded(
            [0, 1, 2], free_charger, pool=pool
        )
        assert pool.info().currsize == 1 and pool.info().pinned == 1
        del batch
        assert pool.info().pinned == 0

    def test_info_does_not_walk_the_pool(self, relations, free_charger):
        pool = BufferPool(capacity=8)
        pool._entries = CountingEntries()
        _, batch = relations["r1"].read_blocks_decoded(
            [0, 1, 2], free_charger, pool=pool
        )
        pool._entries.examined = 0
        assert pool.info().pinned == 3 and "3/8" in repr(pool)
        assert pool._entries.examined == 0
        del batch


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
@pytest.mark.parametrize("pinned_prefix", [0, 5])
def test_entries_examined_per_miss_do_not_grow_with_capacity(
    int_schema, free_charger, capacity, pinned_prefix
):
    misses = 100
    blocks = capacity + misses
    heap = make_relation(
        "big", int_schema, [(i, 0) for i in range(blocks)], block_size=8
    )
    pool = BufferPool(capacity=capacity)
    pool._entries = CountingEntries()
    # Fill to capacity in block order; a live batch pins the LRU end.
    _, batch = heap.read_blocks_decoded(
        list(range(pinned_prefix)), free_charger, pool=pool
    )
    # (result dropped at once: its batch unpins, only the prefix stays pinned)
    heap.read_blocks_decoded(
        list(range(pinned_prefix, capacity)), free_charger, pool=pool
    )
    assert pool.info().currsize == capacity
    assert pool.info().pinned == pinned_prefix

    for block_id in range(capacity, blocks):
        pool._entries.examined = 0
        _, hit = pool.get_or_admit(heap, block_id)
        assert not hit
        assert pool._entries.examined <= 2 + pinned_prefix
    info = pool.info()
    assert (info.currsize, info.evictions) == (capacity, misses)
    del batch


def test_concurrent_readers_keep_the_counters_exact(int_schema):
    """More threads than cores on one small pool: no lost update in the
    hit/miss/eviction/pinned counters, and the pool ends within capacity."""
    heap = make_relation(
        "r1", int_schema, [(i, i % 7) for i in range(40)], block_size=8
    )
    pool = BufferPool(capacity=8)
    threads, reads, width = 8, 150, 3
    failures: list[Exception] = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        charger = CostCharger(MachineProfile.uniform(0.0))
        try:
            for _ in range(reads):
                ids = [rng.randrange(heap.block_count) for _ in range(width)]
                rows, batch = heap.read_blocks_decoded(ids, charger, pool=pool)
                assert rows == [heap.block_rows_uncharged(b)[0] for b in ids]
                del batch
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
    assert info.pinned == 0
    # Everything is unpinned now, so one more miss trims any overshoot.
    _, hit = pool.get_or_admit(make_relation("r2", int_schema, [(0, 0)]), 0)
    assert not hit
    info = pool.info()
    assert info.currsize <= pool.capacity
    assert info.misses - info.evictions == info.currsize
