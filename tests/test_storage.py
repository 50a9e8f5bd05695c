"""Unit tests for blocks, heap files, and the spool gauge."""

import pytest

from repro.errors import StorageError
from repro.storage.block import DiskBlock
from repro.storage.heapfile import HeapFile
from repro.storage.spool import Spool
from repro.timekeeping.profile import CostKind


class TestDiskBlock:
    def test_len_and_iter(self):
        block = DiskBlock(block_id=0, capacity=3, rows=[(1,), (2,)])
        assert len(block) == 2
        assert list(block) == [(1,), (2,)]

    def test_capacity_must_be_positive(self):
        with pytest.raises(StorageError):
            DiskBlock(block_id=0, capacity=0)

    def test_overfull_construction_rejected(self):
        with pytest.raises(StorageError):
            DiskBlock(block_id=0, capacity=1, rows=[(1,), (2,)])


class TestHeapFileLoad:
    def test_packs_blocks_densely(self, int_schema):
        heap = HeapFile("r", int_schema, block_size=16)  # bf = 2
        heap.load([(i, i) for i in range(5)])
        assert heap.blocking_factor == 2
        assert heap.block_count == 3
        assert heap.tuple_count == 5
        assert len(heap) == 5

    def test_paper_geometry(self, wide_schema):
        heap = HeapFile("r", wide_schema, block_size=1024)
        heap.load([(i, i, i, "x") for i in range(10_000)])
        assert heap.blocking_factor == 5
        assert heap.block_count == 2_000

    def test_incremental_loads_accumulate(self, int_schema):
        heap = HeapFile("r", int_schema, block_size=16)
        heap.load([(0, 0)])
        heap.load([(1, 1)])
        assert heap.tuple_count == 2

    def test_block_smaller_than_tuple_rejected(self, wide_schema):
        with pytest.raises(StorageError):
            HeapFile("r", wide_schema, block_size=100)

    def test_load_validates_rows(self, int_schema):
        heap = HeapFile("r", int_schema, block_size=16)
        with pytest.raises(Exception):
            heap.load([("bad", 1)])


class TestHeapFileReads:
    @pytest.fixture
    def heap(self, int_schema):
        heap = HeapFile("r", int_schema, block_size=16)
        heap.load([(i, i * 10) for i in range(6)])
        return heap

    def test_read_block_charges_one_read(self, heap, unit_charger):
        rows = heap.read_block(0, unit_charger)
        assert rows == [(0, 0), (1, 10)]
        assert unit_charger.counts[CostKind.BLOCK_READ] == 1

    def test_read_blocks_concatenates(self, heap, unit_charger):
        rows = heap.read_blocks([2, 0], unit_charger)
        assert rows == [(4, 40), (5, 50), (0, 0), (1, 10)]
        assert unit_charger.counts[CostKind.BLOCK_READ] == 2

    def test_read_bad_block_raises(self, heap, unit_charger):
        with pytest.raises(StorageError):
            heap.read_block(99, unit_charger)

    def test_scan_charges_every_block(self, heap, unit_charger):
        rows = list(heap.scan(unit_charger))
        assert len(rows) == 6
        assert unit_charger.counts[CostKind.BLOCK_READ] == heap.block_count

    def test_all_rows_is_free(self, heap, free_charger):
        assert len(heap.all_rows()) == 6

    def test_block_rows_uncharged(self, heap):
        assert heap.block_rows_uncharged(1) == [(2, 20), (3, 30)]
        with pytest.raises(StorageError):
            heap.block_rows_uncharged(10)


class TestSpool:
    """The spool is a gauge: TEMP_WRITE charges plus live / peak tuples."""

    def test_write_charges_temp_write(self, unit_charger):
        spool = Spool()
        spool.write(3, unit_charger)
        spool.write(0, unit_charger)  # nothing spooled, nothing charged
        assert unit_charger.counts[CostKind.TEMP_WRITE] == 3
        assert spool.live_tuples == spool.peak_tuples == 3

    def test_peak_usage_tracked(self, unit_charger):
        spool = Spool()
        spool.write(1, unit_charger)
        spool.write(2, unit_charger)
        assert spool.live_tuples == spool.peak_tuples == 3
        spool.release(1)
        assert spool.live_tuples == 2
        assert spool.peak_tuples == 3
        spool.write(4, unit_charger)
        assert spool.live_tuples == spool.peak_tuples == 6
        assert unit_charger.counts[CostKind.TEMP_WRITE] == 7

    def test_restore_keeps_the_high_water_mark(self, unit_charger):
        spool = Spool()
        spool.write(2, unit_charger)
        token = spool.snapshot()
        assert token == 2
        spool.write(5, unit_charger)  # a faulted stage's transient space
        spool.restore(token)
        assert spool.live_tuples == 2
        assert spool.peak_tuples == 7
        spool.write(1, unit_charger)
        assert spool.live_tuples == 3
        assert spool.peak_tuples == 7

    def test_spool_holds_no_rows(self, unit_charger):
        import repro.storage

        spool = Spool()
        spool.write(2, unit_charger)
        for name in ("create", "rows", "replace_rows", "block_size"):
            assert not hasattr(spool, name)
        assert not hasattr(repro.storage, "SpoolFile")

    def test_bad_block_size_rejected(self):
        # The gauge counts tuples, not pages: any block size is refused.
        with pytest.raises(TypeError):
            Spool(block_size=16)
