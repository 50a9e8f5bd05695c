"""Simulated-disk storage substrate (system S1)."""

from repro.storage.block import DiskBlock, Row
from repro.storage.bufferpool import (
    BufferPool,
    BufferPoolInfo,
    PooledBatch,
    default_pool,
    invalidate_bufferpool_relation,
)
from repro.storage.events import BufferEvicted, BufferHit, BufferInvalidated
from repro.storage.heapfile import DEFAULT_BLOCK_SIZE, HeapFile
from repro.storage.spool import Spool

__all__ = [
    "BufferEvicted",
    "BufferHit",
    "BufferInvalidated",
    "BufferPool",
    "BufferPoolInfo",
    "DEFAULT_BLOCK_SIZE",
    "DiskBlock",
    "HeapFile",
    "PooledBatch",
    "Row",
    "Spool",
    "default_pool",
    "invalidate_bufferpool_relation",
]
