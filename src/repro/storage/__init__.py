"""Simulated-disk storage substrate (system S1)."""

from repro.storage.block import DiskBlock, Row
from repro.storage.heapfile import DEFAULT_BLOCK_SIZE, HeapFile
from repro.storage.spool import Spool

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "DiskBlock",
    "HeapFile",
    "Row",
    "Spool",
]
