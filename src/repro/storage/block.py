"""Disk blocks.

A :class:`DiskBlock` is the paper's sampling unit: "a disk block is taken as
a sample unit (i.e., all the tuples in a disk block are taken as a whole)"
(Section 2). In the experiments each block is 1 KB and holds 5 tuples of
200 bytes; here capacity derives from the owning relation's schema and the
configured block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import StorageError

Row = tuple[Any, ...]


@dataclass
class DiskBlock:
    """One fixed-capacity block of tuples."""

    block_id: int
    capacity: int
    rows: list[Row] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise StorageError(f"block capacity must be positive: {self.capacity}")
        if len(self.rows) > self.capacity:
            raise StorageError(
                f"block {self.block_id} holds {len(self.rows)} rows "
                f"but capacity is {self.capacity}"
            )

    @property
    def is_full(self) -> bool:
        return len(self.rows) >= self.capacity

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)
