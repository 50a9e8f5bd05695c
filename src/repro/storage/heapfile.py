"""Heap files — stored base relations.

A :class:`HeapFile` is a sequence of fixed-size :class:`DiskBlock`s holding
one relation, the way ERAM stored its experimental relations ("each relation
instance consists of 2,000 disk blocks (1K bytes in each disk block) with 5
tuples in each disk block", Section 5). Every read charges one
:data:`CostKind.BLOCK_READ` per block on the supplied charger — block-level
random I/O is the dominant term of the paper's cost formulas, and sampling
draws whole blocks. :meth:`read_block` / :meth:`read_blocks` are the
per-block reference; the engine reads through :meth:`read_blocks_decoded`,
the same loop with its charges batched, which returns the rows plus one
:class:`~repro.kernels.columns.ColumnBatch` over them, so a stage decodes
each column it touches once.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.catalog.schema import Schema
from repro.errors import StorageError
from repro.kernels.columns import ColumnBatch
from repro.storage.block import DiskBlock, Row
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import CostKind

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

DEFAULT_BLOCK_SIZE = 1024
"""The paper's 1 KB disk block."""

_storage_tokens = itertools.count(1)
"""Process-unique tokens telling heap instances apart in buffer-pool keys."""


class HeapFile:
    """An immutable-after-load stored relation."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if block_size < schema.tuple_size:
            raise StorageError(
                f"block size {block_size} smaller than tuple size "
                f"{schema.tuple_size} of relation {name!r}"
            )
        self.name = name
        self.schema = schema
        self.block_size = block_size
        self.blocking_factor = schema.blocking_factor(block_size)
        self._blocks: list[DiskBlock] = []
        self._tuple_count = 0
        # Unique per heap instance: buffer-pool keys fold it into the size
        # fingerprint so two same-named relations holding different data
        # (separate databases; drop-and-recreate) can never alias.
        self.storage_token = next(_storage_tokens)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, rows: Iterable[Sequence]) -> int:
        """Bulk-append validated rows, packing blocks densely.

        Returns the number of rows loaded. The whole batch is validated
        (:meth:`Schema.validate_rows`) before any block changes, so a batch
        with one bad row stores nothing. The rows then top up a partial
        last block and are cut into whole blocks by slicing. Loading is
        not charged: the experiments (like the paper's) treat relation
        creation as offline setup outside any quota.
        """
        rows = self.schema.validate_rows(rows)
        bf = self.blocking_factor
        start = 0
        if self._blocks and not self._blocks[-1].is_full:
            last = self._blocks[-1]
            start = bf - len(last)
            last.rows.extend(rows[:start])
        for offset in range(start, len(rows), bf):
            self._blocks.append(
                DiskBlock(len(self._blocks), bf, rows[offset:offset + bf])
            )
        self._tuple_count += len(rows)
        return len(rows)

    # ------------------------------------------------------------------
    # Size introspection (read by the catalog, sampler, and cost model)
    # ------------------------------------------------------------------
    @property
    def tuple_count(self) -> int:
        """``N`` — total tuples in the relation."""
        return self._tuple_count

    @property
    def block_count(self) -> int:
        """``D`` — total disk blocks in the relation."""
        return len(self._blocks)

    def __len__(self) -> int:
        return self._tuple_count

    def _no_such_block(self, block_id: int) -> StorageError:
        """The error every bounds check on a block id raises."""
        return StorageError(
            f"relation {self.name!r} has no block {block_id} "
            f"(has {len(self._blocks)})",
            relation=self.name,
            block_id=block_id,
        )

    def shard_of_block(self, block_id: int) -> int | None:
        """The block's shard label, handed to shard-targeted faults.

        Plain heap files have no shards; :class:`~repro.storage.partitioned.
        PartitionedHeapFile` overrides this with arithmetic on the block id.
        """
        return None

    # ------------------------------------------------------------------
    # Reads (charged)
    # ------------------------------------------------------------------
    def read_block(
        self,
        block_id: int,
        charger: CostCharger,
        injector: "FaultInjector | None" = None,
    ) -> list[Row]:
        """Read one block's rows, charging one ``BLOCK_READ``.

        ``injector`` is the session's fault injector, if any: it is
        consulted *after* the charge (a failed or slow read still spun the
        disk) and may raise :class:`~repro.errors.InjectedFault` or charge
        a stall penalty.
        """
        if not 0 <= block_id < len(self._blocks):
            raise self._no_such_block(block_id)
        charger.charge(CostKind.BLOCK_READ, 1)
        if injector is not None:
            injector.on_block_read(
                self.name, block_id, charger, shard=self.shard_of_block(block_id)
            )
        return list(self._blocks[block_id].rows)

    def read_blocks(
        self,
        block_ids: Sequence[int],
        charger: CostCharger,
        injector: "FaultInjector | None" = None,
    ) -> list[Row]:
        """Read several blocks (each charged), concatenating their rows.

        The per-block storage reference: the engine reads through
        :meth:`read_blocks_decoded`, which must charge, consult the
        injector and return rows exactly as this loop does.
        """
        rows: list[Row] = []
        for block_id in block_ids:
            rows.extend(self.read_block(block_id, charger, injector))
        return rows

    def read_blocks_decoded(
        self,
        block_ids: Sequence[int],
        charger: CostCharger,
        injector: "FaultInjector | None" = None,
    ) -> ColumnBatch:
        """:meth:`read_blocks`'s rows as one lazy columnar batch.

        A staged scan hands this batch to every term that shares it, so
        each column is decoded at most once per stage.
        """
        return ColumnBatch(self._read(block_ids, charger, injector), self.schema)

    def _read(
        self,
        block_ids: Sequence[int],
        charger: CostCharger,
        injector: "FaultInjector | None",
    ) -> list[Row]:
        """The engine's charged per-block read loop.

        Order per block: bounds check → ``BLOCK_READ`` charge → injector.
        The charges go through :meth:`CostCharger.units`, whose per-block
        charge is bit-identical to the ``charge`` in :meth:`read_block`, so
        a read cut short by a bad id, a fault or a deadline leaves the
        charger exactly where :meth:`read_blocks` leaves it.
        """
        rows: list[Row] = []
        blocks = self._blocks
        n_blocks = len(blocks)
        with charger.units(CostKind.BLOCK_READ, len(block_ids)) as charge_block:
            for block_id in block_ids:
                if not 0 <= block_id < n_blocks:
                    raise self._no_such_block(block_id)
                charge_block()
                if injector is not None:
                    injector.on_block_read(
                        self.name, block_id, charger,
                        shard=self.shard_of_block(block_id),
                    )
                rows.extend(blocks[block_id].rows)
        return rows

    def scan(self, charger: CostCharger) -> Iterator[Row]:
        """Full sequential scan, charging one ``BLOCK_READ`` per block.

        The per-block reference of :meth:`scan_all`, which the exact
        evaluator reads with; sampling never scans.
        """
        for block in self._blocks:
            charger.charge(CostKind.BLOCK_READ, 1)
            yield from block.rows

    def scan_all(self, charger: CostCharger) -> list[Row]:
        """:meth:`scan` as one list, its ``BLOCK_READ``s charged through
        :meth:`CostCharger.units` — bit-identical to the per-block charges.

        The exact evaluator's read of a base relation.
        """
        rows: list[Row] = []
        with charger.units(CostKind.BLOCK_READ, len(self._blocks)) as charge_block:
            for block in self._blocks:
                charge_block()
                rows.extend(block.rows)
        return rows

    def all_rows(self) -> list[Row]:
        """All rows without any charge — for tests and ground-truth checks."""
        rows: list[Row] = []
        for block in self._blocks:
            rows.extend(block.rows)
        return rows

    def block_tuple(self, block_id: int) -> tuple[Row, ...]:
        """One block's rows as an immutable tuple, uncharged.

        What a :class:`~repro.storage.bufferpool.BufferPool` admits: the
        caller charged the block's ``BLOCK_READ`` already, and a shared
        tuple can never be mutated.
        """
        if not 0 <= block_id < len(self._blocks):
            raise self._no_such_block(block_id)
        return tuple(self._blocks[block_id].rows)

    def block_rows_uncharged(self, block_id: int) -> list[Row]:
        """One block's rows without charging — for tests, ground-truth
        checks and the ablation experiments."""
        return list(self.block_tuple(block_id))

    def __repr__(self) -> str:
        return (
            f"HeapFile({self.name!r}, tuples={self._tuple_count}, "
            f"blocks={self.block_count}, bf={self.blocking_factor})"
        )
