"""Staged block sampling without replacement.

The paper's cluster sampling plan draws whole disk blocks: "disk blocks are
randomly chosen from each operand relation" (Section 2), without replacement
across stages — ``SAMPLE-SET`` in Figure 3.1 accumulates the drawn block
numbers and ``New-Sample-Select`` draws only new ones.

:class:`BlockSampler` pre-shuffles the block ids of one relation with the
run's RNG and hands out successive prefixes, which is exactly sampling
without replacement with O(1) bookkeeping per stage. Built without an RNG
(a plan that is priced, never run) it holds no order and draws nothing.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingExhausted
from repro.storage.heapfile import HeapFile


class BlockSampler:
    """Without-replacement block sampler over one relation."""

    def __init__(self, relation: HeapFile, rng: np.random.Generator | None) -> None:
        self.relation = relation
        self._blocks = relation.block_count
        self._order = None if rng is None else rng.permutation(self._blocks)
        self._next = 0

    @property
    def drawn_blocks(self) -> int:
        """Blocks handed out so far (the relation's share of SAMPLE-SET)."""
        return self._next

    @property
    def drawn_block_ids(self) -> list[int]:
        """The block ids handed out so far, in draw order (SAMPLE-SET)."""
        return self._order[: self._next].tolist()

    @property
    def remaining_blocks(self) -> int:
        return self._blocks - self._next

    @property
    def exhausted(self) -> bool:
        return self._next >= self._blocks

    @property
    def drawn_fraction(self) -> float:
        """Cumulative sample fraction ``d / D`` of this relation."""
        if self._blocks == 0:
            return 1.0
        return self._next / self._blocks

    def draw(self, n_blocks: int) -> list[int]:
        """Return the next ``n_blocks`` sampled block ids.

        Raises :class:`SamplingExhausted` if fewer blocks remain; callers
        should clamp with :attr:`remaining_blocks` first (the executor does).
        """
        if n_blocks < 0:
            raise SamplingExhausted(f"cannot draw {n_blocks} blocks")
        if n_blocks > self.remaining_blocks:
            raise SamplingExhausted(
                f"relation {self.relation.name!r}: asked for {n_blocks} "
                f"blocks but only {self.remaining_blocks} remain unsampled"
            )
        ids = self._order[self._next : self._next + n_blocks]
        self._next += n_blocks
        return ids.tolist()

    # ------------------------------------------------------------------
    # Salvage support (fault injection)
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Opaque rollback token: the draw cursor."""
        return self._next

    def restore(self, token: int) -> None:
        """Roll the cursor back to a :meth:`snapshot` token.

        The pre-shuffled order is never re-drawn, so a restored sampler
        hands out exactly the block ids of the discarded attempt — which
        is what makes a salvaged stage's retry deterministic.
        """
        if not 0 <= token <= self._next:
            raise SamplingExhausted(
                f"relation {self.relation.name!r}: cannot restore cursor to "
                f"{token} (currently at {self._next})"
            )
        self._next = token


def blocks_for_fraction(relation: HeapFile, fraction: float) -> int:
    """Whole blocks corresponding to sample fraction ``fraction``.

    The paper states sample sizes in the relative measure ``f = d/D = m/N``
    and takes *equal fractions from all relations* (Section 3.1); this maps
    a fraction to an integral block count, at least one block whenever the
    fraction is positive.
    """
    return fraction_blocks(fraction, relation.block_count)


def fraction_blocks(fraction: float, block_count: int) -> int:
    """:func:`blocks_for_fraction` on a bare block count ``D``."""
    if fraction <= 0:
        return 0
    d = int(round(fraction * block_count))
    return max(1, d)
