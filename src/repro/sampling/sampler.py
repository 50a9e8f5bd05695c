"""Staged block sampling without replacement.

The paper's cluster sampling plan draws whole disk blocks: "disk blocks are
randomly chosen from each operand relation" (Section 2), without replacement
across stages — ``SAMPLE-SET`` in Figure 3.1 accumulates the drawn block
numbers and ``New-Sample-Select`` draws only new ones.

:class:`BlockSampler` draws the block ids of one relation lazily, by
Fisher–Yates on a sparse swap map: position ``i`` of the draw order takes
the id at a uniform position ``j ∈ [i, D)``, one 64-bit word per pick, so a
stage pays for the blocks it takes and never for the whole relation. The
words come from the scan's own stream, spawned from the run's generator at
lowering without advancing it, so the drawn order depends on the session
seed and the scan alone — not on the cost jitter or the Goodman bootstrap
drawn in between. Built without an RNG (a plan that is priced, never run)
it has no stream and draws nothing.
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
        # A child of the run's seed sequence (spawning leaves the run's
        # generator state alone), always PCG64 so every word has 64 bits.
        self._bits = (
            None
            if rng is None
            else np.random.PCG64(rng.bit_generator.seed_seq.spawn(1)[0])
        )
        self._drawn: list[int] = []  # ids picked so far, in draw order
        self._swaps: dict[int, int] = {}  # position ≥ len(_drawn) → its id
        self._next = 0

    @property
    def drawn_blocks(self) -> int:
        """Blocks handed out so far (the relation's share of SAMPLE-SET)."""
        return self._next

    @property
    def drawn_block_ids(self) -> list[int]:
        """The block ids handed out so far, in draw order (SAMPLE-SET)."""
        return self._drawn[: self._next]

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
        stop = self._next + n_blocks
        if stop > len(self._drawn):
            self._pick(stop - len(self._drawn))
        ids = self._drawn[self._next : stop]
        self._next = stop
        return ids

    def _pick(self, count: int) -> None:
        """Extend the draw order by ``count`` Fisher–Yates picks."""
        if self._bits is None:
            raise SamplingExhausted(
                f"relation {self.relation.name!r}: a priced plan has no "
                "sample stream to draw from"
            )
        drawn, swaps, blocks = self._drawn, self._swaps, self._blocks
        for word in self._bits.random_raw(count).tolist():
            i = len(drawn)
            j = i + ((word * (blocks - i)) >> 64)  # uniform on [i, blocks)
            if j == i:
                drawn.append(swaps.pop(i, i))
            else:
                drawn.append(swaps.get(j, j))
                swaps[j] = swaps.pop(i, i)

    # ------------------------------------------------------------------
    # Salvage support (fault injection)
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Opaque rollback token: the draw cursor."""
        return self._next

    def restore(self, token: int) -> None:
        """Roll the cursor back to a :meth:`snapshot` token.

        Picks are never re-drawn: a restored sampler first hands out the
        block ids of the discarded attempt, in the same order, and only
        then continues the scan's stream — which is what makes a salvaged
        stage's retry deterministic.
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
