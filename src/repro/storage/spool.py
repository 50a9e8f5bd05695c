"""Spool — the temporary space intermediate results occupy.

The paper keeps *all* intermediate relations on disk ("all the input
relations and all the intermediate relations are always kept on disks",
Section 4), so every binary operator writes its sample inputs to temporary
files before sorting and merging them. The engine holds the tuples it
merges in its consolidated sorted runs; :class:`Spool` models only what
the disk side costs: one ``TEMP_WRITE`` per spooled tuple and a gauge of
the temporary space in use, whose high-water mark a run reports as
``peak_temp_tuples``. The sort and merge phases are charged by the
operators themselves (they own the cost formulas of Section 4).
"""

from __future__ import annotations

from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import CostKind


class Spool:
    """Temporary-space gauge: tuples live in temp files, and their peak."""

    def __init__(self) -> None:
        self.live_tuples = 0
        self.peak_tuples = 0

    def write(self, n: int, charger: CostCharger) -> None:
        """Spool ``n`` tuples, charging one ``TEMP_WRITE`` per tuple."""
        if n:
            charger.charge(CostKind.TEMP_WRITE, n)
        self.live_tuples += n
        self.peak_tuples = max(self.peak_tuples, self.live_tuples)

    def release(self, n: int) -> None:
        """Drop ``n`` spooled tuples (a temp file no longer needed)."""
        self.live_tuples -= n

    # -- salvage support (fault injection) -------------------------------
    def snapshot(self) -> int:
        """Rollback token: the live tuple count."""
        return self.live_tuples

    def restore(self, token: int) -> None:
        """Return to a :meth:`snapshot` token's live count.

        ``peak_tuples`` keeps its high-water mark — the transient space a
        faulted stage wrote was really used.
        """
        self.live_tuples = token
