"""Equi-depth histograms — the prestored-statistics substrate.

Section 3.1 lists prestored selectivities as the alternative to run-time
estimation, citing equi-depth histograms in particular ([MuDe 88],
[PsCo 84]). This module implements the classic single-attribute equi-depth
histogram: bucket boundaries chosen so each bucket holds (approximately) the
same number of tuples, which bounds the selectivity estimation error of
range predicates regardless of skew.

The histogram answers two questions the prestored selectivity layer needs:

* :meth:`selectivity` — what fraction of tuples satisfies
  ``attr <op> constant``;
* :meth:`join_selectivity` — what fraction of the cross product of two
  relations joins on this attribute, under the standard containment /
  uniform-within-bucket assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import EstimationError


@dataclass(frozen=True)
class EquiDepthHistogram:
    """An equi-depth histogram over one numeric attribute.

    ``boundaries`` holds ``buckets + 1`` ascending values; bucket ``i``
    covers ``[boundaries[i], boundaries[i+1])`` (the last bucket is closed
    on the right). ``depths`` holds the tuple count per bucket;
    ``distinct`` the number of distinct attribute values overall.
    """

    boundaries: tuple[float, ...]
    depths: tuple[int, ...]
    distinct: int
    total: int

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.depths) + 1:
            raise EstimationError("histogram boundary/depth lengths disagree")
        if any(
            a > b for a, b in zip(self.boundaries, self.boundaries[1:])
        ):
            raise EstimationError("histogram boundaries must be ascending")
        if self.total != sum(self.depths):
            raise EstimationError("histogram depths do not sum to total")
        if self.total > 0 and self.distinct <= 0:
            raise EstimationError("non-empty histogram needs distinct > 0")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, values: Sequence[float], buckets: int = 32) -> "EquiDepthHistogram":
        """Build from raw attribute values (one pass after a sort).

        ``np.sort(kind="stable")`` orders ``-0.0`` and ``0.0`` as
        ``sorted()`` does (by input position), so boundaries match the
        Python sort bit for bit. NaN has no place in that order and is
        refused.
        """
        if buckets <= 0:
            raise EstimationError(f"need at least one bucket, got {buckets}")
        total = len(values)
        if total == 0:
            return cls(boundaries=(0.0, 0.0), depths=(0,), distinct=0, total=0)
        ordered = np.sort(
            np.fromiter(map(float, values), dtype=np.float64, count=total),
            kind="stable",
        )
        if np.isnan(ordered[-1]):
            raise EstimationError("cannot build a histogram over NaN values")
        buckets = min(buckets, total)
        distinct = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
        ends = [round((i + 1) * total / buckets) for i in range(buckets)]
        depths = [end - taken for taken, end in zip([0, *ends], ends)]
        boundaries = ordered[[0, *(end - 1 for end in ends)]].tolist()
        return cls(
            boundaries=tuple(boundaries),
            depths=tuple(depths),
            distinct=distinct,
            total=total,
        )

    # ------------------------------------------------------------------
    # Range selectivity
    # ------------------------------------------------------------------
    def _fraction_below(self, value: float) -> float:
        """Fraction of tuples with attribute < value (linear in-bucket).

        Walks buckets rather than bisecting: heavily duplicated values
        produce several zero-width buckets sharing a boundary, and a bucket
        counts as "below" only when its whole range is (mass sitting exactly
        at ``value`` is not below it).
        """
        if self.total == 0:
            return 0.0
        if value <= self.boundaries[0]:
            return 0.0
        if value > self.boundaries[-1]:
            return 1.0
        below = 0.0
        for i, depth in enumerate(self.depths):
            left, right = self.boundaries[i], self.boundaries[i + 1]
            if right < value:
                below += depth
            elif left < value <= right:
                width = right - left
                if width > 0:
                    below += depth * (value - left) / width
            # left >= value: entirely at-or-above, contributes nothing.
        return below / self.total

    def selectivity(self, op: str, value: float) -> float:
        """Estimated fraction of tuples satisfying ``attr <op> value``."""
        if self.total == 0:
            return 0.0
        below = self._fraction_below(value)
        point = 1.0 / self.distinct if self.distinct else 0.0
        if op == "<":
            result = below
        elif op == ">=":
            result = 1.0 - below
        elif op == "<=":
            result = below + point
        elif op == ">":
            result = 1.0 - below - point
        elif op == "==":
            result = point if self._in_domain(value) else 0.0
        elif op == "!=":
            result = 1.0 - (point if self._in_domain(value) else 0.0)
        else:
            raise EstimationError(f"unknown comparison operator {op!r}")
        return min(max(result, 0.0), 1.0)

    def _in_domain(self, value: float) -> bool:
        return self.boundaries[0] <= value <= self.boundaries[-1]

    def mean(self) -> float:
        """Estimated attribute mean (bucket-midpoint weighted by depth).

        Feeds the serving layer's zero-sampling degraded answers for
        SUM/AVG (:mod:`repro.server.degrade`): with uniform-within-bucket
        values, the midpoint estimate is exact in expectation.
        """
        if self.total == 0:
            return 0.0
        weighted = sum(
            depth * 0.5 * (self.boundaries[i] + self.boundaries[i + 1])
            for i, depth in enumerate(self.depths)
        )
        return weighted / self.total

    # ------------------------------------------------------------------
    # Join selectivity
    # ------------------------------------------------------------------
    def join_selectivity(self, other: "EquiDepthHistogram") -> float:
        """Estimated ``|r1 ⋈ r2| / (|r1|·|r2|)`` for an equi-join on this
        attribute.

        Bucket-overlap refinement of the System-R ``1/max(d1, d2)`` rule:
        for each pair of overlapping buckets, matched tuples are estimated
        under containment (the smaller distinct set is contained in the
        larger) with values uniform within buckets.
        """
        if self.total == 0 or other.total == 0:
            return 0.0
        matched = 0.0
        for i in range(len(self.depths)):
            a_lo, a_hi = self.boundaries[i], self.boundaries[i + 1]
            a_depth = self.depths[i]
            a_width = max(a_hi - a_lo, 0.0)
            for j in range(len(other.depths)):
                b_lo, b_hi = other.boundaries[j], other.boundaries[j + 1]
                lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
                if hi < lo:
                    continue
                b_depth = other.depths[j]
                b_width = max(b_hi - b_lo, 0.0)
                # Tuples of each side falling inside the overlap window.
                a_share = a_depth * ((hi - lo) / a_width if a_width else 1.0)
                b_share = b_depth * ((hi - lo) / b_width if b_width else 1.0)
                # Distinct values available in the window (containment).
                a_distinct = max(
                    self.distinct * (hi - lo) / (self.boundaries[-1] - self.boundaries[0])
                    if self.boundaries[-1] > self.boundaries[0]
                    else self.distinct,
                    1.0,
                )
                b_distinct = max(
                    other.distinct * (hi - lo) / (other.boundaries[-1] - other.boundaries[0])
                    if other.boundaries[-1] > other.boundaries[0]
                    else other.distinct,
                    1.0,
                )
                matched += a_share * b_share / max(a_distinct, b_distinct)
        selectivity = matched / (self.total * other.total)
        return min(max(selectivity, 0.0), 1.0)
