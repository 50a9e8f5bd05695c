"""The point-space model of [HoOT 88] (Section 2 of the paper).

A Select–Join–Intersect–Project expression over operand relations
``r_1 … r_n`` is modelled as an ``n``-dimensional *point space* with
``Π|r_i|`` points; a point is 1 when the corresponding tuple combination
produces an output tuple. ``COUNT(E)`` is the number of 1-points, and the
estimators scale sample 1-counts up by the space size.

Under the cluster sampling plan the same space is viewed as ``Π D_i``
*space blocks* (one disk block per dimension, Figure 2.2).

:class:`PointSpace` carries the static geometry. How much of it a staged
sample has covered is tracked by the engine's operator nodes
(:mod:`repro.engine.nodes`), for both fulfillment modes:

* **full fulfillment** — every combination of sampled blocks is evaluated,
  so after the relations have ``m_1 … m_n`` sampled tuples the evaluated
  region has ``Π m_j`` points;
* **partial fulfillment** — only new×new combinations are evaluated each
  stage, so the region is the sum of the per-stage products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import EstimationError


@dataclass(frozen=True)
class PointSpace:
    """Static geometry of one SJIP term's point space."""

    relation_names: tuple[str, ...]
    tuple_counts: tuple[int, ...]
    block_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.relation_names:
            raise EstimationError("point space needs at least one dimension")
        if not (
            len(self.relation_names)
            == len(self.tuple_counts)
            == len(self.block_counts)
        ):
            raise EstimationError("point-space dimension lists disagree")
        if len(set(self.relation_names)) != len(self.relation_names):
            raise EstimationError(
                "point space requires distinct operand relations "
                f"(got {self.relation_names}); self-joins are not "
                "estimable under the paper's sampling plan"
            )
        if any(n <= 0 for n in self.tuple_counts) or any(
            d <= 0 for d in self.block_counts
        ):
            raise EstimationError("empty relations have no point space")

    @property
    def dimensions(self) -> int:
        return len(self.relation_names)

    @property
    def total_points(self) -> int:
        """``N`` — Π |r_i|, the number of points."""
        return math.prod(self.tuple_counts)

    @property
    def total_space_blocks(self) -> int:
        """``B`` — Π D_i, the number of space blocks."""
        return math.prod(self.block_counts)
