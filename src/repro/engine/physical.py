"""Physical lowering — phase 3 of query planning.

:class:`PhysicalPlanBuilder` turns one logical SJIP expression (a term of
the inclusion–exclusion expansion) into a tree of staged operators over
**shared** per-relation sampling scans. It is deliberately dumb: no
rewriting happens here — the tree it receives, optimized or verbatim, is
the tree it lowers, node for node. All query *improvement* lives one phase
up in :mod:`repro.planner`; all query *execution* lives one phase down in
:mod:`repro.engine.nodes`.

One builder instance serves all terms of one :class:`~repro.engine.plan.
StagedPlan`, so every term referencing a relation shares the same
:class:`~repro.engine.nodes.StagedScan` (blocks drawn and read once per
stage regardless of how many terms consume them) and operator labels
(``select#1``, ``join#2``, …) number consecutively across terms in
construction order — exactly the behavior of the pre-refactor inline
``StagedPlan._build``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.catalog.catalog import Catalog
from repro.costmodel.model import CostModel
from repro.engine.nodes import (
    StagedIntersect,
    StagedJoin,
    StagedNode,
    StagedProject,
    StagedScan,
    StagedSelect,
)
from repro.errors import EstimationError, ExpressionError
from repro.relational.expression import (
    Expression,
    Intersect,
    Join,
    Project,
    RelationRef,
    Select,
)
from repro.sampling.sampler import BlockSampler
from repro.storage.spool import Spool
from repro.timekeeping.charger import CostCharger

if TYPE_CHECKING:
    from repro.core.options import QueryOptions
    from repro.faults.injector import FaultInjector
    from repro.synopses.binder import SynopsisBinder

DEFAULT_INITIAL_SELECTIVITY = {
    "select": 1.0,
    "join": 1.0,
    "project": 1.0,
    # Intersect defaults to 1/max(|r1|,|r2|) computed per node (Figure 3.3);
    # an entry here overrides that.
}


class PhysicalPlanBuilder:
    """Lowers logical SJIP trees to staged operator trees (shared scans)."""

    def __init__(
        self,
        catalog: Catalog,
        charger: CostCharger | None,
        cost_model: CostModel,
        rng: np.random.Generator | None,
        options: "QueryOptions",
        *,
        block_size: int,
        injector: "FaultInjector | None" = None,
        hint_provider=None,
        binder: "SynopsisBinder | None" = None,
    ) -> None:
        self.catalog = catalog
        self.charger = charger
        self.cost_model = cost_model
        self.rng = rng
        self.block_size = block_size
        self.full_fulfillment = options.full_fulfillment
        self.injector = injector
        self._hint_provider = hint_provider
        self._pin_selectivities = options.selectivity_source == "prestored"
        if self._pin_selectivities and hint_provider is None:
            raise EstimationError(
                "selectivity_source='prestored' needs a hint provider"
            )
        self._binder = binder
        self._initial = dict(DEFAULT_INITIAL_SELECTIVITY)
        if options.initial_selectivities:
            self._initial.update(options.initial_selectivities)
        self.spool = Spool()
        self._scans: dict[str, StagedScan] = {}
        self._label_counter = 0

    # ------------------------------------------------------------------
    # Shared state exposed to the plan
    # ------------------------------------------------------------------
    @property
    def scans(self) -> list[StagedScan]:
        """Shared per-relation scans, in first-reference order."""
        return list(self._scans.values())

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def _common_kwargs(self) -> dict:
        return dict(
            charger=self.charger,
            cost_model=self.cost_model,
            block_size=self.block_size,
            full_fulfillment=self.full_fulfillment,
            spool=self.spool,
            injector=self.injector,
        )

    def _next_label(self, kind: str) -> str:
        self._label_counter += 1
        return f"{kind}#{self._label_counter}"

    def _initial_for(self, expr: Expression, default: float) -> tuple[float, bool]:
        """Initial selectivity for an operator node and whether it came
        from a prestored hint (Figure 3.3's maximum otherwise)."""
        if self._hint_provider is not None:
            hinted = self._hint_provider(expr)
            if hinted is not None:
                return min(max(hinted, 1e-12), 1.0), True
        return default, False

    def _finish_node(
        self, node: StagedNode, hinted: bool, expr: Expression
    ) -> StagedNode:
        if hinted and self._pin_selectivities and node.tracker is not None:
            node.tracker.pinned = True
        # Warm-start from the synopsis catalog last: pinning wins (prestored
        # mode never borrows), and the prior only adds pseudo-counts — it
        # never changes the node's configured initial selectivity, so the
        # explicit/hinted/default precedence above is untouched.
        if self._binder is not None and node.tracker is not None:
            self._binder.bind(expr, node.tracker)
        return node

    def build(self, expr: Expression) -> StagedNode:
        """Lower one SJIP term verbatim to a staged operator tree."""
        if isinstance(expr, RelationRef):
            if expr.name not in self._scans:
                relation = self.catalog.get(expr.name)
                self._scans[expr.name] = StagedScan(
                    relation,
                    BlockSampler(relation, self.rng),
                    **self._common_kwargs(),
                )
            return self._scans[expr.name]
        if isinstance(expr, Select):
            child = self.build(expr.child)
            initial, hinted = self._initial_for(expr, self._initial["select"])
            return self._finish_node(
                StagedSelect(
                    child,
                    expr.predicate,
                    label=self._next_label("select"),
                    initial_selectivity=initial,
                    **self._common_kwargs(),
                ),
                hinted,
                expr,
            )
        if isinstance(expr, Project):
            child = self.build(expr.child)
            initial, hinted = self._initial_for(expr, self._initial["project"])
            return self._finish_node(
                StagedProject(
                    child,
                    expr.attrs,
                    label=self._next_label("project"),
                    initial_selectivity=initial,
                    **self._common_kwargs(),
                ),
                hinted,
                expr,
            )
        if isinstance(expr, Join):
            left = self.build(expr.left)
            right = self.build(expr.right)
            initial, hinted = self._initial_for(expr, self._initial["join"])
            return self._finish_node(
                StagedJoin(
                    left,
                    right,
                    expr.on,
                    label=self._next_label("join"),
                    initial_selectivity=initial,
                    **self._common_kwargs(),
                ),
                hinted,
                expr,
            )
        if isinstance(expr, Intersect):
            left = self.build(expr.left)
            right = self.build(expr.right)
            default = self._initial.get(
                "intersect", 1.0 / max(left.space_points(), right.space_points())
            )
            initial, hinted = self._initial_for(expr, default)
            return self._finish_node(
                StagedIntersect(
                    left,
                    right,
                    label=self._next_label("intersect"),
                    initial_selectivity=initial,
                    **self._common_kwargs(),
                ),
                hinted,
                expr,
            )
        raise ExpressionError(
            f"non-SJIP node {type(expr).__name__} survived inclusion–exclusion"
        )
