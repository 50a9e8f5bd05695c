"""Plan explanation — before/after trees with predicted stage costs.

``Database.explain(expr)`` lowers two plans over the same data, like
``Database.plan`` — one over the tree as written, one over the optimizer's
rewrite — and renders what the planner did: the logical trees, the rule
applications, and the cost model's price of the cheapest useful stage of
each physical plan (stage overhead + ``QCOST`` at the minimum feasible
fraction, exactly the number admission control rules on). Such plans hold
no RNG and cannot run, so explaining a query charges nothing to any clock.

:func:`predicted_stage_costs` is also the single pricing routine behind
:func:`repro.server.admission.minimum_stage_cost` — the server admits
against the plan it will actually execute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.costmodel import steps as step_names
from repro.engine.nodes import MEAN_SELECTIVITY
from repro.planner.rules import RuleApplication
from repro.relational.expression import (
    Expression,
    Join,
    Project,
    RelationRef,
    Select,
)

if TYPE_CHECKING:
    from repro.engine.plan import StagedPlan
    from repro.planner.rewrite import PlannedQuery


def _label(node: Expression) -> str:
    if isinstance(node, RelationRef):
        return node.name
    if isinstance(node, Select):
        return f"select [{node.predicate}]"
    if isinstance(node, Project):
        return f"project [{', '.join(node.attrs)}]"
    if isinstance(node, Join):
        pairs = ", ".join(f"{a}={b}" for a, b in node.on)
        return f"join [{pairs}]"
    return type(node).__name__.lower()


def render_tree(expr: Expression) -> str:
    """Box-drawing rendering of a logical expression tree."""
    lines: list[str] = []

    def visit(node: Expression, prefix: str, child_prefix: str) -> None:
        lines.append(prefix + _label(node))
        children = node.children()
        for i, child in enumerate(children):
            last = i == len(children) - 1
            visit(
                child,
                child_prefix + ("└─ " if last else "├─ "),
                child_prefix + ("   " if last else "│  "),
            )

    visit(expr, "", "")
    return "\n".join(lines)


@dataclass(frozen=True)
class NodeCost:
    """Predicted cost of one staged operator in the cheapest useful stage."""

    label: str
    seconds: float


@dataclass(frozen=True)
class PlanCosts:
    """Cost-model price of a plan's cheapest useful stage, itemized.

    ``fraction`` is the minimum feasible sample fraction (one new block on
    the smallest relation); ``qcost`` sums the per-node predictions (shared
    scans priced once); ``total`` adds the fixed stage overhead — the
    feasibility floor of :mod:`repro.server.admission`.
    """

    fraction: float
    stage_overhead: float
    qcost: float
    nodes: tuple[NodeCost, ...]

    @property
    def total(self) -> float:
        return self.stage_overhead + self.qcost


def predicted_stage_costs(plan: "StagedPlan") -> PlanCosts:
    """Price ``plan``'s cheapest useful stage with its own cost model.

    Uses initial selectivities (prestored hints when the plan has them,
    Figure 3.3's maximum otherwise; a synopsis posterior when warm-started,
    so admission sees the cheaper plan the run will execute) and itemizes
    per staged node. Pure prediction: nothing is charged, sampled, or
    mutated.
    """
    overhead = plan.cost_model.predict(step_names.STAGE_OVERHEAD, [1.0])
    fraction = plan.min_feasible_fraction()
    if fraction <= 0:  # nothing left to sample — only overhead remains
        return PlanCosts(0.0, overhead, 0.0, ())
    curve = plan.stage_curve(MEAN_SELECTIVITY)
    qcost, seconds, _ = curve.price(fraction)
    by_node = {id(node): s for node, s in zip(curve.nodes, seconds)}
    nodes = tuple(
        NodeCost(
            node.tracker.label
            if node.tracker is not None
            else f"scan({node.relation.name})",
            by_node[id(node)],
        )
        for node in plan.nodes
    )
    return PlanCosts(fraction, overhead, qcost, nodes)


@dataclass(frozen=True)
class PlanExplanation:
    """What the planner did to one query, renderable for humans.

    ``before``/``after`` are the logical trees entering and leaving the
    optimizer; ``applications`` the rule log in firing order;
    ``before_costs``/``after_costs`` the cheapest-stage prices of the two
    physical plans. ``optimized`` is False when no rule fired (the trees
    coincide), and ``cache_hit`` reports whether the after-tree came from
    the process-wide plan cache.
    """

    before: Expression
    after: Expression
    applications: tuple[RuleApplication, ...]
    cache_hit: bool
    before_costs: PlanCosts
    after_costs: PlanCosts

    @property
    def optimized(self) -> bool:
        return bool(self.applications)

    @property
    def predicted_speedup(self) -> float:
        """Cheapest-stage price ratio, verbatim / optimized (≥1 is a win)."""
        if self.after_costs.total <= 0:
            return 1.0
        return self.before_costs.total / self.after_costs.total

    def render(self) -> str:
        out = ["== logical plan (as written) =="]
        out.append(render_tree(self.before))
        out.append(f"predicted minimum stage: {self.before_costs.total:.6f}s")
        for node in self.before_costs.nodes:
            out.append(f"  {node.label:<24} {node.seconds:.6f}s")
        out.append("")
        out.append("== rewrites ==")
        if self.applications:
            for app in self.applications:
                out.append(f"{app.rule}: {app.before}")
                out.append(f"{'':>{len(app.rule)}}  -> {app.after}")
        else:
            out.append("(no rule fired)")
        if self.cache_hit:
            out.append("(logical plan served from cache)")
        out.append("")
        out.append("== logical plan (optimized) ==")
        out.append(render_tree(self.after))
        out.append(f"predicted minimum stage: {self.after_costs.total:.6f}s")
        for node in self.after_costs.nodes:
            out.append(f"  {node.label:<24} {node.seconds:.6f}s")
        out.append("")
        out.append(f"predicted cheapest-stage speedup: {self.predicted_speedup:.2f}x")
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()


def build_explanation(
    before_plan: "StagedPlan", after_plan: "StagedPlan", planned: "PlannedQuery"
) -> PlanExplanation:
    """Assemble a :class:`PlanExplanation` from the plan of the query as
    written and the plan of its rewrite ``planned`` (which holds the rule log)."""
    return PlanExplanation(
        before=before_plan.expr,
        after=after_plan.expr,
        applications=planned.applications,
        cache_hit=planned.cache_hit,
        before_costs=predicted_stage_costs(before_plan),
        after_costs=predicted_stage_costs(after_plan),
    )
