"""The rule-based logical optimizer — phase 2 of query planning.

Planning a query is a three-phase pipeline:

1. **Logical IR** — the relational-algebra tree of
   :mod:`repro.relational.expression`, with a canonical, order-stable
   rendering (``canonical_str``/``structural_hash``) that gives
   semantically equal queries one identity;
2. **Rule-based optimization** (this package) — a fixpoint driver
   (:mod:`repro.planner.rewrite`) runs algebra-preserving rewrite rules
   (:mod:`repro.planner.rules`): selection fusion, predicate pushdown
   through joins and set operations, projection pruning, set-operation
   normalization, and selectivity-guided join-chain reordering. Outcomes
   of purely algebraic planning are memoized process-wide
   (:mod:`repro.planner.cache`);
3. **Physical lowering** — :class:`repro.engine.plan.StagedPlan` turns the
   tree it is given, node for node, into staged operator trees over shared
   sampling scans (:class:`repro.engine.physical.PhysicalPlanBuilder`).

Phase 2 is a step of ``Database``'s lowering: every session and every
``Database.plan`` lowers :func:`plan_logical`'s rewrite; there is no switch.
A :class:`~repro.engine.plan.StagedPlan` built by hand over the written
tree lowers it as written, as the pre-planner engine did.

``Database.explain(expr)`` surfaces what the planner did as a
:class:`~repro.planner.explain.PlanExplanation`: before/after trees, the
rule-application log, and per-stage predicted costs of both physical
plans. The same pricing routine backs the server's admission control, so
requests are admitted against the plan that will actually run.
"""

from __future__ import annotations

from repro.planner.cache import PlanCacheInfo
from repro.planner.explain import (
    NodeCost,
    PlanCosts,
    PlanExplanation,
    build_explanation,
    predicted_stage_costs,
    render_tree,
)
from repro.planner.rewrite import (
    PlannedQuery,
    optimize_expression,
    plan_logical,
)
from repro.planner.rules import (
    JoinChainReorder,
    PredicatePushdown,
    ProjectionPruning,
    RewriteContext,
    Rule,
    RuleApplication,
    SelectionFusion,
    SetOpNormalize,
    default_rules,
    reorder_is_safe,
)

__all__ = [
    "JoinChainReorder",
    "NodeCost",
    "PlanCacheInfo",
    "PlanCosts",
    "PlanExplanation",
    "PlannedQuery",
    "PredicatePushdown",
    "ProjectionPruning",
    "RewriteContext",
    "Rule",
    "RuleApplication",
    "SelectionFusion",
    "SetOpNormalize",
    "build_explanation",
    "default_rules",
    "optimize_expression",
    "plan_logical",
    "predicted_stage_costs",
    "render_tree",
    "reorder_is_safe",
]
