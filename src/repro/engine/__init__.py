"""Staged estimator-evaluation engine (full/partial fulfillment plans)."""

from repro.engine.nodes import (
    SelCurves,
    StageCurve,
    StagedIntersect,
    StagedJoin,
    StagedNode,
    StagedProject,
    StagedScan,
    StagedSelect,
)
from repro.engine.plan import (
    DEFAULT_INITIAL_SELECTIVITY,
    StagedPlan,
    StagedTerm,
    StageStats,
)

__all__ = [
    "DEFAULT_INITIAL_SELECTIVITY",
    "SelCurves",
    "StageCurve",
    "StageStats",
    "StagedIntersect",
    "StagedJoin",
    "StagedNode",
    "StagedPlan",
    "StagedProject",
    "StagedScan",
    "StagedSelect",
    "StagedTerm",
]
