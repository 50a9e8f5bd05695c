"""repro — time-constrained aggregate relational query processing.

A full reproduction of Hou, Ozsoyoglu & Taneja, *Processing Aggregate
Relational Queries with Hard Time Constraints* (SIGMOD 1989): a prototype
DBMS that answers ``COUNT(E)`` queries within a hard time quota by staged
cluster sampling, run-time selectivity estimation, adaptive time-cost
formulas, and statistical time-control strategies.

Quickstart::

    from repro import Database, MachineProfile, rel, cmp

    db = Database(profile=MachineProfile.sun3_60(), seed=7)
    db.create_relation("r1", [("id", "int"), ("a", "int")],
                       rows=[(i, i % 100) for i in range(10_000)])
    result = db.estimate(rel("r1").where(cmp("a", "<", 50)), quota=10.0)
    print(result.estimate, result.confidence_interval(0.95))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every reproduced table.
"""

from repro import caches
from repro.catalog import Attribute, AttributeType, Catalog, Schema
from repro.core import (
    DEFAULT_OPTIONS,
    Database,
    QueryOptions,
    QueryResult,
    QuerySession,
)
from repro.costmodel import CostModel
from repro.errors import (
    CatalogError,
    CostModelError,
    EstimationError,
    ExpressionError,
    InjectedFault,
    QuotaExpired,
    ReproError,
    SamplingExhausted,
    SchemaError,
    StorageError,
    TimeControlError,
)
from repro.estimation import AggregateSpec, Estimate, avg_of, count, sum_of
from repro.faults import (
    FaultInjected,
    FaultInjector,
    FaultPlan,
    FaultRecord,
    FaultSalvaged,
)
from repro.kernels import KernelCacheInfo
from repro.observability import (
    JsonlSink,
    NullSink,
    RecordingSink,
    TeeSink,
    TraceEvent,
    TraceSink,
)
from repro.planner import PlanExplanation, RuleApplication
from repro.relational import (
    attr,
    cmp,
    count_exact,
    difference,
    expand_count,
    intersect,
    join,
    project,
    rel,
    select,
    union,
)
from repro.storage.bufferpool import (
    BufferPool,
    BufferPoolInfo,
    PooledBatch,
    default_pool,
    invalidate_bufferpool_relation,
)
from repro.storage.events import (
    BufferEvicted,
    BufferHit,
    BufferInvalidated,
    ShardMerged,
    ShardScanStarted,
)
from repro.storage.partitioned import PartitionedHeapFile
from repro.synopses import (
    SynopsisBinder,
    SynopsisCatalog,
    SynopsisHit,
    SynopsisInvalidated,
    SynopsisRefreshed,
)
from repro.timecontrol import (
    AnyOf,
    ErrorConstrained,
    FixedFractionHeuristic,
    HardDeadline,
    OneAtATimeInterval,
    RunReport,
    SingleInterval,
    SoftDeadline,
    TimeConstrainedExecutor,
)
from repro.timekeeping import (
    Clock,
    CostCharger,
    CostKind,
    MachineProfile,
    SimulatedClock,
    WallClock,
)

__version__ = "1.0.0"

__all__ = [
    "AnyOf",
    "Attribute",
    "AttributeType",
    "BufferEvicted",
    "BufferHit",
    "BufferInvalidated",
    "BufferPool",
    "BufferPoolInfo",
    "Catalog",
    "CatalogError",
    "Clock",
    "CostModel",
    "Database",
    "AggregateSpec",
    "DEFAULT_OPTIONS",
    "Estimate",
    "ErrorConstrained",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "FaultSalvaged",
    "FixedFractionHeuristic",
    "HardDeadline",
    "InjectedFault",
    "JsonlSink",
    "KernelCacheInfo",
    "NullSink",
    "OneAtATimeInterval",
    "PartitionedHeapFile",
    "PlanExplanation",
    "PooledBatch",
    "QueryOptions",
    "QueryResult",
    "QuerySession",
    "RecordingSink",
    "RuleApplication",
    "RunReport",
    "ShardMerged",
    "ShardScanStarted",
    "TeeSink",
    "TraceEvent",
    "TraceSink",
    "SingleInterval",
    "SoftDeadline",
    "SynopsisBinder",
    "SynopsisCatalog",
    "SynopsisHit",
    "SynopsisInvalidated",
    "SynopsisRefreshed",
    "TimeConstrainedExecutor",
    "CostCharger",
    "CostKind",
    "CostModelError",
    "EstimationError",
    "ExpressionError",
    "MachineProfile",
    "QuotaExpired",
    "ReproError",
    "SamplingExhausted",
    "Schema",
    "SchemaError",
    "SimulatedClock",
    "StorageError",
    "TimeControlError",
    "WallClock",
    "attr",
    "avg_of",
    "caches",
    "cmp",
    "count",
    "count_exact",
    "default_pool",
    "difference",
    "expand_count",
    "intersect",
    "invalidate_bufferpool_relation",
    "join",
    "project",
    "rel",
    "select",
    "sum_of",
    "union",
    "__version__",
]
