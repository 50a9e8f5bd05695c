"""The prototype DBMS facade — the library's main entry point.

:class:`Database` plays the role of ERAM: it owns the catalog and the
machine (cost profile), evaluates RA expressions exactly, and answers
``COUNT(E)`` queries under a time quota with the full staged machinery —
cluster sampling, run-time selectivity estimation, adaptive cost formulas,
and a pluggable time-control strategy / stopping criterion.

Typical use::

    db = Database(profile=MachineProfile.sun3_60(), seed=42)
    db.create_relation(
        "orders", [("id", "int"), ("qty", "int")],
        rows=((i, i % 50) for i in range(10_000)))
    result = db.estimate(
        rel("orders").where(cmp("qty", ">", 40)),
        quota=10.0,
        options=QueryOptions(strategy=OneAtATimeInterval(d_beta=24)),
    )
    print(result.summary())
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Attribute, Schema
from repro.catalog.types import AttributeType
from repro.core.options import DEFAULT_OPTIONS, QueryOptions
from repro.core.result import QueryResult
from repro.core.session import QuerySession
from repro.costmodel.model import CostModel
from repro.engine.plan import StagedPlan
from repro.errors import ReproError
from repro.estimation.aggregates import COUNT
from repro.observability.trace import NULL_SINK, PlanOptimized, RuleApplied, TraceSink
from repro.planner import rewrite as rewrite_module
from repro.relational.evaluator import ExactEvaluator
from repro.relational.expression import Expression
from repro.storage.heapfile import DEFAULT_BLOCK_SIZE, HeapFile
from repro.timecontrol.executor import TimeConstrainedExecutor
from repro.timecontrol.strategies import DEFAULT_STRATEGY
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.clock import Clock, SimulatedClock, WallClock
from repro.timekeeping.profile import MachineProfile

if TYPE_CHECKING:
    from repro.planner.rewrite import PlannedQuery
    from repro.synopses.catalog import SynopsisCatalog

_TYPE_NAMES = {
    "int": AttributeType.INT,
    "float": AttributeType.FLOAT,
    "str": AttributeType.STR,
}


def _resolve_schema(
    spec: Schema | Sequence[tuple[str, str]],
) -> Schema:
    if isinstance(spec, Schema):
        return spec
    attributes = []
    for name, type_name in spec:
        if type_name not in _TYPE_NAMES:
            raise ReproError(
                f"unknown attribute type {type_name!r}; "
                f"choose from {sorted(_TYPE_NAMES)}"
            )
        attributes.append(Attribute(name, _TYPE_NAMES[type_name]))
    return Schema(tuple(attributes))


def _bundle(options: QueryOptions | None, overrides: dict) -> QueryOptions:
    """``options`` (all defaults when ``None``) with ``overrides`` applied;
    a copy is made only when there are overrides."""
    opts = options if options is not None else DEFAULT_OPTIONS
    return opts.replace(**overrides) if overrides else opts


def _emit_rewrites(sink: TraceSink, expr: Expression, planned: "PlannedQuery") -> None:
    """Trace the optimizer's rule log and its summary for ``expr``."""
    for app in planned.applications:
        sink.emit(RuleApplied(rule=app.rule, before=app.before, after=app.after))
    sink.emit(
        PlanOptimized(
            before_hash=expr.structural_hash(),
            after_hash=planned.expression.structural_hash(),
            rules=",".join(a.rule for a in planned.applications),
            rules_applied=len(planned.applications),
            cache_hit=planned.cache_hit,
            operators_before=expr.operator_count(),
            operators_after=planned.expression.operator_count(),
        )
    )


class Database:
    """An in-process time-constrained DBMS instance.

    Parameters
    ----------
    profile:
        The simulated machine (defaults to the calibrated SUN 3/60-class
        profile). Use :meth:`MachineProfile.modern` for millisecond quotas.
    seed:
        Master seed; every query derives an independent stream from it, so
        whole experiment batteries are reproducible.
    block_size:
        Disk block size in bytes (the paper's experiments use 1 KB).
    clock:
        ``"simulated"`` (default) charges deterministic virtual time;
        ``"wall"`` measures real elapsed time instead.
    """

    def __init__(
        self,
        profile: MachineProfile | None = None,
        seed: int | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        clock: str = "simulated",
        synopsis_catalog: "SynopsisCatalog | None" = None,
    ) -> None:
        if clock not in ("simulated", "wall"):
            raise ReproError(f"clock must be 'simulated' or 'wall': {clock!r}")
        self.profile = profile if profile is not None else MachineProfile.sun3_60()
        self.block_size = block_size
        self.clock_kind = clock
        self.catalog = Catalog()
        self.statistics: dict[str, "RelationStatistics"] = {}
        self._seed_sequence = np.random.SeedSequence(seed)
        if synopsis_catalog is None:
            from repro.synopses.catalog import SynopsisCatalog

            # One catalog per Database by default: keys embed relation-size
            # fingerprints so *sharing* one (synopsis_catalog=) is sound,
            # but independent databases should not see each other's runs.
            synopsis_catalog = SynopsisCatalog()
        self.synopses = synopsis_catalog

    # ------------------------------------------------------------------
    # Relation management
    # ------------------------------------------------------------------
    def create_relation(
        self,
        name: str,
        schema: Schema | Sequence[tuple[str, str]],
        rows: Iterable[Sequence],
        block_size: int | None = None,
        partitions: int | None = None,
        partition_strategy: str = "round_robin",
    ) -> HeapFile:
        """Create and bulk-load a stored relation.

        ``partitions=K`` (K >= 1) stores the relation as a
        :class:`~repro.storage.partitioned.PartitionedHeapFile`: the same
        blocks, each labelled with one of K shards by arithmetic on its
        block id (``partition_strategy`` is ``"round_robin"`` or
        ``"hash"``). The label is read only by ``FaultPlan.fail_shards``
        and the ``shard_scan_started`` / ``shard_merged`` trace events;
        every sample, estimate and charged cost is bit-identical to the
        unpartitioned relation (invariant 10).
        """
        if partitions is not None and partitions >= 1:
            from repro.storage.partitioned import PartitionedHeapFile

            heap: HeapFile = PartitionedHeapFile(
                name,
                _resolve_schema(schema),
                block_size or self.block_size,
                partitions=partitions,
                strategy=partition_strategy,
            )
        elif partitions is not None:
            raise ReproError(f"partitions must be >= 1: {partitions}")
        else:
            heap = HeapFile(
                name, _resolve_schema(schema), block_size or self.block_size
            )
        heap.load(rows)
        self.catalog.register(name, heap)
        return heap

    def append_rows(self, name: str, rows: Iterable[Sequence]) -> int:
        """Append rows to a stored relation (a committed write).

        Grows the heap file in place and invalidates everything derived
        from the old contents: the plan cache's entries fingerprinted over
        this relation, its prestored statistics (the paper's maintenance
        burden — re-run :meth:`analyze`) and the synopsis catalog's entries
        over it. Returns the number of rows appended. This is what
        :mod:`repro.realtime` write transactions call on commit.
        """
        heap = self.catalog.get(name)
        before = heap.tuple_count
        heap.load(rows)
        self._on_relation_mutated(name)
        return heap.tuple_count - before

    def drop_relation(self, name: str) -> None:
        self.catalog.drop(name)
        self._on_relation_mutated(name)

    def _on_relation_mutated(self, name: str) -> None:
        """Committed mutation of ``name``: drop every derived artifact.

        One breath evicts every derived layer: plan-cache entries
        fingerprinted over the relation, its prestored statistics and the
        synopsis catalog's entries. Realtime :class:`~repro.realtime.transaction.WriteTask` commits
        land here too, via :meth:`append_rows`.
        """
        from repro.planner.cache import invalidate_plan_cache_relation

        invalidate_plan_cache_relation(name)
        self.statistics.pop(name, None)
        self.synopses.invalidate_relation(name)

    def relation(self, name: str) -> HeapFile:
        return self.catalog.get(name)

    def analyze(self, name: str | None = None, buckets: int = 32) -> None:
        """Build prestored statistics (equi-depth histograms) offline.

        ``name=None`` analyzes every relation. Required before using
        ``selectivity_source='prestored'`` or ``'hybrid'`` in
        :meth:`estimate`; re-run after data changes (the maintenance
        burden the paper holds against the prestored approach).
        """
        from repro.statistics.stats import analyze as analyze_relation

        names = [name] if name is not None else self.catalog.names()
        for relation_name in names:
            self.statistics[relation_name] = analyze_relation(
                self.catalog.get(relation_name), buckets=buckets
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _spawn_rng(self, seed: int | None) -> np.random.Generator:
        if seed is not None:
            return np.random.default_rng(seed)
        child = self._seed_sequence.spawn(1)[0]
        return np.random.default_rng(child)

    def _make_charger(
        self,
        rng: np.random.Generator,
        sink: TraceSink | None = None,
        trace_costs: bool = False,
        clock: Clock | None = None,
    ) -> CostCharger:
        if clock is None:
            clock = (
                SimulatedClock() if self.clock_kind == "simulated" else WallClock()
            )
        return CostCharger(
            self.profile, clock=clock, rng=rng, sink=sink, trace_costs=trace_costs
        )

    def _default_specs(self):
        """Designer cost-model priors for this machine class.

        The priors keep the deliberate 2–3× pessimism of the paper's
        initialisation but are scaled to the machine generation, the way
        the paper's designers calibrated theirs on their own hardware
        (Section 5). The scale is read off one public datum — the machine's
        block-read rate relative to the reference sun3_60 profile — not the
        full profile, which the controller never sees.
        """
        from repro.costmodel.steps import default_step_specs
        from repro.timekeeping.profile import CostKind

        reference = MachineProfile.sun3_60().rate(CostKind.BLOCK_READ)
        scale = self.profile.rate(CostKind.BLOCK_READ) / reference
        if scale <= 0:
            scale = 1.0  # zero-cost test profiles keep reference priors
        return default_step_specs(prior_scale=scale)

    def default_cost_model(self) -> CostModel:
        """A fresh adaptive cost model seeded with this machine's priors.

        Each session normally builds its own; a caller that wants one model
        calibrated *across* runs (e.g. :class:`repro.server.QueryServer`,
        which prices admission decisions with knowledge accumulated from
        every query it has executed) creates one here and passes it to
        :meth:`open_session` via ``cost_model=``.
        """
        return CostModel(specs=self._default_specs())

    # ------------------------------------------------------------------
    # Exact evaluation
    # ------------------------------------------------------------------
    def count(self, expr: Expression) -> int:
        """Exact COUNT(E), free of charge (the correctness oracle)."""
        free_profile = MachineProfile.uniform(0.0)
        charger = CostCharger(free_profile)
        return ExactEvaluator(self.catalog, charger, self.block_size).count(expr)

    def aggregate(self, expr: Expression, spec: "AggregateSpec") -> float:
        """Exact f(E) for COUNT / SUM(attr) / AVG(attr), free of charge."""
        from repro.estimation.aggregates import AggregateSpec  # noqa: F401
        from repro.relational.evaluator import rows_exact

        if spec.kind == "count":
            return float(self.count(expr))
        schema = expr.schema(self.catalog)
        index = schema.index_of(spec.attribute)
        rows = rows_exact(expr, self.catalog)
        total = float(sum(row[index] for row in rows))
        if spec.kind == "sum":
            return total
        if not rows:
            return 0.0
        return total / len(rows)

    def count_timed(self, expr: Expression, seed: int | None = None) -> tuple[int, float]:
        """Exact COUNT(E) and the simulated seconds it costs on this machine.

        The baseline a time quota is traded against: the same operator
        algorithms over the full relations instead of samples.
        """
        charger = self._make_charger(self._spawn_rng(seed))
        start = charger.clock.now()
        value = ExactEvaluator(self.catalog, charger, self.block_size).count(expr)
        return value, charger.clock.now() - start

    # ------------------------------------------------------------------
    # Time-constrained estimation — the paper's contribution
    # ------------------------------------------------------------------
    def open_session(
        self,
        expr: Expression,
        quota: float,
        options: QueryOptions | None = None,
        *,
        aggregate: "AggregateSpec | None" = None,
        seed: int | None = None,
        **overrides,
    ) -> QuerySession:
        """Open a :class:`QuerySession` for one time-constrained run.

        The session owns every piece of per-run mutable state — the spawned
        RNG stream, the cost charger and its clock, the adaptive cost model,
        the staged plan, and the trace sink — so sessions are fully
        independent of each other.

        Configuration lives in ``options`` (a :class:`QueryOptions` bundle);
        any option field may also be passed directly as a keyword
        (``strategy=...``, ``sink=...``, ``fault_plan=...``) and overrides
        the bundle. ``aggregate`` and ``seed`` identify the query and the
        run, so they stay per-call rather than joining the bundle.

        Notable options: ``clock`` places several sessions on one shared
        timeline (how :class:`repro.server.QueryServer` multiplexes
        deadline-bound queries over one simulated machine — such sessions
        must run serially); ``trace_costs=True`` emits one event per primitive
        cost charge; ``fault_plan`` arms deterministic fault injection
        (see :mod:`repro.faults`).

        Call :meth:`QuerySession.run` to execute; or use the
        :meth:`estimate` one-shot convenience.
        """
        opts = _bundle(options, overrides)
        plan, _ = self._lower(expr, opts, aggregate, run=True, seed=seed)
        strategy = opts.strategy if opts.strategy is not None else DEFAULT_STRATEGY
        executor = TimeConstrainedExecutor(plan, strategy, opts)
        return QuerySession(expr, quota, plan, executor, plan.binder)

    def plan(
        self,
        expr: Expression,
        options: QueryOptions | None = None,
        *,
        aggregate: "AggregateSpec | None" = None,
        **overrides,
    ) -> StagedPlan:
        """Lower ``expr`` exactly as :meth:`open_session` would, to price it.

        Same hint check, synopsis warm start, optimizer, plan cache and cost
        model, but no RNG stream (the seed sequence is untouched), charger
        or injector: the plan is priced and explained, never run
        (``advance_stage`` raises :class:`ReproError`).
        """
        return self._lower(expr, _bundle(options, overrides), aggregate, run=False)[0]

    def _lower(
        self, expr: Expression, opts: QueryOptions, aggregate, run: bool, seed=None,
        rewrite: bool = True,
    ) -> tuple[StagedPlan, "PlannedQuery | None"]:
        """Lower ``expr``; a plan to ``run`` also gets its RNG stream (spawned
        after the hint check), charger and fault injector. The query is then
        validated, rewritten (phase 2; ``rewrite=False`` only for
        :meth:`explain`'s as-written plan) and lowered node for node."""
        hint_provider = None
        if opts.selectivity_source in ("hybrid", "prestored"):
            from repro.statistics.prestored import SelectivityHinter

            hinter = SelectivityHinter(self.statistics, self.catalog)
            hinter.require_statistics(expr)
            hint_provider = hinter.hint

        sink = opts.sink if opts.sink is not None else NULL_SINK
        binder = None
        if opts.synopses:
            from repro.synopses.binder import SynopsisBinder

            binder = SynopsisBinder(
                self.synopses, self.catalog, sink=sink, counted=run
            )
        rng = charger = injector = None
        if run:
            rng = self._spawn_rng(seed)
            if opts.fault_plan is not None and opts.fault_plan.active:
                from repro.faults.injector import FaultInjector

                injector = FaultInjector.for_session(opts.fault_plan, rng, sink)
            charger = self._make_charger(
                rng, sink=sink, trace_costs=opts.trace_costs, clock=opts.clock
            )
        planned = None
        if rewrite:
            expr.schema(self.catalog)  # a malformed query fails before rewriting
            # Read off the module per call: that attribute is what a tracer wraps.
            planned = rewrite_module.plan_logical(expr, self.catalog, hint_provider)
            if planned.applications and sink is not NULL_SINK:
                _emit_rewrites(sink, expr, planned)
            expr = planned.expression
        plan = StagedPlan(
            expr,
            self.catalog,
            charger,
            opts.cost_model or self.default_cost_model(),
            rng,
            opts,
            aggregate=aggregate if aggregate is not None else COUNT,
            block_size=self.block_size,
            hint_provider=hint_provider,
            injector=injector,
            binder=binder,
        )
        return plan, planned

    def explain(
        self,
        expr: Expression,
        options: QueryOptions | None = None,
        *,
        aggregate: "AggregateSpec | None" = None,
        **overrides,
    ) -> "PlanExplanation":
        """What the planner would do with ``expr`` — without running it.

        Lowers two plans over the live catalog like :meth:`plan` — one over
        the tree as written, one over the optimizer's rewrite — and returns
        a :class:`~repro.planner.explain.PlanExplanation`: the before/after
        logical trees, the rule-application log, and the cost model's
        predicted price of each plan's cheapest useful stage (the same
        number the server's admission control rules on). Neither plan can
        run, so explaining charges nothing to any clock::

            print(db.explain(expr).render())

        ``options``/``overrides`` configure the plans like
        :meth:`open_session` (e.g. ``selectivity_source='hybrid'`` explains
        with prestored hints).
        """
        from repro.planner.explain import build_explanation

        opts = _bundle(options, overrides)
        before, _ = self._lower(expr, opts, aggregate, run=False, rewrite=False)
        after, planned = self._lower(expr, opts, aggregate, run=False)
        return build_explanation(before, after, planned)

    def estimate(
        self,
        expr: Expression,
        agg: "AggregateSpec | None" = None,
        *,
        quota: float,
        seed: int | None = None,
        options: QueryOptions | None = None,
        **overrides,
    ) -> QueryResult:
        """Estimate ``agg(E)`` within ``quota`` seconds — the one entrypoint.

        ``agg`` is an :class:`~repro.estimation.aggregates.AggregateSpec`
        built with :func:`~repro.estimation.aggregates.count` (the default),
        :func:`~repro.estimation.aggregates.sum_of`, or
        :func:`~repro.estimation.aggregates.avg_of`. Configuration comes
        from ``options`` (a :class:`QueryOptions`) and/or direct keyword
        overrides; ``seed`` pins the run's RNG stream for replay::

            db.estimate(expr, quota=10.0)                       # COUNT
            db.estimate(expr, sum_of("qty"), quota=10.0,
                        options=QueryOptions(selectivity_source="hybrid"))

        ``measure_overspend=True`` (the default) reproduces ERAM's
        measurement mode — an overspending stage runs to completion and is
        reported; set it ``False`` for live hard-deadline semantics
        (mid-stage interrupt). Equivalent to
        ``open_session(expr, quota, options, aggregate=agg, seed=seed,
        **overrides).run()``.
        """
        # An unknown override (``aggregate=`` too) is refused here.
        options = _bundle(options, overrides)
        return self.open_session(expr, quota, options, aggregate=agg, seed=seed).run()
