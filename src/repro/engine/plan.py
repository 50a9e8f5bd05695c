"""Staged query plans — wiring expressions to the staged engine.

A :class:`StagedPlan` lowers exactly the expression it is handed, node for
node: it turns ``COUNT(E)`` into its inclusion–exclusion terms, lowers each
term through :class:`~repro.engine.physical.PhysicalPlanBuilder` into a
staged operator tree over **shared** per-relation scans, and exposes the
three operations the time-constrained executor needs:

* :meth:`stage_curve` — price candidate sample fractions with the
  adaptive cost model (the ``QCOST(f, SEL⁺)`` of Section 3.3, summed over
  terms, shared scans priced once), constants taken once per curve;
  :meth:`predict_stage` is its one-point case;
* :meth:`advance_stage` — execute one stage over fresh sample blocks;
* :meth:`estimate` — the current ``COUNT(E)`` estimate: per term the SRS
  point-space estimator ``û`` (or the revised Goodman estimator when the
  term's root is a projection), combined with the terms' ± coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.catalog.catalog import Catalog
from repro.costmodel.model import CostModel
from repro.engine.nodes import (
    SelProvider,
    StageCurve,
    StagedNode,
    StagedProject,
    StagedScan,
)
from repro.engine.physical import (
    DEFAULT_INITIAL_SELECTIVITY,
    PhysicalPlanBuilder,
)
from repro.errors import EstimationError, ReproError
from repro.estimation.aggregates import (
    COUNT,
    AggregateSpec,
    StreamingMoments,
    avg_from_sum_count,
    srs_sum_estimate,
)
from repro.estimation.count_estimators import (
    combine_term_estimates,
    srs_count_estimate,
)
from repro.estimation.estimate import Estimate
from repro.estimation.goodman import goodman_estimate
from repro.estimation.selectivity import SelectivityTracker
from repro.observability.trace import (
    NULL_SINK,
    NullSink,
    OperatorAdvance,
    ScanAdvance,
    TraceSink,
)
from repro.relational.expression import Expression
from repro.relational.inclusion_exclusion import expand_count
from repro.sampling.point_space import PointSpace
from repro.storage.events import ShardMerged, ShardScanStarted
from repro.storage.heapfile import DEFAULT_BLOCK_SIZE
from repro.timekeeping.charger import CostCharger

if TYPE_CHECKING:
    from repro.core.options import QueryOptions
    from repro.faults.injector import FaultInjector
    from repro.synopses.binder import SynopsisBinder

__all__ = [
    "DEFAULT_INITIAL_SELECTIVITY",  # re-exported from repro.engine.physical
    "PhysicalPlanBuilder",
    "StagedPlan",
    "StagedTerm",
    "StageStats",
]


@dataclass
class StagedTerm:
    """One signed SJIP term with its staged tree and point space."""

    coefficient: int
    root: StagedNode
    space: PointSpace
    value_index: int | None = None
    moments: StreamingMoments = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.moments is None:
            self.moments = StreamingMoments()

    def sum_estimate(self) -> Estimate:
        """Current SUM estimate of this term alone."""
        if self.root.points_so_far == 0:
            raise EstimationError("no stages completed yet")
        return srs_sum_estimate(
            self.space.total_points, self.root.points_so_far, self.moments
        )

    def estimate(self, rng: np.random.Generator | None = None) -> Estimate:
        """Current COUNT estimate of this term alone."""
        root = self.root
        if isinstance(root, StagedProject):
            return self._project_estimate(root, rng)
        if root.points_so_far == 0:
            raise EstimationError("no stages completed yet")
        return srs_count_estimate(
            self.space.total_points, root.points_so_far, root.cum_out_tuples
        )

    def _project_estimate(
        self, root: StagedProject, rng: np.random.Generator | None
    ) -> Estimate:
        points = root.points_so_far
        if points == 0:
            raise EstimationError("no stages completed yet")
        ones = root.child.ledger.total_tuples  # every 1-point seen so far
        if ones == 0:
            return Estimate(
                value=0.0,
                variance=0.0,
                sample_points=points,
                population_points=self.space.total_points,
                exact=points == self.space.total_points,
            )
        # Estimate the 1-point population, then the classes within it.
        ones_total = srs_count_estimate(self.space.total_points, points, ones)
        population = max(int(round(ones_total.value)), ones)
        return goodman_estimate(
            population, ones, list(root.occupancy.values()), rng=rng
        )


@dataclass
class StageStats:
    """Execution record of one completed stage of a plan."""

    stage: int
    fraction: float
    blocks_read: int
    new_points: int
    new_outputs: int


class StagedPlan:
    """The staged, multi-term evaluation plan of one COUNT query.

    Every knob comes from ``options`` (``None`` is ``QueryOptions()``); the
    keywords are the query's aggregate and the objects a session wires in.
    ``expr`` is lowered node for node: to lower what a session would, pass
    ``plan_logical(expr, catalog).expression`` (:mod:`repro.planner`).
    A plan built with ``rng=None`` (and no charger) can be priced and
    explained but not run: its scans hold no block order.
    """

    def __init__(
        self,
        expr: Expression,
        catalog: Catalog,
        charger: CostCharger | None,
        cost_model: CostModel,
        rng: np.random.Generator | None,
        options: "QueryOptions | None" = None,
        *,
        aggregate: AggregateSpec = COUNT,
        block_size: int = DEFAULT_BLOCK_SIZE,
        hint_provider=None,
        injector: "FaultInjector | None" = None,
        binder: "SynopsisBinder | None" = None,
    ) -> None:
        if options is None:
            from repro.core.options import DEFAULT_OPTIONS as options
        self.expr = expr
        self.sink: TraceSink = (
            options.sink if options.sink is not None else NULL_SINK
        )
        self.injector = injector
        self.aggregate = aggregate
        self.catalog = catalog
        self.charger = charger
        self.cost_model = cost_model
        self.rng = rng
        self.block_size = block_size

        expr.schema(catalog)  # validate the query up front
        # Phase 3 — physical lowering over shared scans, node for node.
        self._builder = PhysicalPlanBuilder(
            catalog,
            charger,
            cost_model,
            rng,
            options,
            block_size=block_size,
            injector=injector,
            hint_provider=hint_provider,
            binder=binder,
        )
        self.binder = binder
        self.spool = self._builder.spool
        self.terms: list[StagedTerm] = []
        if aggregate.needs_values and expr.contains_projection():
            raise EstimationError(
                f"{aggregate.kind.upper()} over a projection is undefined "
                "(the population becomes groups, not tuples); aggregate "
                "before projecting or use COUNT"
            )
        for count_term in expand_count(expr):
            root = self._builder.build(count_term.expression)
            scans = root.base_scans()
            space = PointSpace(
                relation_names=tuple(s.relation.name for s in scans),
                tuple_counts=tuple(s.relation.tuple_count for s in scans),
                block_counts=tuple(s.relation.block_count for s in scans),
            )
            value_index = (
                root.schema.index_of(aggregate.attribute)
                if aggregate.needs_values
                else None
            )
            self.terms.append(
                StagedTerm(
                    count_term.coefficient, root, space, value_index=value_index
                )
            )
        # The tree never changes after lowering: its distinct nodes, in tree
        # order (scans, shared between terms, at their first reference).
        self.nodes: list[StagedNode] = list(
            {
                id(node): node
                for term in self.terms
                for node in term.root.iter_nodes()
            }.values()
        )
        # ... and in pricing order: children first, shared nodes at first use.
        self._pricing_order: list[StagedNode] = list(
            {id(n): n for term in self.terms for n in term.root.post_order()}.values()
        )
        # D_max, the unit of a stage size (fixed: a plan's relations are).
        self.max_block_count = max(
            (scan.relation.block_count for scan in self.scans), default=0
        )
        for tracker in self.trackers():
            if options.zero_fix_beta is not None:
                tracker.zero_fix_beta = options.zero_fix_beta
            if not isinstance(self.sink, NullSink):
                tracker.sink = self.sink
        self.stages_completed = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def scans(self) -> list[StagedScan]:
        return self._builder.scans

    def tracked_nodes(self) -> list[StagedNode]:
        """The operator nodes (each owns its tracker), in tree order."""
        return [node for node in self.nodes if node.tracker is not None]

    def trackers(self) -> list[SelectivityTracker]:
        """All operator selectivity trackers, deduplicated, tree order."""
        return [node.tracker for node in self.tracked_nodes()]

    def blocks_drawn(self) -> int:
        return sum(scan.blocks_drawn for scan in self.scans)

    def all_exhausted(self) -> bool:
        return all(scan.exhausted for scan in self.scans)

    def max_remaining_fraction(self) -> float:
        """The largest per-relation fraction left."""
        fractions = [
            scan.sampler.remaining_blocks / scan.relation.block_count
            for scan in self.scans
            if scan.relation.block_count
        ]
        return max(fractions, default=0.0)

    def min_feasible_fraction(self) -> float:
        """Fraction that draws at least one new block somewhere."""
        fractions = [
            1.0 / scan.relation.block_count
            for scan in self.scans
            if not scan.exhausted
        ]
        return min(fractions, default=0.0)

    def max_stage_size(self) -> int:
        """``k_max``: the stage size at which every scan draws all it has left.

        A stage of size ``k`` is ``k`` blocks of the largest operand,
        ``f = k / max_block_count``; a scan over ``D`` blocks with ``r`` left
        draws all ``r`` once ``k·D / max_block_count ≥ r``. 0 when every
        scan is exhausted.
        """
        unit = self.max_block_count
        return max(
            (
                -(-scan.sampler.remaining_blocks * unit // scan.relation.block_count)
                for scan in self.scans
                if scan.relation.block_count
            ),
            default=0,
        )

    # ------------------------------------------------------------------
    # Controller operations
    # ------------------------------------------------------------------
    def stage_curve(self, sel_provider: SelProvider) -> StageCurve:
        """``f -> QCOST(f, SEL)`` of the next stage across all terms (seconds),
        for one sizing decision: counts and coefficients are read now."""
        return StageCurve(self._pricing_order, sel_provider)

    def predict_stage(self, fraction: float, sel_provider: SelProvider) -> float:
        """``QCOST(f, SEL)`` of the next stage across all terms (seconds)."""
        return self.stage_curve(sel_provider)(fraction)

    def advance_stage(self, fraction: float) -> StageStats:
        """Execute the next stage at ``fraction``; returns its statistics."""
        if self.rng is None:
            raise ReproError("a plan built without an RNG is priced, not run")
        if fraction <= 0:
            raise EstimationError(f"stage fraction must be positive: {fraction}")
        stage = self.stages_completed + 1
        trace = not isinstance(self.sink, NullSink)
        blocks_before = self.blocks_drawn()
        for scan in self.scans:
            scan_blocks_before = scan.blocks_drawn
            scan.advance(stage, fraction)
            if trace:
                # Shard events precede the ScanAdvance they break down.
                # They appear only for partitioned relations — invariant 10
                # pins everything else in the trace, not these events.
                if scan.last_shard_stats:
                    for shard_stat in scan.last_shard_stats:
                        self.sink.emit(
                            ShardScanStarted(
                                relation=scan.relation.name,
                                shard=shard_stat.shard,
                                stage=stage,
                                blocks=shard_stat.blocks,
                                tuples=shard_stat.tuples,
                            )
                        )
                    self.sink.emit(
                        ShardMerged(
                            relation=scan.relation.name,
                            stage=stage,
                            shards=len(scan.last_shard_stats),
                            blocks=scan.blocks_drawn - scan_blocks_before,
                            tuples=scan.new_tuples,
                        )
                    )
                self.sink.emit(
                    ScanAdvance(
                        stage=stage,
                        relation=scan.relation.name,
                        new_blocks=scan.blocks_drawn - scan_blocks_before,
                        new_tuples=scan.new_tuples,
                        cum_blocks=scan.blocks_drawn,
                        cum_tuples=scan.cum_tuples,
                    )
                )
        new_outputs = 0
        new_points = 0
        for term in self.terms:
            new_rows = term.root.advance(stage)
            if term.value_index is not None:
                term.moments.add_many(row[term.value_index] for row in new_rows)
            if trace:
                # Per term: these interleave with its SelectivityRevisions.
                for node in term.root.iter_nodes():
                    if node.tracker is None:  # a scan: ScanAdvance, above
                        continue
                    ledger = node.ledger
                    self.sink.emit(
                        OperatorAdvance(
                            stage=stage,
                            operator=node.tracker.label,
                            out_tuples=ledger.last.tuples,
                            new_points=ledger.last.points,
                            cum_out_tuples=ledger.total_tuples,
                            cum_points=ledger.total_points,
                        )
                    )
            if term.root.tracker is not None:
                # A bare-relation term has always counted nothing here: its
                # tuples are the stage's ScanAdvance, not operator output.
                new_points += term.root.ledger.last.points
                new_outputs += term.root.ledger.last.tuples
        self.stages_completed = stage
        return StageStats(
            stage=stage,
            fraction=fraction,
            blocks_read=self.blocks_drawn() - blocks_before,
            new_points=new_points,
            new_outputs=new_outputs,
        )

    # ------------------------------------------------------------------
    # Salvage support (fault injection)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the plan's full logical state at a stage boundary.

        Taken by the executor before each stage attempt when a fault
        injector is active. Everything an estimator reads rolls back on
        :meth:`restore` — node ledgers, sampler cursors, consolidated runs,
        the spool gauge, term moments — while everything *physical* stays:
        charged time, the cost model's observations, and already-emitted
        trace events are the true record of work the fault wasted.
        """
        return {
            "stages_completed": self.stages_completed,
            "spool": self.spool.snapshot(),
            "nodes": [(node, node.snapshot()) for node in self.nodes],
            "moments": [
                (t.moments.ones, t.moments.total, t.moments.total_sq)
                for t in self.terms
            ],
        }

    def restore(self, token: dict) -> None:
        """Roll back to a :meth:`snapshot` token (discard a faulted stage)."""
        for node, node_token in token["nodes"]:
            node.restore(node_token)
        self.spool.restore(token["spool"])
        self.stages_completed = token["stages_completed"]
        for term, (ones, total, total_sq) in zip(self.terms, token["moments"]):
            term.moments.ones = ones
            term.moments.total = total
            term.moments.total_sq = total_sq

    def estimate(self) -> Estimate:
        """Current combined f(E) estimate (per the configured aggregate)."""
        if self.aggregate.kind == "count":
            return self._count_estimate()
        if self.aggregate.kind == "sum":
            return self._sum_estimate()
        return self._avg_estimate()

    def _count_estimate(self) -> Estimate:
        pairs = [(t.coefficient, t.estimate(self.rng)) for t in self.terms]
        if len(pairs) == 1 and pairs[0][0] == 1:
            return pairs[0][1]
        return combine_term_estimates(pairs)

    def _sum_estimate(self) -> Estimate:
        pairs = [(t.coefficient, t.sum_estimate()) for t in self.terms]
        if len(pairs) == 1 and pairs[0][0] == 1:
            return pairs[0][1]
        return combine_term_estimates(pairs)

    def _avg_estimate(self) -> Estimate:
        count = self._count_estimate()
        total = self._sum_estimate()
        merged = StreamingMoments()
        for term in self.terms:
            merged.merge(term.moments.scaled(term.coefficient))
        return avg_from_sum_count(total, count, merged)
