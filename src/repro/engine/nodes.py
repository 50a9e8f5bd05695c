"""Staged operator nodes — the estimator-evaluation engine.

These nodes execute one SJIP term of a COUNT query *stage by stage* over
growing block samples, implementing the paper's full-fulfillment cluster
sampling plan (Section 4, Figure 4.1): at stage ``s`` a binary operator
combines its children's **new** sample outputs with everything seen before —
``(F_1s ⋈ F_2s) ∪ (F_1s ⋈ F_2i)_{i<s} ∪ (F_1i ⋈ F_2s)_{i<s}`` — so after
``s`` stages the evaluated region is the full cross product of all sampled
tuples. Partial fulfillment ("less costly", [HoOT 88a]) merges only
new×new.

Every node also serves the *controller*:

* it counts its stages in one :class:`~repro.estimation.selectivity.
  StageLedger` — (output tuples, new points) per stage, "points" living in
  the node's own point space, the cross product of the base relations
  under it (Section 3.1's operator selectivity). An operator's ledger *is*
  its ``SelectivityTracker`` (Revise-Selectivities state), a scan owns a
  bare one, and no node keeps another count: a parent reads its children's;
* :meth:`pricer` prices its next stage for a :class:`StageCurve` with the
  adaptive :class:`~repro.costmodel.model.CostModel`, mirroring the per-step
  cost formulas (4.1)–(4.5) that the execution path actually charges;
* execution wraps each time-consuming step in ``charger.measure`` and feeds
  the measured seconds back into the cost model (the run-time coefficient
  adjustment of Section 4).

A stage crosses each node boundary as one value: ``advance(stage)`` returns
the node's new outputs as a :class:`~repro.kernels.columns.ColumnBatch`,
whose ``rows`` stay the authoritative data and whose columns decode lazily,
once. Scans are **shared**: when inclusion–exclusion expands a query into
several terms over the same base relation, one :class:`StagedScan` draws
each relation's blocks once per stage and hands every term the same batch,
as the paper's PIE evaluation does.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from repro.catalog.schema import Schema
from repro.costmodel import steps as step_names
from repro.costmodel.model import CostModel
from repro.errors import TimeControlError
from repro.estimation.selectivity import SelectivityTracker, StageLedger
from repro.kernels import runs as _kernels
from repro.kernels.cache import compiled_predicate
from repro.kernels.columns import ColumnBatch
from repro.relational.operators import (
    charge_external_sort,
    charge_merge,
    external_sort,
    project_rows,
    select_batch,
    whole_row_key,
)
from repro.relational.predicate import Predicate
from repro.sampling.sampler import BlockSampler, fraction_blocks
from repro.storage.block import Row
from repro.storage.heapfile import HeapFile
from repro.storage.partitioned import PartitionedHeapFile, ShardReadStats
from repro.storage.spool import Spool
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import CostKind

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

Pricer = Callable[[float, list, list], float]
"""``(f, outs, points) -> seconds``, appending new output tuples and points."""


@dataclass(frozen=True)
class SelCurves:
    """A strategy's selectivities: ``per_tracker(tracker, space_points)`` →
    ``points -> sel``, asked once per operator and :class:`StageCurve`."""

    per_tracker: Callable[[SelectivityTracker, int], Callable[[int], float]]


def _mean_selectivity(tracker: SelectivityTracker, space_points: int):
    sel = tracker.mean_selectivity()
    return lambda new_points: sel


MEAN_SELECTIVITY = SelCurves(_mean_selectivity)
"""Each operator at ``tracker.mean_selectivity()``: no risk margin (a synopsis
posterior when warm-started, else Figure 3.3's assumed maximum)."""


class StageCurve:
    """``QCOST(f, SEL)`` of a plan's next stage, from constants taken once.

    Nothing a price reads moves while one stage is sized: each node —
    children first, shared scans once — hands over a :data:`Pricer` holding
    its coefficients, counts and selectivity curve, and a probe sums node
    seconds in that order in plain floats. No cycle: refcounting frees it.
    """

    def __init__(self, nodes: "list[StagedNode]", sel_curves: SelCurves) -> None:
        self.nodes = nodes
        index = {id(node): i for i, node in enumerate(nodes)}
        self._pricers = [node.pricer(index, sel_curves) for node in nodes]

    def price(self, fraction: float) -> tuple[float, list[float], list[float]]:
        """``(QCOST, seconds per node, new points per node)`` at ``fraction``."""
        if fraction <= 0:
            raise TimeControlError(f"candidate fraction must be positive: {fraction}")
        outs, points = [], []
        seconds = [pricer(fraction, outs, points) for pricer in self._pricers]
        total = 0.0
        for node_seconds in seconds:
            total += node_seconds
        return total, seconds, points

    def __call__(self, fraction: float) -> float:
        """:meth:`price`'s total alone: the bisection's probe."""
        if fraction <= 0:
            raise TimeControlError(f"candidate fraction must be positive: {fraction}")
        outs, points = [], []
        total = 0.0
        for pricer in self._pricers:
            total += pricer(fraction, outs, points)
        return total


def _nlogn(n: float) -> float:
    return n * math.log2(n) if n > 1 else 0.0


class StagedNode(Protocol):
    """Common protocol of all staged nodes (see module docstring)."""

    schema: Schema
    children: "tuple[StagedNode, ...]"
    ledger: StageLedger
    tracker: SelectivityTracker | None

    def advance(self, stage: int) -> ColumnBatch: ...

    def pricer(self, index: dict[int, int], sel_curves: SelCurves) -> Pricer: ...

    def base_scans(self) -> list["StagedScan"]: ...

    def iter_nodes(self) -> "list[StagedNode]": ...

    def snapshot(self) -> dict: ...

    def restore(self, token: dict) -> None: ...


class _NodeBase:
    """What every staged node is: a ledger, its children, its stage output.

    The constructor takes the per-plan machinery every node of one plan
    shares; subclasses forward it untouched as ``**common``, adding their
    ``children`` and, operators, the ``tracker`` that is their ledger.
    """

    schema: Schema

    def __init__(
        self,
        charger: CostCharger,
        cost_model: CostModel,
        block_size: int,
        full_fulfillment: bool,
        spool: "Spool | None" = None,
        injector: "FaultInjector | None" = None,
        *,
        children: "tuple[StagedNode, ...]" = (),
        tracker: SelectivityTracker | None = None,
    ) -> None:
        self.charger = charger
        self.cost_model = cost_model
        self.block_size = block_size
        self.full_fulfillment = full_fulfillment
        self.injector = injector
        self.spool = spool if spool is not None else Spool()
        self.children = children
        # The tree never changes after lowering: the scans under it, once.
        self._scans = [scan for child in children for scan in child.base_scans()]
        self.tracker = tracker
        self.ledger: StageLedger = tracker if tracker is not None else StageLedger()

    @property
    def stage(self) -> int:  # completed stages
        return len(self.ledger.observations)

    @property
    def cum_out_tuples(self) -> int:
        return self.ledger.total_tuples

    @property
    def points_so_far(self) -> int:
        return self.ledger.total_points

    def base_scans(self) -> list["StagedScan"]:
        return self._scans

    def iter_nodes(self) -> list["StagedNode"]:
        """This node, then its subtrees (shared scans once per reference)."""
        return [self, *(n for child in self.children for n in child.iter_nodes())]

    def post_order(self) -> list["StagedNode"]:
        """Its subtrees, then this node: the order a stage is priced in."""
        return [n for child in self.children for n in child.post_order()] + [self]

    def space_points(self) -> int:
        """Total points of this node's point space (Π N_j of its subtree)."""
        return math.prod(s.relation.tuple_count for s in self.base_scans())

    def _record(self, out_tuples: int) -> None:
        """Close an operator's stage; its points compose from the children's."""
        # Exact integers: the product of all the children cover (full
        # fulfillment, Figure 4.1) or of what they covered this stage.
        ledgers = [child.ledger for child in self.children]
        if self.full_fulfillment:
            covered = math.prod(ledger.total_points for ledger in ledgers)
            new_points = covered - self.ledger.total_points
        else:
            new_points = math.prod(ledger.last.points for ledger in ledgers)
        self.ledger.record_stage(out_tuples, new_points)

    def pricer(self, index: dict[int, int], sel_curves: SelCurves) -> Pricer:
        """This operator's next stage; ``index`` maps each node priced before
        it to its position in ``outs``. The new points are the product of
        what the base scans add to (full fulfillment) or draw in (partial)."""
        scans = [index[id(scan)] for scan in self.base_scans()]
        seen = [scan.cum_tuples for scan in self.base_scans()]
        covered = math.prod(seen)
        full = self.full_fulfillment
        sel_of = sel_curves.per_tracker(self.tracker, self.space_points())
        seconds = self._seconds_curve([index[id(child)] for child in self.children])

        def price(fraction: float, outs: list, points: list) -> float:
            news = map(outs.__getitem__, scans)
            if full:
                new_points = math.prod(map(operator.add, seen, news)) - covered
            else:
                new_points = math.prod(news)
            out = sel_of(max(int(new_points), 1)) * new_points
            outs.append(out)
            points.append(new_points)
            return seconds(outs, out)

        return price

    def _seconds_curve(self, inputs: list[int]) -> Callable[[list, float], float]:
        """``(outs, out) -> seconds`` by the step formulas (4.1)–(4.5), inputs
        read from ``outs`` at the children's positions ``inputs``; each ``θ·x``
        the cost model's fixed-order sum floored at 0, θ taken now."""
        raise NotImplementedError

    def _bf(self) -> int:
        return self.schema.blocking_factor(self.block_size)

    def _check_stage(self, stage: int) -> None:
        if stage != self.stage + 1:
            raise TimeControlError(
                f"stage {stage} requested but node has completed {self.stage}"
            )

    # -- salvage support (fault injection) -------------------------------
    def snapshot(self) -> dict:
        """This node's logical estimator state, as a rollback token.

        Captured by :meth:`repro.engine.plan.StagedPlan.snapshot` before a
        stage attempt when a fault injector is active; on an injected
        fault, :meth:`restore` returns the node to the last consistent
        stage boundary (charged time stays spent — only estimator state
        rolls back). Every count is in the ledger; subclasses add what it
        cannot know (sampler cursor, consolidated runs, occupancy).
        """
        return {"ledger": self.ledger.snapshot()}

    def restore(self, token: dict) -> None:
        self.ledger.restore(token["ledger"])


class StagedScan(_NodeBase):
    """Shared sampling scan of one base relation.

    Draws ``max(1, round(f·D))`` new blocks per stage (clamped by what
    remains unsampled) and reads them, charging block I/O. All terms that
    reference the relation share this node, so blocks are drawn and read
    once per stage.
    """

    def __init__(
        self,
        relation: HeapFile,
        sampler: BlockSampler,
        **common,
    ) -> None:
        super().__init__(**common)
        self.relation = relation
        self.sampler = sampler
        self.schema = relation.schema
        # Per-shard tallies of the latest stage read over a partitioned
        # relation (always empty over a plain one); StagedPlan turns them
        # into ShardScanStarted/ShardMerged trace events.
        self.last_shard_stats: list[ShardReadStats] = []
        # The latest stage's read: every term sharing this scan gets this
        # one batch, so each column is decoded at most once per stage.
        self._batch: ColumnBatch | None = None

    def base_scans(self) -> list["StagedScan"]:
        return [self]

    @property
    def cum_tuples(self) -> int:
        return self.ledger.total_tuples

    @property
    def new_tuples(self) -> int:
        return self.ledger.last.tuples if self.stage else 0

    @property
    def blocks_drawn(self) -> int:
        return self.sampler.drawn_blocks

    @property
    def exhausted(self) -> bool:
        return self.sampler.exhausted

    def _blocks_for(self, fraction: float) -> int:
        wanted = fraction_blocks(fraction, self.relation.block_count)
        return min(wanted, self.sampler.remaining_blocks)

    def advance(self, stage: int, fraction: float | None = None) -> ColumnBatch:
        if stage == self.stage:  # another term already advanced us
            return self._batch
        self._check_stage(stage)
        if fraction is None:
            raise TimeControlError("scan.advance needs the stage fraction")
        d = self._blocks_for(fraction)
        with self.charger.measure() as meter:
            block_ids = self.sampler.draw(d)
            # Charges and injector consultations are issued per block, in
            # global draw order, exactly as the reference read does.
            if isinstance(self.relation, PartitionedHeapFile):
                # The same read, plus the per-shard tallies of its blocks.
                batch, self.last_shard_stats = self.relation.read_sharded(
                    block_ids, self.charger, self.injector
                )
            else:
                batch = self.relation.read_blocks_decoded(
                    block_ids, self.charger, self.injector
                )
        if d:
            self.cost_model.observe(step_names.SCAN_READ, [d, 1.0], meter.elapsed)
        self._batch = batch
        self.ledger.record_stage(len(batch), len(batch))  # outputs all it reads
        return batch

    def pricer(self, index: dict[int, int], sel_curves: SelCurves) -> Pricer:
        c0, c1 = self.cost_model.theta(step_names.SCAN_READ)
        block_count = self.relation.block_count
        remaining = self.sampler.remaining_blocks
        bf = self.relation.blocking_factor
        # The final block may be partially filled; clamp by what remains.
        left = self.relation.tuple_count - self.cum_tuples

        def price(fraction: float, outs: list, points: list) -> float:
            d = min(fraction_blocks(fraction, block_count), remaining)
            new_tuples = min(float(d * bf), left)
            outs.append(new_tuples)
            points.append(new_tuples)
            return max(c0 * d + c1, 0.0) if d else 0.0  # θ·[d, 1]

        return price

    def snapshot(self) -> dict:
        token = super().snapshot()
        token["sampler"] = self.sampler.snapshot()
        return token

    def restore(self, token: dict) -> None:
        super().restore(token)
        self.sampler.restore(token["sampler"])
        self._batch = None  # a rolled-back stage's read is void


class StagedSelect(_NodeBase):
    """Staged selection (Figure 4.3 / equation 4.1).

    ``predicate`` is the :class:`~repro.relational.predicate.Predicate`
    AST, compiled exactly once at construction, through the process-wide
    kernel cache, into the whole-stage column mask :meth:`_filter` applies.
    """

    def __init__(
        self,
        child: "StagedNode",
        predicate: Predicate,
        label: str,
        initial_selectivity: float,
        **common,
    ) -> None:
        super().__init__(
            children=(child,),
            tracker=SelectivityTracker(label, initial_selectivity),
            **common,
        )
        self.child = child
        self.schema = child.schema
        self._mask_fn = compiled_predicate(predicate, child.schema).mask_fn

    def _filter(self, batch: ColumnBatch) -> list[Row]:
        """Whole-stage filter: same charges as ``apply_select``, one mask."""
        return select_batch(batch, self._mask_fn, self.charger, self._bf())

    def advance(self, stage: int) -> ColumnBatch:
        self._check_stage(stage)
        batch = self.child.advance(stage)
        with self.charger.measure() as meter:
            out = self._filter(batch)
        pages = -(-len(out) // self._bf()) if out else 0
        self.cost_model.observe(
            step_names.SELECT_OP, [len(batch), pages, 1.0], meter.elapsed
        )
        self._record(len(out))
        return ColumnBatch(out, self.schema)

    def _seconds_curve(self, inputs: list[int]) -> Callable[[list, float], float]:
        c0, c1, c2 = self.cost_model.theta(step_names.SELECT_OP)
        bf, (child,) = self._bf(), inputs
        # θ·[n, pages, 1]
        return lambda outs, out: max(c0 * outs[child] + c1 * (out / bf) + c2, 0.0)


class _StagedBinary(_NodeBase):
    """Shared machinery of staged Join and Intersect (Figures 4.4/4.6).

    Stage ``s`` spools + sorts the children's new tuples and performs the
    full- or partial-fulfillment merges, charging equations (4.2)–(4.4).
    The per-stage runs ``F_{j,i}`` of both children live in **one
    consolidated sorted run per side** (:class:`repro.kernels.SortedRun`,
    full fulfillment only); the spool only gauges the temp space they
    occupy on disk. All new x old pairs are answered by a single
    ``searchsorted`` probe and split back into per-old-run outputs by
    stage tag, after which the new run is merged in once. The *charged*
    simulated costs — temp writes, sorts, and one :func:`charge_merge` per
    (new, old-run) pair in run order — are issued exactly as by pairwise
    :func:`~repro.relational.operators.merge_join` /
    :func:`~repro.relational.operators.merge_intersect` merges over every
    old run (the reference the differential tests substitute for
    :meth:`_stage`), so estimates, traces, and charged times are
    bit-identical to it; only wall-clock time differs.
    """

    write_step: str
    sort_step: str
    merge_step: str

    def __init__(
        self,
        left: "StagedNode",
        right: "StagedNode",
        label: str,
        initial_selectivity: float,
        **common,
    ) -> None:
        super().__init__(
            children=(left, right),
            tracker=SelectivityTracker(label, initial_selectivity),
            **common,
        )
        self.left = left
        self.right = right
        # Consolidated sorted runs (full fulfillment only; partial
        # fulfillment never revisits old runs).
        self._left_sorted = _kernels.SortedRun()
        self._right_sorted = _kernels.SortedRun()

    # Subclass hooks ----------------------------------------------------
    def _key_positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(left, right) attribute positions forming the merge key."""
        raise NotImplementedError

    def _vec_new_new(
        self, left: "_kernels.KeyedRows", right: "_kernels.KeyedRows"
    ) -> list[Row]:
        raise NotImplementedError

    def _vec_vs_run(
        self,
        new: "_kernels.KeyedRows",
        run: "_kernels.SortedRun",
        run_codes,
        new_on_left: bool,
    ) -> list[list[Row]]:
        raise NotImplementedError

    # Execution ----------------------------------------------------------
    def advance(self, stage: int) -> ColumnBatch:
        self._check_stage(stage)
        new_left = self.left.advance(stage)
        new_right = self.right.advance(stage)
        out = self._stage(stage, new_left, new_right)
        if not self.full_fulfillment:
            # Partial fulfillment never revisits old runs: release at once.
            # (Full fulfillment's runs stay spooled for cross-stage merges.)
            self.spool.release(len(new_left) + len(new_right))
        self._record(len(out))
        return ColumnBatch(out, self.schema)

    def _spool_writes(self, new_left: ColumnBatch, new_right: ColumnBatch) -> None:
        # Step (1): write the stage's sample tuples to temporary files —
        # "all the intermediate relations are always kept on disks".
        with self.charger.measure() as meter:
            self.spool.write(len(new_left), self.charger)
            self.spool.write(len(new_right), self.charger)
        self.cost_model.observe(
            self.write_step, [len(new_left) + len(new_right), 1.0], meter.elapsed
        )

    def _stage(
        self, stage: int, new_left: ColumnBatch, new_right: ColumnBatch
    ) -> list[Row]:
        """One stage's write, sort and merges: reference charges, bulk work."""
        self._spool_writes(new_left, new_right)
        n_left, n_right = len(new_left), len(new_right)
        total_in = n_left + n_right
        left_pos, right_pos = self._key_positions()
        left_keys = new_left.key_columns(left_pos)
        right_keys = new_right.key_columns(right_pos)

        # Step (2): sort the temporary files — equation (4.3) charged per
        # file exactly as external_sort would, ordering done columnar.
        with self.charger.measure() as meter:
            charge_external_sort(self.charger, n_left)
            left_order = _kernels.stable_lexsort(left_keys)
            sorted_left = _kernels.rows_array(new_left.rows)[left_order]
            left_keys = [col[left_order] for col in left_keys]
            charge_external_sort(self.charger, n_right)
            right_order = _kernels.stable_lexsort(right_keys)
            sorted_right = _kernels.rows_array(new_right.rows)[right_order]
            right_keys = [col[right_order] for col in right_keys]
        self.cost_model.observe(
            self.sort_step,
            [_nlogn(n_left) + _nlogn(n_right), total_in, 1.0],
            meter.elapsed,
        )

        # Step (3): merges. One joint code space over the new runs and both
        # consolidated runs prices every pair with one searchsorted probe;
        # charge_merge is then replayed per pair in the reference order
        # (new×new, new-left × old-rights, old-lefts × new-right).
        bf = self._bf()
        out: list[Row] = []
        reads = 0
        merges = 0
        with self.charger.measure() as meter:
            codes = _kernels.encode_columns(
                [
                    left_keys,
                    right_keys,
                    self._left_sorted.key_columns_or_empty(left_keys),
                    self._right_sorted.key_columns_or_empty(right_keys),
                ]
            )
            keyed_left = _kernels.KeyedRows(codes[0], sorted_left)
            keyed_right = _kernels.KeyedRows(codes[1], sorted_right)

            pair_out = self._vec_new_new(keyed_left, keyed_right)
            out.extend(pair_out)
            charge_merge(self.charger, n_left, n_right, pair_out, bf)
            reads += total_in
            merges += 1
            if self.full_fulfillment:
                right_outs = self._vec_vs_run(
                    keyed_left, self._right_sorted, codes[3], new_on_left=True
                )
                for (_s, run_len), pair_out in zip(
                    self._right_sorted.lengths, right_outs
                ):
                    out.extend(pair_out)
                    charge_merge(self.charger, n_left, run_len, pair_out, bf)
                    reads += n_left + run_len
                    merges += 1
                left_outs = self._vec_vs_run(
                    keyed_right, self._left_sorted, codes[2], new_on_left=False
                )
                for (_s, run_len), pair_out in zip(
                    self._left_sorted.lengths, left_outs
                ):
                    out.extend(pair_out)
                    charge_merge(self.charger, run_len, n_right, pair_out, bf)
                    reads += run_len + n_right
                    merges += 1
        self.cost_model.observe(
            self.merge_step, [reads, len(out), merges], meter.elapsed
        )

        if self.full_fulfillment:
            self._left_sorted.merge_in(left_keys, sorted_left, stage)
            self._right_sorted.merge_in(right_keys, sorted_right, stage)
        return out

    # Salvage support ----------------------------------------------------
    def snapshot(self) -> dict:
        token = super().snapshot()
        token["left_sorted"] = self._left_sorted.snapshot()
        token["right_sorted"] = self._right_sorted.snapshot()
        return token

    def restore(self, token: dict) -> None:
        super().restore(token)
        self._left_sorted.restore(token["left_sorted"])
        self._right_sorted.restore(token["right_sorted"])

    # Prediction ----------------------------------------------------------
    def _seconds_curve(self, inputs: list[int]) -> Callable[[list, float], float]:
        w0, w1 = self.cost_model.theta(self.write_step)
        s0, s1, s2 = self.cost_model.theta(self.sort_step)
        m0, m1, m2 = self.cost_model.theta(self.merge_step)
        full = self.full_fulfillment
        # Equation (4.4): N_{1,s−1} + N_{2,s−1} + s(n_1s + n_2s) reads.
        s = self.stage + 1
        old = self.left.ledger.total_tuples + self.right.ledger.total_tuples
        merges = 2 * s - 1 if full else 1
        left, right = inputs

        def seconds(outs: list, out: float) -> float:
            n1, n2 = outs[left], outs[right]
            reads = old + s * (n1 + n2) if full else n1 + n2
            return (
                max(w0 * (n1 + n2) + w1, 0.0)  # θ·[n1 + n2, 1]
                + max(s0 * (_nlogn(n1) + _nlogn(n2)) + s1 * (n1 + n2) + s2, 0.0)
                + max(m0 * reads + m1 * out + m2 * merges, 0.0)
            )

        return seconds


class StagedIntersect(_StagedBinary):
    """Staged set intersection — the only set operation the estimator runs."""

    write_step = step_names.INTERSECT_WRITE
    sort_step = step_names.INTERSECT_SORT
    merge_step = step_names.INTERSECT_MERGE

    def __init__(self, left: "StagedNode", right: "StagedNode", **kwargs) -> None:
        super().__init__(left, right, **kwargs)
        left.schema.require_compatible(right.schema, "intersect")
        self.schema = left.schema

    def _key_positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        positions = tuple(range(len(self.schema.attributes)))
        return positions, positions

    def _vec_new_new(
        self, left: "_kernels.KeyedRows", right: "_kernels.KeyedRows"
    ) -> list[Row]:
        return _kernels.intersect_new_new(left, right)

    def _vec_vs_run(
        self,
        new: "_kernels.KeyedRows",
        run: "_kernels.SortedRun",
        run_codes,
        new_on_left: bool,
    ) -> list[list[Row]]:
        # Whole-row keys make both directions symmetric: representative
        # tuples are value-identical whichever side supplies them.
        return _kernels.intersect_vs_run(new, run, run_codes)


class StagedJoin(_StagedBinary):
    """Staged equi-join (Figure 4.6)."""

    write_step = step_names.JOIN_WRITE
    sort_step = step_names.JOIN_SORT
    merge_step = step_names.JOIN_MERGE

    def __init__(
        self,
        left: "StagedNode",
        right: "StagedNode",
        on: Sequence[tuple[str, str]],
        **kwargs,
    ) -> None:
        super().__init__(left, right, **kwargs)
        self.on = tuple(on)
        self._left_key = [left.schema.index_of(a) for a, _ in self.on]
        self._right_key = [right.schema.index_of(b) for _, b in self.on]
        self.schema = left.schema.join(right.schema)

    def _key_positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(self._left_key), tuple(self._right_key)

    def _vec_new_new(
        self, left: "_kernels.KeyedRows", right: "_kernels.KeyedRows"
    ) -> list[Row]:
        return _kernels.join_new_new(left, right)

    def _vec_vs_run(
        self,
        new: "_kernels.KeyedRows",
        run: "_kernels.SortedRun",
        run_codes,
        new_on_left: bool,
    ) -> list[list[Row]]:
        return _kernels.join_vs_run(new, run, run_codes, new_on_left)


class StagedProject(_NodeBase):
    """Staged duplicate-eliminating projection (Figure 4.7).

    Maintains the global group-occupancy table across stages — the input to
    Goodman's estimator. Its per-stage "output tuples" are the groups first
    observed at that stage, so its selectivity is distinct-groups-per-point.
    """

    def __init__(
        self,
        child: "StagedNode",
        attrs: Sequence[str],
        label: str,
        initial_selectivity: float,
        **common,
    ) -> None:
        super().__init__(
            children=(child,),
            tracker=SelectivityTracker(label, initial_selectivity),
            **common,
        )
        self.child = child
        self.attrs = tuple(attrs)
        self._positions = [child.schema.index_of(a) for a in self.attrs]
        self.schema = child.schema.project(self.attrs)
        self.occupancy: dict[Row, int] = {}

    def advance(self, stage: int) -> ColumnBatch:
        self._check_stage(stage)
        projected = project_rows(self.child.advance(stage).rows, self._positions)

        # Step (1): spool the projected tuples to a temporary file.
        with self.charger.measure() as meter:
            self.spool.write(len(projected), self.charger)
        self.cost_model.observe(
            step_names.PROJECT_WRITE, [len(projected), 1.0], meter.elapsed
        )

        # Step (2): sort the temporary file.
        with self.charger.measure() as meter:
            ordered = external_sort(projected, whole_row_key, self.charger)
        self.cost_model.observe(
            step_names.PROJECT_SORT,
            [_nlogn(len(projected)), len(projected), 1.0],
            meter.elapsed,
        )

        new_groups: list[Row] = []
        with self.charger.measure() as meter:
            if ordered:
                self.charger.charge(CostKind.DEDUPE_TUPLE, len(ordered))
            for row in ordered:
                if row in self.occupancy:
                    self.occupancy[row] += 1
                else:
                    self.occupancy[row] = 1
                    new_groups.append(row)
            if new_groups:
                self.charger.charge(
                    CostKind.PAGE_WRITE, -(-len(new_groups) // self._bf())
                )
        pages = -(-len(new_groups) // self._bf()) if new_groups else 0
        self.cost_model.observe(
            step_names.PROJECT_DEDUPE,
            [len(ordered), pages, 1.0],
            meter.elapsed,
        )

        self.spool.release(len(projected))  # folded into the occupancy table
        self._record(len(new_groups))
        return ColumnBatch(new_groups, self.schema)

    def _seconds_curve(self, inputs: list[int]) -> Callable[[list, float], float]:
        w0, w1 = self.cost_model.theta(step_names.PROJECT_WRITE)
        s0, s1, s2 = self.cost_model.theta(step_names.PROJECT_SORT)
        d0, d1, d2 = self.cost_model.theta(step_names.PROJECT_DEDUPE)
        bf = self._bf()
        (child,) = inputs

        def seconds(outs: list, out: float) -> float:
            n = outs[child]
            return (
                max(w0 * n + w1, 0.0)  # θ·[n, 1]
                + max(s0 * _nlogn(n) + s1 * n + s2, 0.0)
                + max(d0 * n + d1 * (out / bf) + d2, 0.0)  # θ·[n, pages, 1]
            )

        return seconds

    def snapshot(self) -> dict:
        token = super().snapshot()
        # The occupancy table is mutated in place per stage, so it must be
        # copied. Snapshots only happen under an active fault injector, so
        # unfaulted runs never pay this.
        token["occupancy"] = dict(self.occupancy)
        return token

    def restore(self, token: dict) -> None:
        super().restore(token)
        self.occupancy = dict(token["occupancy"])
