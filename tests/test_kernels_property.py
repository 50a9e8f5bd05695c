"""Property-based bit-identity: the kernel engine vs the row-at-a-time oracle.

The kernel layer's contract (invariant 6) is absolute: for ANY SJIP
expression, ANY stage schedule, and ANY seed, the staged plan must produce
byte-for-byte the same observable behaviour as the same plan with its
stages computed by the row-at-a-time operators
(``tests/rowwise_oracle.py``) — the same output rows in the same order, the
same estimates (value *and* variance), and the same charged simulated time
down to every per-kind total. The noisy ``sun3_60`` profile makes this stringent:
every charge draws its jitter from the session's RNG stream, so even one
extra or re-ordered charge on either path would shift every later charged
duration (and the Project bootstrap) and show up here.

The oracle keeps its own per-stage sorted runs, so the contract also covers
rolling a stage back: a stage undone by ``StagedPlan.restore`` (a salvaged
fault, or any snapshot / restore sequence) must leave both paths with the
same runs to merge against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.catalog.types import AttributeType
from repro.core.database import Database
from repro.core.options import QueryOptions
from repro.costmodel.model import CostModel
from repro.engine.plan import StagedPlan
from repro.faults.plan import FaultPlan
from repro.observability import RecordingSink
from repro.relational.expression import intersect, join, project, rel, select
from repro.relational.predicate import And, cmp
from repro.timecontrol.strategies import FixedFractionHeuristic
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation
from tests.rowwise_oracle import rowwise_stages

def build_catalog() -> Catalog:
    schema = Schema.of(id=AttributeType.INT, a=AttributeType.INT)
    catalog = Catalog()
    catalog.register(
        "r1",
        make_relation(
            "r1", schema, [(i, i % 7) for i in range(80)], block_size=16
        ),
    )
    catalog.register(
        "r2",
        make_relation(
            "r2", schema, [(i, i % 7) for i in range(40, 120)], block_size=16
        ),
    )
    return catalog


# Random SJIP trees over r1/r2, each relation used at most once per term.
@st.composite
def sjip_expression(draw):
    def maybe_select(node):
        choice = draw(st.sampled_from(["none", "one", "and"]))
        if choice == "none":
            return node
        threshold = draw(st.integers(0, 7))
        op = draw(st.sampled_from(["<", ">=", "==", "!="]))
        predicate = cmp("a", op, threshold)
        if choice == "and":
            predicate = And((predicate, cmp("id", ">", draw(st.integers(0, 60)))))
        return select(node, predicate)

    left = maybe_select(rel("r1"))
    shape = draw(st.sampled_from(["single", "join", "intersect", "project"]))
    if shape == "single":
        return left
    if shape == "project":
        return project(left, ["a"])
    right = maybe_select(rel("r2"))
    if shape == "join":
        node = maybe_select(join(left, right, on=["a"]))
    else:
        node = maybe_select(intersect(left, right))
    if draw(st.booleans()):
        return project(node, ["a"])
    return node


def run_plan(expr, fractions, seed, rowwise):
    """One full staged run; returns everything observable about it."""
    catalog = build_catalog()
    rng = np.random.default_rng(seed)
    # The charger draws its jitter from the plan's RNG (as sessions do), so
    # the charge sequence itself is under test, not just the charge totals.
    charger = CostCharger(MachineProfile.sun3_60(), rng=rng)
    with rowwise_stages(rowwise):
        plan = StagedPlan(expr, catalog, charger, CostModel(), rng)
    stage_rows: list[list] = []
    stage_stats: list[tuple] = []
    for stage, fraction in enumerate(fractions, start=1):
        for scan in plan.scans:
            scan.advance(stage, fraction)
        for term in plan.terms:
            stage_rows.append(term.root.advance(stage).rows)
        plan.stages_completed = stage
        estimate = plan.estimate()
        stage_stats.append(
            (estimate.value, estimate.variance, charger.clock.now())
        )
    return (
        stage_rows,
        stage_stats,
        tuple(sorted((k.name, v) for k, v in charger.totals.items())),
        tuple(sorted((k.name, v) for k, v in charger.counts.items())),
    )


@settings(max_examples=25, deadline=None)
@given(
    expr=sjip_expression(),
    fractions=st.lists(st.floats(0.05, 0.4), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_vectorized_run_is_bit_identical_to_rowwise(expr, fractions, seed):
    vec_rows, vec_stats, vec_totals, vec_counts = run_plan(
        expr, fractions, seed, rowwise=False
    )
    ref_rows, ref_stats, ref_totals, ref_counts = run_plan(
        expr, fractions, seed, rowwise=True
    )
    # Identical rows, in identical order, at every operator stage.
    assert vec_rows == ref_rows
    # Identical estimates and identical simulated clock after every stage.
    assert vec_stats == ref_stats
    # Identical charged time and charge volume per cost kind.
    assert vec_totals == ref_totals
    assert vec_counts == ref_counts


@settings(max_examples=15, deadline=None)
@given(
    expr=sjip_expression(),
    seed=st.integers(0, 2**12),
)
def test_partial_fulfillment_paths_also_identical(expr, seed):
    def run(rowwise):
        catalog = build_catalog()
        rng = np.random.default_rng(seed)
        charger = CostCharger(MachineProfile.sun3_60(), rng=rng)
        with rowwise_stages(rowwise):
            plan = StagedPlan(
                expr, catalog, charger, CostModel(), rng,
                QueryOptions(full_fulfillment=False),
            )
        plan.advance_stage(0.2)
        plan.advance_stage(0.2)
        estimate = plan.estimate()
        return (estimate.value, estimate.variance, charger.clock.now())

    assert run(True) == run(False)


@settings(max_examples=20, deadline=None)
@given(
    expr=sjip_expression(),
    schedule=st.lists(
        st.tuples(st.floats(0.05, 0.3), st.booleans()), min_size=2, max_size=4
    ),
    seed=st.integers(0, 2**12),
)
def test_rolled_back_stages_are_bit_identical_to_rowwise(expr, schedule, seed):
    """Each stage may be run, rolled back and run again before the next."""

    def run(rowwise):
        catalog = build_catalog()
        rng = np.random.default_rng(seed)
        charger = CostCharger(MachineProfile.sun3_60(), rng=rng)
        with rowwise_stages(rowwise):
            plan = StagedPlan(expr, catalog, charger, CostModel(), rng)
        observed = []
        for fraction, rolled_back in schedule:
            if rolled_back:
                token = plan.snapshot()
                plan.advance_stage(fraction)
                plan.restore(token)
            plan.advance_stage(fraction)
            estimate = plan.estimate()
            observed.append(
                (estimate.value, estimate.variance, charger.clock.now())
            )
        return observed, plan.spool.live_tuples, plan.spool.peak_tuples

    assert run(True) == run(False)


def faulted_run(expr, quota, rowwise):
    """A full-fulfillment session whose stage 2 faults once and is retried."""
    db = Database(seed=3, block_size=64)
    for name, ids in (("r1", range(400)), ("r2", range(200, 600))):
        db.create_relation(
            name, [("id", "int"), ("a", "int")], rows=[(i, i % 7) for i in ids]
        )
    sink = RecordingSink()
    with rowwise_stages(rowwise):
        session = db.open_session(
            expr,
            quota,
            QueryOptions(
                sink=sink,
                fault_plan=FaultPlan(fail_stages=(2,)),
                strategy=FixedFractionHeuristic(gamma=0.3, probe_fraction=0.05),
            ),
            seed=5,
        )
    stage_rows = []
    for term in session.plan.terms:
        def recording(stage, advance=term.root.advance):
            batch = advance(stage)
            stage_rows.append((stage, list(batch.rows)))
            return batch

        term.root.advance = recording
    report = session.run().report
    charger = session.charger
    return (
        stage_rows,
        [(s.index, s.estimate.value, s.estimate.variance) for s in report.stages],
        [(f.stage, f.action, f.wasted_seconds) for f in report.faults],
        report.peak_temp_tuples,
        tuple(sorted((k.name, v) for k, v in charger.totals.items())),
        tuple(sorted((k.name, v) for k, v in charger.counts.items())),
        [e.to_dict() for e in sink],
    )


@pytest.mark.parametrize(
    "expr,quota",
    [
        (join(rel("r1"), rel("r2"), on=["a"]), 5.0),
        (intersect(rel("r1"), rel("r2")), 20.0),
    ],
    ids=["join", "intersect"],
)
def test_salvaged_fault_is_bit_identical_to_rowwise(expr, quota):
    engine = faulted_run(expr, quota, rowwise=False)
    oracle = faulted_run(expr, quota, rowwise=True)
    stage_rows, stages, faults = engine[:3]
    assert faults[0][:2] == (2, "retry")  # the fault really was salvaged
    assert len(stages) >= 3  # ... and cross-stage merges followed it
    assert any(rows for _, rows in stage_rows)
    assert engine == oracle
