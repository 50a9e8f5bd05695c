"""Property-based bit-identity: the kernel engine vs the row-at-a-time oracle.

The kernel layer's contract (invariant 6) is absolute: for ANY SJIP
expression, ANY stage schedule, and ANY seed, the staged plan must produce
byte-for-byte the same observable behaviour as the same plan with its
stages computed by the row-at-a-time operators
(``tests/rowwise_oracle.py``) — the same output rows in the same order, the
same estimates (value *and* variance), and the same charged simulated time
down to every per-kind total. The noisy ``sun3_60`` profile makes this stringent:
cost jitter draws from the same RNG stream as the block sampler, so even
one extra or re-ordered charge on either path would desynchronise all
subsequent sampling and show up here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.catalog.types import AttributeType
from repro.core.options import QueryOptions
from repro.costmodel.model import CostModel
from repro.engine.plan import StagedPlan
from repro.relational.expression import intersect, join, project, rel, select
from repro.relational.predicate import And, cmp
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation
from tests.rowwise_oracle import rowwise_stages

VERBATIM = QueryOptions(optimize=False)


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
    # The charger shares the sampler's RNG stream (as sessions do), so the
    # charge sequence itself is under test, not just the charge totals.
    charger = CostCharger(MachineProfile.sun3_60(), rng=rng)
    with rowwise_stages(rowwise):
        plan = StagedPlan(expr, catalog, charger, CostModel(), rng, VERBATIM)
    stage_rows: list[list] = []
    stage_stats: list[tuple] = []
    for stage, fraction in enumerate(fractions, start=1):
        for scan in plan.scans:
            scan.advance(stage, fraction)
        for term in plan.terms:
            stage_rows.append(term.root.advance(stage))
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
                VERBATIM.replace(full_fulfillment=False),
            )
        plan.advance_stage(0.2)
        plan.advance_stage(0.2)
        estimate = plan.estimate()
        return (estimate.value, estimate.variance, charger.clock.now())

    assert run(True) == run(False)
