"""Property-based tests of the staged engine's central invariant.

For ANY Select–Join–Intersect expression and ANY staged sample, full
fulfillment must make the staged tree's cumulative output count equal the
exact evaluation of the expression over the sampled sub-database, and the
evaluated point count equal the cross product of per-relation sampled
tuples. This generalises the hand-picked cases in test_engine_nodes.py to
randomly generated trees and stage schedules.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.catalog.types import AttributeType
from repro.core.options import QueryOptions
from repro.costmodel.model import CostModel
from repro.engine.plan import StagedPlan
from repro.relational.evaluator import count_exact
from repro.relational.expression import (
    intersect,
    join,
    project,
    rel,
    select,
    union,
)
from repro.relational.predicate import cmp
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation

def build_catalog() -> Catalog:
    schema = Schema.of(id=AttributeType.INT, a=AttributeType.INT)
    catalog = Catalog()
    catalog.register(
        "r1",
        make_relation(
            "r1", schema, [(i, i % 5) for i in range(60)], block_size=16
        ),
    )
    catalog.register(
        "r2",
        make_relation(
            "r2", schema, [(i, i % 5) for i in range(30, 90)], block_size=16
        ),
    )
    return catalog


def restricted(plan) -> Catalog:
    sub = Catalog()
    for scan in plan.scans:
        relation = scan.relation
        rows = []
        for block_id in scan.sampler.drawn_block_ids:
            rows.extend(relation.block_rows_uncharged(block_id))
        sub.register(
            relation.name,
            make_relation(
                relation.name, relation.schema, rows, relation.block_size
            ),
        )
    return sub


# Random SJI trees over r1/r2 where each relation appears at most once
# (the point-space model requires distinct operand relations per term).
@st.composite
def sji_expression(draw):
    base1 = rel("r1")
    base2 = rel("r2")

    def maybe_select(node):
        if draw(st.booleans()):
            threshold = draw(st.integers(0, 5))
            op = draw(st.sampled_from(["<", ">=", "=="]))
            return select(node, cmp("a", op, threshold))
        return node

    left = maybe_select(base1)
    shape = draw(st.sampled_from(["single", "join", "intersect"]))
    if shape == "single":
        return left
    right = maybe_select(base2)
    if shape == "join":
        return maybe_select(join(left, right, on=["a"]))
    return maybe_select(intersect(left, right))


@settings(max_examples=50, deadline=None)
@given(
    expr=sji_expression(),
    fractions=st.lists(
        st.floats(0.05, 0.6), min_size=1, max_size=3
    ),
    seed=st.integers(0, 2**16),
)
def test_staged_count_equals_exact_over_sampled_blocks(expr, fractions, seed):
    catalog = build_catalog()
    rng = np.random.default_rng(seed)
    charger = CostCharger(MachineProfile.uniform(0.0), rng=rng)
    plan = StagedPlan(expr, catalog, charger, CostModel(), rng)
    for fraction in fractions:
        plan.advance_stage(fraction)
    sub = restricted(plan)
    assert plan.terms[0].root.cum_out_tuples == count_exact(expr, sub)
    # Point bookkeeping: full cross product of the sampled tuples.
    expected_points = 1
    for scan in plan.scans:
        if scan.relation.name in set(expr.base_relations()):
            expected_points *= scan.cum_tuples
    assert plan.terms[0].root.points_so_far == expected_points


@settings(max_examples=30, deadline=None)
@given(
    expr=sji_expression(),
    seed=st.integers(0, 2**16),
)
def test_full_coverage_estimate_is_exact(expr, seed):
    catalog = build_catalog()
    rng = np.random.default_rng(seed)
    charger = CostCharger(MachineProfile.uniform(0.0), rng=rng)
    plan = StagedPlan(expr, catalog, charger, CostModel(), rng)
    plan.advance_stage(1.0)
    estimate = plan.estimate()
    assert estimate.exact
    assert estimate.value == pytest.approx(count_exact(expr, catalog))


@settings(max_examples=25, deadline=None)
@given(
    expr=sji_expression(),
    fraction=st.floats(0.1, 0.5),
    seed=st.integers(0, 2**12),
)
def test_estimate_is_feasible_and_variance_nonnegative(expr, fraction, seed):
    catalog = build_catalog()
    rng = np.random.default_rng(seed)
    charger = CostCharger(MachineProfile.uniform(0.0), rng=rng)
    plan = StagedPlan(expr, catalog, charger, CostModel(), rng)
    plan.advance_stage(fraction)
    estimate = plan.estimate()
    assert estimate.variance >= 0.0
    assert 0.0 <= estimate.value <= plan.terms[0].space.total_points


@settings(max_examples=25, deadline=None)
@given(
    expr=sji_expression(),
    seed=st.integers(0, 2**12),
)
def test_partial_fulfillment_counts_subset_of_full(expr, seed):
    catalog = build_catalog()

    def run(full: bool):
        rng = np.random.default_rng(seed)
        charger = CostCharger(MachineProfile.uniform(0.0), rng=rng)
        plan = StagedPlan(
            expr, catalog, charger, CostModel(), rng,
            QueryOptions(full_fulfillment=full),
        )
        plan.advance_stage(0.3)
        plan.advance_stage(0.3)
        return plan

    full_plan = run(True)
    partial_plan = run(False)
    # Identical seeds → identical drawn blocks; partial covers a subset of
    # the points and therefore at most as many outputs.
    assert (
        partial_plan.terms[0].root.points_so_far
        <= full_plan.terms[0].root.points_so_far
    )
    assert (
        partial_plan.terms[0].root.cum_out_tuples
        <= full_plan.terms[0].root.cum_out_tuples
    )


# Every operator shape the engine lowers, each with an operator at the root
# of every term: a selection, a join, an intersection, a projection over any
# of them, and a union (three inclusion–exclusion terms sharing two scans).
@st.composite
def operator_rooted_expression(draw):
    sji = draw(sji_expression())
    if sji == rel("r1"):
        sji = select(sji, cmp("a", "<", draw(st.integers(1, 5))))
    shape = draw(st.sampled_from(["sji", "project", "union"]))
    if shape == "sji":
        return sji
    if shape == "project":
        return project(sji, ["a"])
    return union(
        select(rel("r1"), cmp("a", "<", draw(st.integers(1, 5)))),
        select(rel("r2"), cmp("a", ">=", draw(st.integers(0, 4)))),
    )


def ledger_state(plan):
    return [
        (list(n.ledger.observations), n.ledger.total_tuples, n.ledger.total_points)
        for n in plan.nodes
    ]


@settings(max_examples=60, deadline=None)
@given(
    expr=operator_rooted_expression(),
    full=st.booleans(),
    steps=st.lists(
        st.tuples(st.booleans(), st.floats(0.05, 0.4)), min_size=1, max_size=5
    ),
    seed=st.integers(0, 2**16),
)
def test_every_node_counts_its_stages_once(expr, full, steps, seed):
    """One ledger per node: after any run of stages and salvage rollbacks it
    is the stage index, and a node's points compose from its children's."""
    catalog = build_catalog()
    rng = np.random.default_rng(seed)
    charger = CostCharger(MachineProfile.uniform(0.0), rng=rng)
    plan = StagedPlan(
        expr, catalog, charger, CostModel(), rng,
        QueryOptions(full_fulfillment=full),
    )
    for rollback, fraction in steps:
        if plan.all_exhausted():
            break
        before = ledger_state(plan)
        token = plan.snapshot()
        stats = plan.advance_stage(fraction)
        roots = [term.root.ledger.last for term in plan.terms]
        assert stats.new_points == sum(o.points for o in roots)
        assert stats.new_outputs == sum(o.tuples for o in roots)
        if rollback:  # what the executor does with a faulted stage
            plan.restore(token)
            assert ledger_state(plan) == before
        for node in plan.nodes:
            ledger = node.ledger
            assert len(ledger.observations) == node.stage == plan.stages_completed
            assert ledger.total_tuples == sum(o.tuples for o in ledger.observations)
            assert ledger.total_points == sum(o.points for o in ledger.observations)
            if not node.children or node.stage == 0:
                continue
            below = [child.ledger for child in node.children]
            if full:
                assert ledger.total_points == math.prod(
                    b.total_points for b in below
                )
            else:
                assert ledger.last.points == math.prod(
                    b.last.points for b in below
                )
