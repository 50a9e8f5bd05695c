"""Property tests: every optimizer rewrite is algebra-preserving.

For ANY random SJIP + set-operation tree, each rule alone — and the full
fixpoint composition — must leave the :class:`ExactEvaluator` result and
the output schema unchanged. :class:`JoinChainReorder` gets its own
generator over name-disjoint join chains (the only trees it may touch) and
the one relaxation its gate buys: equality as a set of *named* tuples,
column order permuted.

A final property closes the loop with the estimator: driving an optimized
staged plan to full coverage yields the exact count, so rewrites cannot
bias estimates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.catalog.types import AttributeType
from repro.costmodel.model import CostModel
from repro.engine.plan import StagedPlan
from repro.planner import default_rules, optimize_expression, plan_logical
from repro.planner.rules import JoinChainReorder
from repro.relational.evaluator import count_exact, rows_exact
from repro.relational.expression import (
    difference,
    intersect,
    join,
    project,
    rel,
    select,
    union,
)
from repro.relational.predicate import And, Or, cmp
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation

RULES = {rule.name: rule for rule in default_rules()}


def build_catalog() -> Catalog:
    schema = Schema.of(id=AttributeType.INT, a=AttributeType.INT)
    catalog = Catalog()
    catalog.register(
        "r1",
        make_relation("r1", schema, [(i, i % 7) for i in range(48)], 16),
    )
    catalog.register(
        "r2",
        make_relation("r2", schema, [(i, i % 5) for i in range(16, 56)], 16),
    )
    catalog.register(
        "r3",
        make_relation("r3", schema, [(i, i % 3) for i in range(32, 72)], 16),
    )
    return catalog


def build_chain_catalog() -> Catalog:
    catalog = Catalog()
    catalog.register(
        "x",
        make_relation(
            "x",
            Schema.of(xa=AttributeType.INT, xb=AttributeType.INT),
            [(i % 8, i % 5) for i in range(24)],
            16,
        ),
    )
    catalog.register(
        "y",
        make_relation(
            "y",
            Schema.of(ya=AttributeType.INT, yb=AttributeType.INT),
            [(i % 8, i % 6) for i in range(40)],
            16,
        ),
    )
    catalog.register(
        "z",
        make_relation(
            "z",
            Schema.of(za=AttributeType.INT, zb=AttributeType.INT),
            [(i % 5, i % 8) for i in range(10)],
            16,
        ),
    )
    return catalog


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
@st.composite
def predicate(draw, attrs=("id", "a")):
    def leaf():
        attr_name = draw(st.sampled_from(attrs))
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        return cmp(attr_name, op, draw(st.integers(0, 8)))

    kind = draw(st.sampled_from(["leaf", "and", "or", "not"]))
    if kind == "leaf":
        return leaf()
    if kind == "and":
        return And((leaf(), leaf()))
    if kind == "or":
        return Or((leaf(), leaf()))
    return ~leaf()


@st.composite
def sjip_setop_tree(draw):
    """Random tree over r1/r2/r3, each relation used at most once.

    Set operations combine subtrees whose schema is still the base
    (id, a) — selects only — so compatibility always holds; joins rename
    via ``_r``, exercising the pushdown rename path.
    """
    names = draw(st.permutations(["r1", "r2", "r3"]))

    def maybe_select(node, attrs=("id", "a")):
        if draw(st.booleans()):
            return select(node, draw(predicate(attrs)))
        return node

    shape = draw(
        st.sampled_from(["single", "setop", "setop3", "join", "join-proj"])
    )
    if shape == "single":
        node = maybe_select(rel(names[0]))
        if draw(st.booleans()):
            node = project(node, draw(st.sampled_from([("a",), ("id", "a")])))
        return maybe_select(node, attrs=node.schema(build_catalog()).names)
    if shape in ("setop", "setop3"):
        op = draw(st.sampled_from([union, intersect, difference]))
        node = op(maybe_select(rel(names[0])), maybe_select(rel(names[1])))
        if shape == "setop3":
            op2 = draw(st.sampled_from([union, intersect, difference]))
            node = op2(node, maybe_select(rel(names[2])))
        return maybe_select(node)
    joined = join(
        maybe_select(rel(names[0])), maybe_select(rel(names[1])), on=["a"]
    )
    out_attrs = ("id", "a", "id_r", "a_r")
    node = maybe_select(joined, attrs=out_attrs)
    if shape == "join-proj":
        node = project(node, draw(st.sampled_from([("id", "a_r"), ("a",)])))
        node = maybe_select(node, attrs=node.attrs)
    return node


@st.composite
def join_chain_tree(draw):
    """Left-deep x-y-z chains where JoinChainReorder is allowed to run."""

    def maybe_select(node, attrs):
        if draw(st.booleans()):
            return select(node, draw(predicate(attrs)))
        return node

    inner = join(
        maybe_select(rel("x"), ("xa", "xb")),
        maybe_select(rel("y"), ("ya", "yb")),
        on=[("xa", "ya")],
    )
    outer = join(
        inner,
        maybe_select(rel("z"), ("za", "zb")),
        on=[draw(st.sampled_from([("xb", "za"), ("yb", "zb")]))],
    )
    all_attrs = ("xa", "xb", "ya", "yb", "za", "zb")
    return maybe_select(outer, all_attrs)


def assert_rows_identical(catalog, before, after):
    assert before.schema(catalog) == after.schema(catalog)
    assert sorted(rows_exact(before, catalog)) == sorted(
        rows_exact(after, catalog)
    )


def assert_relation_identical(catalog, before, after):
    """Equality as a set of named tuples (column order may permute)."""
    b_schema, a_schema = before.schema(catalog), after.schema(catalog)
    assert sorted(b_schema.names) == sorted(a_schema.names)
    assert {(att.name, att.type) for att in b_schema.attributes} == {
        (att.name, att.type) for att in a_schema.attributes
    }

    def keyed(expr, schema):
        return sorted(
            sorted(zip(schema.names, row))
            for row in rows_exact(expr, catalog)
        )

    assert keyed(before, b_schema) == keyed(after, a_schema)


# ----------------------------------------------------------------------
# Per-rule preservation (≥200 random trees each)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rule_name",
    ["fuse-selections", "push-predicates", "prune-projections",
     "normalize-set-ops"],
)
@settings(max_examples=200, deadline=None)
@given(expr=sjip_setop_tree())
def test_each_rule_preserves_exact_rows_and_schema(rule_name, expr):
    catalog = build_catalog()
    optimized, _ = optimize_expression(expr, catalog, rules=[RULES[rule_name]])
    assert_rows_identical(catalog, expr, optimized)


@settings(max_examples=200, deadline=None)
@given(expr=join_chain_tree())
def test_reorder_preserves_named_relation(expr):
    catalog = build_chain_catalog()
    optimized, _ = optimize_expression(
        expr, catalog, rules=[JoinChainReorder()]
    )
    assert_relation_identical(catalog, expr, optimized)


# ----------------------------------------------------------------------
# Fixpoint composition
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(expr=sjip_setop_tree())
def test_fixpoint_preserves_exact_rows_and_schema(expr):
    catalog = build_catalog()
    optimized, applications = optimize_expression(expr, catalog)
    assert_rows_identical(catalog, expr, optimized)
    # Fixpoint really is a fixpoint.
    again, more = optimize_expression(optimized, catalog)
    assert again == optimized and more == ()


@settings(max_examples=100, deadline=None)
@given(expr=join_chain_tree())
def test_fixpoint_on_chains_preserves_named_relation(expr):
    catalog = build_chain_catalog()
    optimized, _ = optimize_expression(expr, catalog)
    assert_relation_identical(catalog, expr, optimized)


# ----------------------------------------------------------------------
# Estimator neutrality: full coverage of an optimized plan is exact
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(expr=sjip_setop_tree(), seed=st.integers(0, 2**16))
def test_optimized_plan_full_coverage_estimate_is_exact(expr, seed):
    catalog = build_catalog()
    rng = np.random.default_rng(seed)
    charger = CostCharger(MachineProfile.uniform(0.0), rng=rng)
    optimized = plan_logical(expr, catalog).expression
    plan = StagedPlan(optimized, catalog, charger, CostModel(), rng)
    plan.advance_stage(1.0)
    estimate = plan.estimate()
    assert estimate.value == pytest.approx(count_exact(expr, catalog))
