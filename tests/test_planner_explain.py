"""Database.explain, planner trace events, and the lowering contract: a
plan lowers the tree it is given, and ``Database`` rewrites before it lowers."""

import numpy as np
import pytest

from repro.core.database import Database
from repro.core.options import QueryOptions
from repro.core.session import QuerySession
from repro.engine.plan import StagedPlan
from repro.errors import ReproError
from repro.observability import RecordingSink
from repro import caches
from repro.planner import plan_logical
from repro.planner import rewrite
from repro.planner.explain import predicted_stage_costs, render_tree
from repro.relational.expression import (
    RelationRef,
    intersect,
    join,
    project,
    rel,
    select,
)
from repro.relational.predicate import cmp
from repro.server import QueryServer
from repro.server.admission import minimum_stage_cost
from repro.timecontrol.executor import TimeConstrainedExecutor
from repro.timecontrol.strategies import DEFAULT_STRATEGY


@pytest.fixture(autouse=True)
def fresh_cache():
    caches.get("plans").clear()
    yield
    caches.get("plans").clear()


def build_db(seed: int = 7) -> Database:
    db = Database(seed=seed)
    db.create_relation(
        "orders",
        [("oid", "int"), ("qty", "int"), ("pid", "int")],
        rows=[(i, i % 50, i % 20) for i in range(2_000)],
    )
    db.create_relation(
        "parts",
        [("part", "int"), ("w", "int")],
        rows=[(i, i % 7) for i in range(200)],
    )
    return db


def pushable():
    return select(
        join(rel("orders"), rel("parts"), on=[("pid", "part")]),
        cmp("qty", ">", 40),
    )


# ----------------------------------------------------------------------
# Database.explain
# ----------------------------------------------------------------------
def test_explain_shows_rewrite_and_cheaper_stage():
    explanation = build_db().explain(pushable())
    assert explanation.optimized
    assert [a.rule for a in explanation.applications] == ["push-predicates"]
    # Trees: selection above the join before, below it after.
    assert str(explanation.before).startswith("select(")
    assert str(explanation.after).startswith("join(")
    # Per-stage predicted costs itemized for both plans, scans included.
    before_labels = {n.label for n in explanation.before_costs.nodes}
    assert {"scan(orders)", "scan(parts)"} <= before_labels
    assert explanation.before_costs.total > 0
    assert explanation.after_costs.total > 0
    # Pushdown makes the cheapest useful stage strictly cheaper.
    assert explanation.after_costs.total < explanation.before_costs.total
    assert explanation.predicted_speedup > 1.0


def test_explain_render_is_complete():
    explanation = build_db().explain(pushable())
    text = explanation.render()
    for section in (
        "logical plan (as written)",
        "rewrites",
        "logical plan (optimized)",
        "push-predicates",
        "predicted minimum stage",
        "speedup",
    ):
        assert section in text
    assert text == str(explanation)


def test_explain_trivial_query_reports_no_rewrites():
    explanation = build_db().explain(select(rel("orders"), cmp("qty", ">", 40)))
    assert not explanation.optimized
    assert explanation.applications == ()
    assert explanation.before == explanation.after
    assert explanation.predicted_speedup == pytest.approx(1.0)
    assert "(no rule fired)" in explanation.render()


def test_explain_second_call_reports_cache_hit():
    db = build_db()
    assert not db.explain(pushable()).cache_hit
    assert db.explain(pushable()).cache_hit


def test_render_tree_box_drawing():
    text = render_tree(pushable())
    lines = text.splitlines()
    assert lines[0] == "select [qty>40]"
    assert any("join [pid=part]" in line for line in lines)
    assert any(line.endswith("orders") for line in lines)
    assert any("└─ parts" in line for line in lines)


# ----------------------------------------------------------------------
# A plan lowers the tree it is given
# ----------------------------------------------------------------------
def as_written_session(db, expr, quota, seed):
    """A session over a by-hand plan of ``expr`` as written (no rewrite)."""
    rng = np.random.default_rng(seed)
    plan = StagedPlan(
        expr, db.catalog, db._make_charger(rng), db.default_cost_model(), rng
    )
    executor = TimeConstrainedExecutor(plan, DEFAULT_STRATEGY)
    return QuerySession(expr, quota, plan, executor)


def run_signature(db, seed, as_written=False):
    if as_written:
        session = as_written_session(db, pushable(), 2_000.0, seed)
    else:
        session = db.open_session(pushable(), quota=2_000.0, seed=seed)
    result = session.run()
    report = result.report
    return (
        None if result.estimate is None else
        (result.estimate.value, result.estimate.variance),
        report.termination,
        [(s.fraction, s.blocks_read, s.new_points) for s in report.stages],
        session.plan.blocks_drawn(),
        session.charger.clock.now(),
    )


def operator_kinds(plan):
    """The plan's operator kinds in tree order, read off tracker labels."""
    return [tracker.label.split("#")[0] for tracker in plan.trackers()]


def test_hand_built_plan_lowers_the_written_tree_node_for_node():
    db = build_db()
    rng = np.random.default_rng(0)
    plan = StagedPlan(
        pushable(), db.catalog, db._make_charger(rng),
        db.default_cost_model(), rng,
    )
    written = [
        type(node).__name__.lower()
        for node in pushable().walk()
        if not isinstance(node, RelationRef)
    ]
    assert plan.expr == pushable()
    assert operator_kinds(plan) == written == ["select", "join"]
    assert len(plan.trackers()) == pushable().operator_count()
    session = db.open_session(pushable(), quota=5.0, seed=0)
    assert operator_kinds(session.plan) == ["join", "select"]


def test_database_lowers_the_optimizers_rewrite():
    db = build_db()
    rewritten = plan_logical(pushable(), db.catalog).expression
    assert rewritten != pushable()
    assert db.plan(pushable()).expr == rewritten
    assert db.open_session(pushable(), quota=5.0, seed=0).plan.expr == rewritten
    # A by-hand plan of the rewrite prices like the session's plan.
    rng = np.random.default_rng(0)
    by_hand = StagedPlan(
        rewritten, db.catalog, db._make_charger(rng),
        db.default_cost_model(), rng,
    )
    session = db.open_session(pushable(), quota=5.0, seed=0)
    assert (
        predicted_stage_costs(by_hand).total
        == predicted_stage_costs(session.plan).total
    )


@pytest.mark.parametrize(
    "lower",
    [
        lambda db: db.open_session(pushable(), quota=5.0, seed=0),
        lambda db: db.plan(pushable()),
        lambda db: db.explain(pushable()),
    ],
    ids=["open_session", "plan", "explain"],
)
def test_one_rewrite_per_lowering(monkeypatch, lower):
    # Patched on the module, as a tracer wraps it: the call site looks the
    # function up per call.
    calls = []
    original = rewrite.plan_logical

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(rewrite, "plan_logical", counting)
    lower(build_db())
    assert calls == [pushable()]


def test_malformed_query_fails_before_the_rewrite(monkeypatch):
    monkeypatch.setattr(
        rewrite, "plan_logical", lambda *a, **k: pytest.fail("rewritten")
    )
    with pytest.raises(ReproError):
        build_db().plan(select(rel("orders"), cmp("nope", ">", 1)))


def test_optimize_is_refused_everywhere():
    db = build_db()
    with pytest.raises(TypeError, match="optimize"):
        QueryOptions(optimize=False)
    with pytest.raises(ReproError, match="unknown query option.*optimize"):
        db.open_session(pushable(), quota=5.0, optimize=False)
    with pytest.raises(TypeError, match="optimize"):
        QueryServer(db, optimize=False)


def test_optimized_run_estimates_the_same_query():
    db = build_db()
    exact = db.count(pushable())
    on = run_signature(build_db(), 5)
    off = run_signature(build_db(), 5, as_written=True)
    # Different plans, same answer ballpark: both CIs bracket the truth
    # loosely here; the strict equivalence contract lives in the
    # exact-evaluator property tests.
    (value_on, _), *_ = on
    (value_off, _), *_ = off
    assert value_on == pytest.approx(exact, rel=0.5)
    assert value_off == pytest.approx(exact, rel=0.5)
    # The optimized plan affords at least as many blocks in-quota.
    assert on[3] >= off[3]


# ----------------------------------------------------------------------
# Trace events
# ----------------------------------------------------------------------
def test_optimized_traced_session_emits_planner_events():
    db = build_db()
    sink = RecordingSink()
    session = db.open_session(pushable(), quota=50.0, seed=0, sink=sink)
    applied = sink.of_kind("rule_applied")
    summaries = sink.of_kind("plan_optimized")
    assert [e.rule for e in applied] == ["push-predicates"]
    assert len(summaries) == 1
    event = summaries[0]
    assert event.rules == "push-predicates" and event.rules_applied == 1
    assert event.before_hash == pushable().structural_hash()
    assert event.after_hash == session.plan.expr.structural_hash()
    assert event.operators_before == 2 and event.operators_after == 2
    # Events round-trip through the JSONL registry.
    from repro.observability import event_from_dict

    assert event_from_dict(event.to_dict()) == event
    assert event_from_dict(applied[0].to_dict()) == applied[0]


def test_planner_events_come_before_any_synopsis_hit():
    # The rewrite is traced before a node is built, so before the binder
    # warm-starts one.
    db = build_db()
    db.estimate(pushable(), quota=500.0, seed=1, synopses=True)
    sink = RecordingSink()
    db.open_session(pushable(), quota=5.0, seed=2, synopses=True, sink=sink)
    assert sink.kinds() == [
        "rule_applied", "plan_optimized", "synopsis_hit", "synopsis_hit"
    ]


def test_untouched_query_emits_no_planner_events_and_starts_clean():
    db = build_db()
    sink = RecordingSink()
    session = db.open_session(
        select(rel("orders"), cmp("qty", ">", 40)), quota=50.0, seed=0,
        sink=sink,
    )
    assert sink.of_kind("rule_applied") == []
    assert sink.of_kind("plan_optimized") == []
    session.run()
    assert sink.kinds()[0] == "query_start"


# ----------------------------------------------------------------------
# Admission prices the optimized plan
# ----------------------------------------------------------------------
def test_minimum_stage_cost_prices_the_plan_it_will_run():
    db = build_db()
    cost_model = db.default_cost_model()
    optimized = db.plan(pushable(), cost_model=cost_model)
    as_written = StagedPlan(pushable(), db.catalog, None, cost_model, None)
    assert minimum_stage_cost(optimized) < minimum_stage_cost(as_written)


def test_projection_query_explains_and_prices():
    db = build_db()
    expr = select(
        project(project(rel("orders"), ("oid", "qty")), ("qty",)),
        cmp("qty", ">", 40),
    )
    explanation = db.explain(expr)
    rules = [a.rule for a in explanation.applications]
    assert "prune-projections" in rules and "push-predicates" in rules
    assert explanation.after_costs.total <= explanation.before_costs.total


def test_setop_normalization_shares_plan_identity():
    db = build_db()
    db.create_relation(
        "orders_b",
        [("oid", "int"), ("qty", "int"), ("pid", "int")],
        rows=[(i, i % 50, i % 20) for i in range(1_000, 3_000)],
    )
    a = intersect(rel("orders"), rel("orders_b"))
    b = intersect(rel("orders_b"), rel("orders"))
    ex_a = db.explain(a)
    ex_b = db.explain(b)
    assert ex_a.after.canonical_str() == ex_b.after.canonical_str()
    assert ex_b.cache_hit  # commuted operands found the same cache entry


# ----------------------------------------------------------------------
# What pushdown buys under a hard quota
# ----------------------------------------------------------------------
# The rewrite cannot change what a query means, so its value under a time
# constraint is throughput: cheaper stages let the Figure 3.4 bisection
# afford larger fractions inside the same quota. The selective predicate
# written above the join runs as the rewritten plan every session runs and
# as a plan of the tree as written: same data, seeds and quota.
PUSHDOWN_ORDERS = 200_000
PUSHDOWN_PARTS = 800
PUSHDOWN_QUOTA = 1_200.0
PUSHDOWN_TIGHT_QUOTA = 300.0
PUSHDOWN_SEEDS = (0, 1, 2, 3, 4)
BLOCKS_FLOOR = 1.5


def pushdown_db() -> Database:
    db = Database(seed=11)
    db.create_relation(
        "orders",
        [("oid", "int"), ("qty", "int"), ("pid", "int")],
        rows=((i, i % 50, i % 40) for i in range(PUSHDOWN_ORDERS)),
    )
    db.create_relation(
        "parts",
        [("part", "int"), ("w", "int")],
        rows=((i, i % 7) for i in range(PUSHDOWN_PARTS)),
    )
    return db


def pushdown_query():
    return select(
        join(rel("orders"), rel("parts"), on=[("pid", "part")]),
        cmp("qty", ">", 44),
    )


def pushdown_arm(db, seed, quota, as_written):
    """``(blocks drawn, estimate or None)`` of one run of the query."""
    if as_written:
        session = as_written_session(db, pushdown_query(), quota, seed)
    else:
        session = db.open_session(pushdown_query(), quota=quota, seed=seed)
    result = session.run()
    estimate = None if result.estimate is None else result.estimate.value
    return session.plan.blocks_drawn(), estimate


def test_pushdown_buys_blocks_within_fixed_quota():
    db = pushdown_db()
    explanation = db.explain(pushdown_query())
    assert explanation.optimized
    blocks = {
        seed: (
            pushdown_arm(db, seed, PUSHDOWN_QUOTA, as_written=False)[0],
            pushdown_arm(db, seed, PUSHDOWN_QUOTA, as_written=True)[0],
        )
        for seed in PUSHDOWN_SEEDS
    }
    ratios = [rewritten / max(written, 1) for rewritten, written in blocks.values()]
    measured = (
        f"blocks drawn (rewritten, as written) per seed {blocks}; ratios "
        f"{[round(r, 2) for r in ratios]}; predicted cheapest-stage speedup "
        f"{explanation.predicted_speedup:.2f}x"
    )
    # The floor holds on every seed, not just on the mean.
    assert min(ratios) >= BLOCKS_FLOOR, measured
    assert sum(ratios) / len(ratios) >= BLOCKS_FLOOR, measured
    assert explanation.predicted_speedup > 1.0, measured
    # At a quota where the plan as written cannot afford stage 1, the
    # rewritten plan still answers.
    seed = PUSHDOWN_SEEDS[0]
    _, tight_written = pushdown_arm(db, seed, PUSHDOWN_TIGHT_QUOTA, as_written=True)
    _, tight_rewritten = pushdown_arm(
        db, seed, PUSHDOWN_TIGHT_QUOTA, as_written=False
    )
    assert tight_written is None
    assert tight_rewritten is not None
