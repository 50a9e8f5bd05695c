"""The process-wide logical-plan cache: keying, hits, bypass, eviction."""

import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.catalog.types import AttributeType
from repro import caches
from repro.observability import RecordingSink
from repro.planner import plan_logical
from repro.planner.cache import PLAN_CACHE_MAXSIZE, cache_key
from repro.relational.expression import intersect, join, rel, select
from repro.relational.predicate import And, cmp
from tests.conftest import make_relation


@pytest.fixture(autouse=True)
def fresh_cache():
    caches.get("plans").clear()
    yield
    caches.get("plans").clear()


def build_catalog(r1_rows: int = 40) -> Catalog:
    schema = Schema.of(id=AttributeType.INT, a=AttributeType.INT)
    catalog = Catalog()
    catalog.register(
        "r1",
        make_relation("r1", schema, [(i, i % 7) for i in range(r1_rows)], 16),
    )
    catalog.register(
        "r2",
        make_relation("r2", schema, [(i, i % 5) for i in range(30)], 16),
    )
    return catalog


def pushable():
    return select(join(rel("r1"), rel("r2"), on=["id"]), cmp("a", "<", 4))


def test_repeat_planning_hits_and_returns_equal_outcome():
    catalog = build_catalog()
    first = plan_logical(pushable(), catalog)
    second = plan_logical(pushable(), catalog)
    assert not first.cache_hit and second.cache_hit
    assert second.expression == first.expression
    assert second.applications == first.applications
    info = caches.get("plans").info()
    assert info.hits == 1 and info.misses == 1 and info.currsize == 1


def test_canonically_equal_queries_share_one_entry():
    catalog = build_catalog()
    a = intersect(rel("r1"), rel("r2"))
    b = intersect(rel("r2"), rel("r1"))  # commuted operands, same identity
    assert cache_key(a, catalog) == cache_key(b, catalog)
    # Equal And operand order, same identity too.
    p = select(rel("r1"), And((cmp("a", "<", 4), cmp("id", ">", 2))))
    q = select(rel("r1"), And((cmp("id", ">", 2), cmp("a", "<", 4))))
    assert cache_key(p, catalog) == cache_key(q, catalog)
    plan_logical(a, catalog)
    assert plan_logical(b, catalog).cache_hit


def test_key_fingerprints_base_relation_sizes():
    small = build_catalog(r1_rows=40)
    grown = build_catalog(r1_rows=80)
    assert cache_key(pushable(), small) != cache_key(pushable(), grown)
    plan_logical(pushable(), small)
    # Same query text over different data must plan fresh.
    assert not plan_logical(pushable(), grown).cache_hit


def test_hint_provider_bypasses_cache():
    catalog = build_catalog()

    def hint(expr):
        return 0.5

    first = plan_logical(pushable(), catalog, hint=hint)
    second = plan_logical(pushable(), catalog, hint=hint)
    assert not first.cache_hit and not second.cache_hit
    info = caches.get("plans").info()
    assert info.currsize == 0 and info.hits == 0 and info.misses == 0


def test_clear_resets_entries_and_counters():
    catalog = build_catalog()
    plan_logical(pushable(), catalog)
    plan_logical(pushable(), catalog)
    caches.get("plans").clear()
    info = caches.get("plans").info()
    assert info.hits == 0 and info.misses == 0 and info.currsize == 0
    assert not plan_logical(pushable(), catalog).cache_hit


def test_lru_eviction_bounds_size():
    catalog = build_catalog()
    for i in range(PLAN_CACHE_MAXSIZE + 10):
        plan_logical(select(rel("r1"), cmp("a", "<", i)), catalog)
    info = caches.get("plans").info()
    assert info.currsize == PLAN_CACHE_MAXSIZE
    # The oldest entry was evicted: replanning it misses.
    assert not plan_logical(
        select(rel("r1"), cmp("a", "<", 0)), catalog
    ).cache_hit
    # The newest survives.
    assert plan_logical(
        select(rel("r1"), cmp("a", "<", PLAN_CACHE_MAXSIZE + 9)), catalog
    ).cache_hit


def test_session_plans_report_cache_hits():
    from repro.core.database import Database

    db = Database(seed=1)
    db.create_relation(
        "r1", [("id", "int"), ("a", "int")],
        rows=[(i, i % 7) for i in range(60)],
    )
    db.create_relation(
        "r2", [("id", "int"), ("a", "int")],
        rows=[(i, i % 5) for i in range(60)],
    )
    sink1, sink2 = RecordingSink(), RecordingSink()
    s1 = db.open_session(pushable(), quota=5.0, seed=0, sink=sink1)
    s2 = db.open_session(pushable(), quota=5.0, seed=1, sink=sink2)
    (fresh,), (cached,) = (s.of_kind("plan_optimized") for s in (sink1, sink2))
    assert not fresh.cache_hit and cached.cache_hit
    assert s2.plan.expr == s1.plan.expr
    # Cached or fresh, runs are replayable: same seed → same outcome.
    r1 = db.open_session(pushable(), quota=5.0, seed=7).run()
    r2 = db.open_session(pushable(), quota=5.0, seed=7).run()
    assert r1.estimate == r2.estimate
    assert len(r1.report.stages) == len(r2.report.stages)
