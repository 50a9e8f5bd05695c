"""Determinism pins for the synopsis catalog.

Two contracts from the issue:

* synopses **off** (the default) is bit-identical to an engine that has
  never heard of the catalog — same estimates, same per-stage schedule,
  same charged clock; and the catalog object stays untouched;
* synopses **on** is replayable: the same seed against the same catalog
  state yields a bit-identical run, because the snapshot/restore tokens
  capture everything the warm-start consults.
"""

import pytest

from repro.core.database import Database
from repro.core.options import QueryOptions
from repro import caches
from repro.relational import cmp, join, rel
from tests.rowwise_oracle import rowwise_stages


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    caches.get("plans").clear()
    yield
    caches.get("plans").clear()


def make_db(seed: int = 11) -> Database:
    db = Database(seed=seed)
    db.create_relation(
        "r1",
        [("id", "int"), ("a", "int")],
        rows=[(i, i % 97) for i in range(12_000)],
    )
    db.create_relation(
        "r2",
        [("a", "int"), ("c", "int")],
        rows=[(i % 13, i) for i in range(3_000)],
    )
    return db


QUERIES = [
    (rel("r1").where(cmp("a", "<", 10)), 4.0),
    (rel("r1").where(cmp("a", "<", 10)).where(cmp("id", ">", 100)), 4.0),
    # A block-sampled join is orders of magnitude dearer than a selection.
    (join(rel("r1"), rel("r2"), on=["a"]), 900.0),
]


def run_signature(
    db: Database, expr, quota: float, seed: int, rowwise: bool = False, **options
):
    with rowwise_stages(rowwise):  # the row-at-a-time stage oracle, or the engine
        result = db.estimate(
            expr, quota=quota, seed=seed, options=QueryOptions(**options)
        )
    report = result.report
    return (
        None if report.estimate is None else (
            report.estimate.value,
            report.estimate.variance,
            report.estimate.sample_points,
        ),
        [
            (s.index, s.fraction, s.duration, s.blocks_read, s.new_points)
            for s in report.stages
        ],
        report.termination,
        sum(s.duration for s in report.stages),
    )


@pytest.mark.parametrize("rowwise", [True, False], ids=["python", "vectorized"])
@pytest.mark.parametrize(
    "expr,quota", QUERIES, ids=["select", "conjunct", "join"]
)
def test_disabled_synopses_bit_identical_to_baseline(rowwise, expr, quota):
    baseline_db = make_db()
    baseline = run_signature(baseline_db, expr, quota, seed=5, rowwise=rowwise)

    db = make_db()
    # Populate the catalog so there is real state that *could* leak in.
    db.estimate(expr, quota=quota, seed=99, options=QueryOptions(synopses=True))
    assert db.synopses.info().answers >= 1
    caches.get("plans").clear()
    with_state = run_signature(
        db, expr, quota, seed=5, rowwise=rowwise, synopses=False
    )

    assert with_state == baseline


def test_disabled_sessions_leave_catalog_untouched():
    db = make_db()
    before = db.synopses.snapshot()
    db.estimate(QUERIES[0][0], quota=4.0, seed=5)
    db.estimate(QUERIES[1][0], quota=4.0, seed=5, options=QueryOptions(synopses=False))
    assert db.synopses.snapshot() == before
    info = db.synopses.info()
    assert info.hits == info.misses == 0


def test_same_seed_same_catalog_state_replays_bit_identically():
    db = make_db()
    warm = QueryOptions(synopses=True)
    db.estimate(QUERIES[0][0], quota=4.0, seed=3, options=warm)
    db.estimate(QUERIES[1][0], quota=4.0, seed=4, options=warm)
    token = db.synopses.snapshot()

    first = run_signature(db, QUERIES[0][0], 4.0, seed=8, synopses=True)
    db.synopses.restore(token)
    second = run_signature(db, QUERIES[0][0], 4.0, seed=8, synopses=True)
    assert first == second


def test_warm_and_cold_runs_share_the_estimator_contract():
    """A warm start may change the stage schedule, never the estimator.

    The reported estimate must always be computable from the run's own
    observed sample (prior pseudo-counts steer ``sel_plus`` only), so a
    warm run's estimate agrees with ``sample mean x population`` on its
    own counts.
    """
    db = make_db()
    warm = QueryOptions(synopses=True)
    db.estimate(QUERIES[0][0], quota=4.0, seed=3, options=warm)
    result = db.estimate(QUERIES[0][0], quota=4.0, seed=12, options=warm)
    report = result.report
    est = report.estimate
    assert est is not None and est.sample_points > 0
    points = sum(s.new_points for s in report.stages if s.completed_in_time)
    assert est.sample_points == points
