"""The synopsis catalog: stores, warm-start, absorption, invalidation."""

import pytest

from repro.core.database import Database
from repro.core.options import QueryOptions
from repro.errors import EstimationError, ReproError
from repro.estimation.aggregates import count, sum_of
from repro.estimation.estimate import Estimate
from repro.estimation.selectivity import SelectivityTracker
from repro.observability import RecordingSink
from repro import caches
from repro.realtime import (
    QueryTask,
    TransactionScheduler,
    WriteTask,
    run_transaction,
)
from repro.relational import cmp, rel
from repro.server import (
    DegradeInfeasible,
    Outcome,
    QueryRequest,
    QueryServer,
    synopsis_degraded_estimate,
)
from repro.synopses import (
    SelectivityPosterior,
    SynopsisCatalog,
    aggregate_key,
    relation_fingerprint,
)
from repro.synopses.catalog import MAX_PRIOR_POINTS
from repro.timecontrol import ErrorConstrained


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    caches.get("plans").clear()
    yield
    caches.get("plans").clear()


def make_db(seed: int = 7, rows: int = 20_000) -> Database:
    db = Database(seed=seed)
    db.create_relation(
        "r1",
        [("id", "int"), ("a", "int")],
        rows=[(i, i % 100) for i in range(rows)],
    )
    return db


def query():
    return rel("r1").where(cmp("a", "<", 5))


SYN = QueryOptions(synopses=True)


# ---------------------------------------------------------------------------
# Catalog stores
# ---------------------------------------------------------------------------
class TestCatalogStores:
    def test_posterior_pools_and_counts_runs(self):
        cat = SynopsisCatalog()
        cat.record_selectivity(("h", "fp"), ["r1"], 10, 100)
        cat.record_selectivity(("h", "fp"), ["r1"], 30, 100)
        post = cat.posterior(("h", "fp"))
        assert post == SelectivityPosterior(40.0, 200.0, runs=2)
        assert post.mean == pytest.approx(0.2)

    def test_posterior_evidence_is_capped(self):
        cat = SynopsisCatalog()
        cat.record_selectivity(("h", "fp"), ["r1"], 0, int(MAX_PRIOR_POINTS))
        cat.record_selectivity(("h", "fp"), ["r1"], 10, 100)
        post = cat.posterior(("h", "fp"))
        assert post.points == MAX_PRIOR_POINTS
        assert 0 < post.mean < 0.1  # the new evidence survives rescaling

    def test_zero_point_observations_are_ignored(self):
        cat = SynopsisCatalog()
        cat.record_selectivity(("h", "fp"), ["r1"], 0, 0)
        assert cat.posterior(("h", "fp")) is None

    def test_answer_keeps_best_evidence(self):
        cat = SynopsisCatalog()
        expr = query()
        weak = Estimate(value=10.0, variance=4.0, sample_points=50,
                        population_points=1000)
        strong = Estimate(value=12.0, variance=1.0, sample_points=500,
                          population_points=1000)
        cat.record_answer(expr, count(), "fp", strong, blocks=9)
        cat.record_answer(expr, count(), "fp", weak, blocks=2)
        entry = cat.answer(expr.structural_hash(), count(), "fp")
        assert entry.value == 12.0 and entry.sample_points == 500
        assert entry.runs == 2  # the weaker run still counted as a run
        est = entry.estimate()
        assert est.variance == 1.0 and est.population_points == 1000

    def test_answers_keyed_by_aggregate(self):
        cat = SynopsisCatalog()
        expr = query()
        est = Estimate(value=5.0, variance=1.0, sample_points=10,
                       population_points=100)
        cat.record_answer(expr, count(), "fp", est, blocks=1)
        assert cat.answer(expr.structural_hash(), sum_of("a"), "fp") is None

    def test_aggregate_key(self):
        assert aggregate_key(count()) == "count"
        assert aggregate_key(sum_of("qty")) == "sum:qty"

    def test_relation_fingerprint_tracks_sizes(self):
        db = make_db(rows=1000)
        before = relation_fingerprint(db.catalog, ["r1"])
        db.append_rows("r1", [(10**6, 1)])
        after = relation_fingerprint(db.catalog, ["r1"])
        assert before != after
        assert before.startswith("r1:1000:")

    def test_decay_validation(self):
        with pytest.raises(ReproError):
            SynopsisCatalog(decay=1.0)

    def test_snapshot_restore_round_trip(self):
        cat = SynopsisCatalog()
        cat.record_selectivity(("h", "fp"), ["r1"], 10, 100)
        token = cat.snapshot()
        cat.invalidate_relation("r1")
        assert cat.posterior(("h", "fp")).points < 100
        cat.restore(token)
        assert cat.posterior(("h", "fp")).points == 100.0


# ---------------------------------------------------------------------------
# Invalidation and aging
# ---------------------------------------------------------------------------
class TestInvalidation:
    def test_posteriors_age_then_drop(self):
        cat = SynopsisCatalog(decay=0.5)
        cat.record_selectivity(("h", "fp"), ["r1"], 1, 3)
        event = cat.invalidate_relation("r1")
        assert event.posteriors_aged == 1
        assert cat.posterior(("h", "fp")).points == pytest.approx(1.5)
        event = cat.invalidate_relation("r1")
        assert event.posteriors_dropped == 1
        assert cat.posterior(("h", "fp")) is None

    def test_answers_drop_into_refresh_queue(self):
        cat = SynopsisCatalog()
        expr = query()
        est = Estimate(value=5.0, variance=1.0, sample_points=10,
                       population_points=100)
        cat.record_answer(expr, count(), "fp", est, blocks=1)
        event = cat.invalidate_relation("r1")
        assert event.answers_dropped == 1
        assert cat.answer(expr.structural_hash(), count(), "fp") is None
        pending = cat.pending_refresh()
        assert len(pending) == 1 and pending[0].value == 5.0

    def test_unrelated_relation_untouched(self):
        cat = SynopsisCatalog()
        cat.record_selectivity(("h", "fp"), ["r1"], 1, 100)
        event = cat.invalidate_relation("r2")
        assert event.posteriors_aged == event.posteriors_dropped == 0
        assert cat.posterior(("h", "fp")).points == 100.0

    def test_record_answer_clears_refresh_entry(self):
        cat = SynopsisCatalog()
        expr = query()
        est = Estimate(value=5.0, variance=1.0, sample_points=10,
                       population_points=100)
        cat.record_answer(expr, count(), "fp-old", est, blocks=1)
        cat.invalidate_relation("r1")
        assert cat.pending_refresh()
        cat.record_answer(expr, count(), "fp-new", est, blocks=1)
        assert not cat.pending_refresh()

    def test_requeue_returns_claimed_entry(self):
        cat = SynopsisCatalog()
        expr = query()
        est = Estimate(value=5.0, variance=1.0, sample_points=10,
                       population_points=100)
        cat.record_answer(expr, count(), "fp", est, blocks=1)
        cat.invalidate_relation("r1")
        (entry,) = cat.pending_refresh()
        assert cat.pop_refresh() is entry
        assert not cat.pending_refresh()
        cat.requeue_refresh(entry)  # the refresh run failed
        assert cat.pending_refresh() == [entry]
        # A later real run of the same shape still supersedes the stale
        # entry: record_answer pops the queue by shape.
        cat.record_answer(expr, count(), "fp-new", est, blocks=1)
        assert not cat.pending_refresh()


# ---------------------------------------------------------------------------
# Tracker warm-start semantics
# ---------------------------------------------------------------------------
class TestTrackerWarmStart:
    def test_prior_pools_with_observations(self):
        t = SelectivityTracker("select#1", initial=1.0)
        t.warm_start(10.0, 100.0)
        assert t.sel_prev == pytest.approx(0.1)
        t.record_stage(30, 100)
        assert t.sel_prev == pytest.approx(40 / 200)
        # The run's own evidence stays observed-only.
        assert t.total_tuples == 30 and t.total_points == 100

    def test_sel_plus_uses_prior_before_stage_one(self):
        cold = SelectivityTracker("select#1", initial=1.0)
        warm = SelectivityTracker("select#1", initial=1.0)
        warm.warm_start(10.0, 1000.0)
        assert cold.sel_plus(24.0, 50, 10_000) == 1.0
        assert warm.sel_plus(24.0, 50, 10_000) < 0.5

    def test_zero_selectivity_bound_pools_prior(self):
        t = SelectivityTracker("select#1", initial=1.0, zero_fix_beta=0.05)
        t.warm_start(0.001, 100.0)
        t.record_stage(0, 100)
        cold = SelectivityTracker("select#1", initial=1.0, zero_fix_beta=0.05)
        cold.record_stage(0, 100)
        assert t.zero_selectivity_bound() < cold.zero_selectivity_bound()

    def test_warm_start_guards(self):
        pinned = SelectivityTracker("s", initial=0.5, pinned=True)
        with pytest.raises(EstimationError):
            pinned.warm_start(1.0, 10.0)
        observed = SelectivityTracker("s", initial=1.0)
        observed.record_stage(1, 10)
        with pytest.raises(EstimationError):
            observed.warm_start(1.0, 10.0)
        fresh = SelectivityTracker("s", initial=1.0)
        with pytest.raises(EstimationError):
            fresh.warm_start(1.0, 0.0)

    def test_salvage_restore_keeps_prior(self):
        t = SelectivityTracker("s", initial=1.0)
        t.warm_start(10.0, 100.0)
        token = t.snapshot()
        t.record_stage(5, 50)
        t.restore(token)
        assert t.prior_points == 100.0 and t.stages_observed == 0
        assert t.sel_prev == pytest.approx(0.1)

    def test_per_stage_series_excludes_prior(self):
        t = SelectivityTracker("s", initial=1.0)
        t.warm_start(10.0, 100.0)
        t.record_stage(2, 10)
        assert t.per_stage_selectivities() == [0.2]


# ---------------------------------------------------------------------------
# End-to-end warm-start through Database
# ---------------------------------------------------------------------------
class TestEndToEnd:
    def test_repeat_run_hits_catalog(self):
        db = make_db()
        db.estimate(query(), quota=5.0, seed=3, options=SYN)
        info = db.synopses.info()
        assert info.posteriors == 1 and info.answers == 1
        sink = RecordingSink()
        db.estimate(query(), quota=5.0, seed=3,
                    options=SYN.replace(sink=sink))
        hits = sink.of_kind("synopsis_hit")
        assert len(hits) == 1 and hits[0].scope == "warm_start"
        assert hits[0].prior_points > 0

    def test_pricing_a_plan_is_not_a_catalog_lookup(self):
        db = make_db()
        db.estimate(query(), quota=5.0, seed=3, options=SYN)
        ran = db.synopses.info()
        assert (ran.hits, ran.misses) == (0, 1)
        plans = [db.plan(query(), SYN) for _ in range(3)]
        db.explain(query(), SYN)
        priced = db.synopses.info()
        assert (priced.hits, priced.misses) == (ran.hits, ran.misses)
        # A priced plan is still warm-started; only the counters ignore it.
        assert all(p.trackers()[0].prior_points > 0 for p in plans)
        db.estimate(query(), quota=5.0, seed=4, options=SYN)
        assert db.synopses.info().hits == ran.hits + 1  # a run still counts

    def test_disabled_sessions_never_touch_catalog(self):
        db = make_db()
        db.estimate(query(), quota=5.0, seed=3)  # default: off
        db.estimate(query(), quota=5.0, seed=3, options=QueryOptions(synopses=False))
        info = db.synopses.info()
        assert info.posteriors == info.answers == 0
        assert info.hits == info.misses == 0

    def test_prestored_mode_neither_borrows_nor_deposits_posteriors(self):
        db = make_db()
        db.estimate(query(), quota=5.0, seed=3, options=SYN)
        db.analyze()
        sink = RecordingSink()
        db.estimate(
            query(), quota=5.0, seed=4,
            options=SYN.replace(selectivity_source="prestored", sink=sink),
        )
        assert not sink.of_kind("synopsis_hit")

    def test_catalogs_are_per_database_but_shareable(self):
        db1 = make_db(seed=1)
        db1.estimate(query(), quota=5.0, seed=3, options=SYN)
        db2 = make_db(seed=2)
        assert db2.synopses.info().answers == 0
        shared = Database(seed=3, synopsis_catalog=db1.synopses)
        assert shared.synopses is db1.synopses


# ---------------------------------------------------------------------------
# The blocks-per-answer floor on a repeated workload
# ---------------------------------------------------------------------------
# SHAPES query shapes, each arriving REPEATS times, driven to the same
# error-constrained target with the catalog off (every arrival samples) and
# on (a repeat whose recorded interval already meets the target is answered
# from the catalog at zero blocks, the server's degraded-answer path).
REPEAT_TUPLES = 20_000
SHAPES = 5
REPEATS = 6
TARGET = 0.15  # relative halfwidth
CONFIDENCE = 0.95
REPEAT_QUOTA = 30.0
REPEAT_SEED = 7


def repeated_workload():
    """SHAPES x REPEATS arrivals, round-robin."""
    shapes = [
        rel("orders").where(cmp("qty", "<", 10 * (s + 1))) for s in range(SHAPES)
    ]
    return [shapes[i % SHAPES] for i in range(SHAPES * REPEATS)]


def run_repeated_workload(synopses: bool) -> tuple[int, int, int]:
    """``(answers, sampled blocks, catalog answers)`` of one arm."""
    caches.get("plans").clear()
    db = Database(seed=REPEAT_SEED)
    db.create_relation(
        "orders",
        [("id", "int"), ("qty", "int")],
        rows=[(i, (i * 7919) % 200) for i in range(REPEAT_TUPLES)],
    )
    options = QueryOptions(
        stopping=ErrorConstrained(
            target_relative_halfwidth=TARGET, confidence=CONFIDENCE
        ),
        synopses=synopses,
    )
    answers = blocks = catalog_answers = 0
    for index, expr in enumerate(repeated_workload()):
        if synopses:
            recorded = synopsis_degraded_estimate(db, expr)
            if (
                recorded is not None
                and recorded.relative_error_bound(CONFIDENCE) <= TARGET
            ):
                catalog_answers += 1
                answers += 1
                continue
        report = db.estimate(
            expr, quota=REPEAT_QUOTA, seed=REPEAT_SEED + index, options=options
        ).report
        assert report.estimate is not None, "arm failed to answer"
        blocks += sum(s.blocks_read for s in report.stages)
        answers += 1
    return answers, blocks, catalog_answers


def test_synopses_cut_blocks_per_answer_on_repeated_workload():
    off_answers, off_blocks, _ = run_repeated_workload(synopses=False)
    on_answers, on_blocks, catalog_answers = run_repeated_workload(synopses=True)
    ratio = (off_blocks / off_answers) / (on_blocks / on_answers)
    measured = (
        f"sampled blocks off {off_blocks}, on {on_blocks} ({catalog_answers} "
        f"catalog answers); blocks per answer cut {ratio:.2f}x"
    )
    # Both arms answered the whole workload to the same target.
    assert off_answers == on_answers == SHAPES * REPEATS, measured
    # The catalog really served the repeats...
    assert catalog_answers >= SHAPES * (REPEATS - 2), measured
    # ...and cut the sampled blocks per answer by at least 1.5x.
    assert ratio >= 1.5, measured


# ---------------------------------------------------------------------------
# Mutation invalidates derived state (satellite: plan cache + catalog)
# ---------------------------------------------------------------------------
class TestMutation:
    def test_append_rows_grows_and_invalidates_synopses(self):
        db = make_db(rows=1000)
        db.estimate(query(), quota=5.0, seed=3, options=SYN)
        assert db.synopses.info().answers == 1
        added = db.append_rows("r1", [(10**6 + i, 1) for i in range(5)])
        assert added == 5
        assert db.relation("r1").tuple_count == 1005
        info = db.synopses.info()
        assert info.answers == 0 and info.invalidations == 1
        assert info.refresh_pending == 1

    def test_append_rows_invalidates_plan_cache(self):
        from repro.planner.cache import invalidate_plan_cache_relation

        db = make_db(rows=1000)
        expr = query()
        db.estimate(expr, quota=5.0, seed=3)
        assert caches.get("plans").info().currsize == 1
        db.append_rows("r1", [(10**6, 1)])
        assert caches.get("plans").info().currsize == 0
        # And the helper reports how many entries it evicted.
        db.estimate(expr, quota=5.0, seed=3)
        assert invalidate_plan_cache_relation("r1") == 1
        assert invalidate_plan_cache_relation("unrelated") == 0

    def test_append_rows_drops_stale_statistics(self):
        db = make_db(rows=1000)
        db.analyze()
        assert "r1" in db.statistics
        db.append_rows("r1", [(10**6, 1)])
        assert "r1" not in db.statistics

    def test_drop_relation_invalidates(self):
        db = make_db(rows=1000)
        db.estimate(query(), quota=5.0, seed=3, options=SYN)
        db.drop_relation("r1")
        assert db.synopses.info().answers == 0


# ---------------------------------------------------------------------------
# Realtime write transactions
# ---------------------------------------------------------------------------
class TestWriteTransactions:
    def test_write_task_validation(self):
        from repro.errors import TimeControlError

        with pytest.raises(TimeControlError):
            WriteTask("", "r1")
        with pytest.raises(TimeControlError):
            WriteTask("w", "")
        with pytest.raises(TimeControlError):
            TransactionScheduler(make_db()).run(
                [WriteTask("w", "r1", [(1, 1)])], deadline=1.0
            )

    def test_scheduler_applies_writes_and_invalidates(self):
        db = make_db(rows=1000)
        db.estimate(query(), quota=5.0, seed=3, options=SYN)
        scheduler = TransactionScheduler(db)
        result = scheduler.run(
            [
                WriteTask("w", "r1", [(10**6 + i, 1) for i in range(3)]),
                QueryTask("q", query()),
            ],
            deadline=5.0,
            seed=9,
        )
        assert result.met_deadline
        assert db.relation("r1").tuple_count == 1003
        assert db.synopses.info().invalidations == 1
        assert "w" not in result.quotas  # writes get no sampling budget

    def test_adapter_applies_writes_through_server(self):
        db = make_db(rows=1000)
        server = QueryServer(db, options=SYN)
        server.serve(QueryRequest(expr=query(), quota=5.0, seed=3))
        assert db.synopses.info().answers == 1
        result = run_transaction(
            server,
            [
                WriteTask("w", "r1", [(10**6, 1)]),
                QueryTask("q", query()),
            ],
            deadline=5.0,
            seed=9,
        )
        assert result.met_deadline
        assert db.relation("r1").tuple_count == 1001
        assert db.synopses.info().invalidations == 1


# ---------------------------------------------------------------------------
# Server: synopsis-backed degraded answers, UNCOVERED, refresh hook
# ---------------------------------------------------------------------------
class TestServerSynopses:
    def test_degrade_prefers_synopsis_with_recorded_variance(self):
        db = make_db()
        server = QueryServer(db, policy=DegradeInfeasible(), options=SYN)
        answered = server.serve(QueryRequest(expr=query(), quota=5.0, seed=3))
        assert answered.outcome is Outcome.ANSWERED
        recorded = db.synopses.answer(
            query().structural_hash(),
            count(),
            relation_fingerprint(db.catalog, ["r1"]),
        )
        degraded = server.serve(QueryRequest(expr=query(), quota=1e-4, seed=4))
        assert degraded.outcome is Outcome.DEGRADED
        assert "synopsis" in degraded.reason
        assert degraded.estimate.value == recorded.value
        assert degraded.estimate.variance == recorded.variance

    def test_synopsis_beats_prestored(self):
        db = make_db()
        db.analyze()
        server = QueryServer(db, policy=DegradeInfeasible(), options=SYN)
        server.serve(QueryRequest(expr=query(), quota=5.0, seed=3))
        degraded = server.serve(QueryRequest(expr=query(), quota=1e-4, seed=4))
        assert "synopsis" in degraded.reason
        # A sampled-variance interval is tighter than the flat ±100% one.
        assert degraded.estimate.relative_error_bound(0.95) < 1.0

    def test_prestored_fallback_when_no_synopsis(self):
        db = make_db()
        db.analyze()
        server = QueryServer(db, policy=DegradeInfeasible(), options=SYN)
        degraded = server.serve(QueryRequest(expr=query(), quota=1e-4, seed=4))
        assert degraded.outcome is Outcome.DEGRADED
        assert "prestored" in degraded.reason

    def test_uncovered_outcome_when_nothing_covers(self):
        db = make_db()
        server = QueryServer(db, policy=DegradeInfeasible(), options=SYN)
        outcome = server.serve(QueryRequest(expr=query(), quota=1e-4, seed=4))
        assert outcome.outcome is Outcome.UNCOVERED
        assert outcome.estimate is None

    def test_synopsis_degraded_estimate_misses_after_mutation(self):
        db = make_db(rows=1000)
        db.estimate(query(), quota=5.0, seed=3, options=SYN)
        assert synopsis_degraded_estimate(db, query()) is not None
        db.append_rows("r1", [(10**6, 1)])
        assert synopsis_degraded_estimate(db, query()) is None

    def test_refresh_synopses_rederives_and_charges_clock(self):
        db = make_db(rows=1000)
        server = QueryServer(db, options=SYN)
        server.serve(QueryRequest(expr=query(), quota=5.0, seed=3))
        db.append_rows("r1", [(10**6 + i, 3) for i in range(20)])
        assert db.synopses.info().refresh_pending == 1
        before = server.clock.now()
        refreshed = server.refresh_synopses(budget=5.0)
        assert refreshed == 1
        assert server.clock.now() > before  # capacity was really spent
        info = db.synopses.info()
        assert info.answers == 1 and info.refresh_pending == 0
        assert synopsis_degraded_estimate(db, query()) is not None

    def test_refresh_requeues_entry_when_run_fails(self):
        db = make_db(rows=1000)
        server = QueryServer(db, options=SYN)
        server.serve(QueryRequest(expr=query(), quota=5.0, seed=3))
        db.append_rows("r1", [(10**6, 1)])
        assert db.synopses.info().refresh_pending == 1
        # A budget too small for any feasible stage produces a run with no
        # estimate; the entry must return to the queue, not vanish.
        assert server.refresh_synopses(budget=1e-4) == 0
        assert db.synopses.info().refresh_pending == 1
        assert server.refresh_synopses(budget=5.0) == 1
        assert db.synopses.info().refresh_pending == 0

    def test_refresh_noop_when_disabled_or_drained(self):
        db = make_db(rows=1000)
        off = QueryServer(db)
        assert off.refresh_synopses(budget=5.0) == 0
        on = QueryServer(db, options=SYN)
        assert on.refresh_synopses(budget=5.0) == 0  # nothing queued
