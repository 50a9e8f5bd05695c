"""Tests for transaction-level deadline budgeting."""

import numpy as np
import pytest

from repro.core.database import Database
from repro.core.options import QueryOptions
from repro.errors import TimeControlError
from repro.estimation.aggregates import sum_of
from repro.faults import FaultPlan
from repro.realtime.transaction import (
    FeedbackAllocator,
    ProportionalAllocator,
    QueryTask,
    TransactionScheduler,
)
from repro.relational.expression import rel, select
from repro.relational.predicate import cmp
from repro.timecontrol.stopping import ErrorConstrained
from repro.timekeeping.profile import MachineProfile


@pytest.fixture
def db():
    database = Database(
        profile=MachineProfile.sun3_60(noise_sigma=0.1).scaled(0.1), seed=21
    )
    rng = np.random.default_rng(1)
    database.create_relation(
        "r1",
        [("id", "int"), ("a", "int"), ("v", "int")],
        rows=[(i, i % 10, int(rng.integers(0, 50))) for i in range(800)],
        block_size=24,
    )
    return database


def three_tasks():
    return [
        QueryTask("low", select(rel("r1"), cmp("a", "<", 3))),
        QueryTask("high", select(rel("r1"), cmp("a", ">", 6)), weight=2.0),
        QueryTask("sum_v", rel("r1"), aggregate=sum_of("v")),
    ]


class TestQueryTask:
    def test_requires_name_and_positive_weight(self):
        with pytest.raises(TimeControlError):
            QueryTask("", rel("r1"))
        with pytest.raises(TimeControlError):
            QueryTask("x", rel("r1"), weight=0.0)


class TestAllocators:
    def test_proportional_shares_initial_budget(self):
        allocator = ProportionalAllocator()
        tasks = three_tasks()  # weights 1, 2, 1 → shares 1/4, 1/2, 1/4
        assert allocator.allocate(tasks, 0, 8.0) == pytest.approx(2.0)
        # Later allocations ignore leftover: still out of the initial 8.
        assert allocator.allocate(tasks, 1, 7.5) == pytest.approx(4.0)
        assert allocator.allocate(tasks, 2, 1.0) == pytest.approx(2.0)

    def test_proportional_split_is_per_transaction(self):
        allocator = ProportionalAllocator()
        tasks = three_tasks()
        assert allocator.allocate(tasks, 0, 8.0) == pytest.approx(2.0)
        # A new transaction (index 0 again) splits its own budget.
        assert allocator.allocate(tasks, 0, 40.0) == pytest.approx(10.0)
        assert allocator.allocate(tasks, 1, 30.0) == pytest.approx(20.0)

    def test_feedback_splits_remaining(self):
        allocator = FeedbackAllocator()
        tasks = three_tasks()
        assert allocator.allocate(tasks, 0, 8.0) == pytest.approx(2.0)
        # Query 0 finished early: the leftover flows to the rest.
        assert allocator.allocate(tasks, 1, 7.0) == pytest.approx(7.0 * 2 / 3)
        assert allocator.allocate(tasks, 2, 3.0) == pytest.approx(3.0)


class TestScheduler:
    def test_runs_all_queries_within_deadline(self, db):
        scheduler = TransactionScheduler(db)
        outcome = scheduler.run(three_tasks(), deadline=9.0, seed=5)
        assert outcome.completed_queries == 3
        assert outcome.elapsed <= 9.0 + 1.0  # bounded even with overspend
        assert set(outcome.results) == {"low", "high", "sum_v"}
        assert all(q > 0 for q in outcome.quotas.values())

    def test_deadline_met_flag(self, db):
        scheduler = TransactionScheduler(db)
        outcome = scheduler.run(three_tasks(), deadline=12.0, seed=5)
        if outcome.completed_queries == 3 and outcome.elapsed <= 12.0:
            assert outcome.met_deadline
        assert "transaction" in outcome.summary()

    def test_impossible_deadline_aborts(self, db):
        scheduler = TransactionScheduler(db, min_query_quota=0.5)
        outcome = scheduler.run(three_tasks(), deadline=0.6, seed=5)
        assert not outcome.met_deadline
        assert outcome.completed_queries < 3

    def test_feedback_reuses_early_stopper_leftover(self, db):
        """With an error-constrained stop on query 1, the feedback
        allocator gives later queries more than their static share."""
        tasks = [
            QueryTask("quick", select(rel("r1"), cmp("a", "<", 5))),
            QueryTask("rest", select(rel("r1"), cmp("a", ">", 4))),
        ]
        scheduler = TransactionScheduler(
            db,
            allocator=FeedbackAllocator(),
            options=QueryOptions(
                stopping=ErrorConstrained(target_relative_halfwidth=0.5)
            ),
        )
        outcome = scheduler.run(tasks, deadline=10.0, seed=3)
        assert outcome.completed_queries == 2
        consumed_first = sum(
            s.duration for s in outcome.results["quick"].report.stages
        )
        # The second query's quota ≈ deadline − consumed, i.e. it inherited
        # the first query's unused budget.
        assert outcome.quotas["rest"] == pytest.approx(
            10.0 - consumed_first, rel=0.01
        )

    def test_time_wasted_by_faults_is_consumed(self, db):
        """A salvaged stage attempt is charged time: it comes out of the
        deadline, and the next query is not granted it a second time."""
        tasks = three_tasks()[:2]
        outcome = TransactionScheduler(db).run(
            tasks,
            deadline=20.0,
            seed=5,
            measure_overspend=False,
            fault_plan=FaultPlan(read_error_prob=0.005, seed_salt=1),
        )
        reports = [outcome.results[t.name].report for t in tasks]
        wasted = [r.wasted_seconds for r in reports]
        charged = [
            sum(s.duration for s in r.stages) + w for r, w in zip(reports, wasted)
        ]
        assert wasted[0] > 0  # the scenario: the first query lost a stage
        assert outcome.elapsed == pytest.approx(sum(charged))
        assert outcome.quotas["high"] <= 20.0 - charged[0] + 1e-9

    def test_one_scheduler_splits_each_transaction_afresh(self, db):
        """Regression: the proportional split leaked the first transaction's
        budget into every later one run by the same scheduler."""
        tasks = three_tasks()[:2]  # weights 1, 2
        scheduler = TransactionScheduler(db, allocator=ProportionalAllocator())
        scheduler.run(tasks, deadline=4.0, seed=5)
        second = scheduler.run(tasks, deadline=40.0, seed=5)
        fresh = TransactionScheduler(
            db, allocator=ProportionalAllocator()
        ).run(tasks, deadline=40.0, seed=5)
        assert second.quotas["low"] == pytest.approx(40.0 / 3)
        assert second.quotas == fresh.quotas

    def test_validation(self, db):
        scheduler = TransactionScheduler(db)
        with pytest.raises(TimeControlError):
            scheduler.run([], deadline=1.0)
        with pytest.raises(TimeControlError):
            scheduler.run(three_tasks(), deadline=0.0)
        duplicated = [QueryTask("x", rel("r1")), QueryTask("x", rel("r1"))]
        with pytest.raises(TimeControlError):
            scheduler.run(duplicated, deadline=1.0)

    def test_deadline_miss_rate_improves_with_feedback(self, db):
        """The headline of the [AbMo 88] use case: adaptive budgeting
        misses fewer deadlines than static budgeting."""
        def miss_rate(allocator_factory):
            misses = 0
            for seed in range(12):
                scheduler = TransactionScheduler(
                    db,
                    allocator=allocator_factory(),
                    options=QueryOptions(
                        stopping=ErrorConstrained(target_relative_halfwidth=0.4)
                    ),
                )
                outcome = scheduler.run(three_tasks(), deadline=6.0, seed=seed)
                misses += not outcome.met_deadline
            return misses

        assert miss_rate(FeedbackAllocator) <= miss_rate(ProportionalAllocator)
