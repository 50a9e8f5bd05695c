"""Transactions through the serving layer (``run_transaction``) and the
feedback allocator's budget-conservation property.

The property test pins the heart of the [AbMo 88] use case: the feedback
allocator donates *all* leftover budget forward — under full consumption
the granted quotas sum exactly to the transaction budget, and whatever the
earlier queries leave unused is handed, to the last cent, to the final
pending query.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TimeControlError
from repro.realtime import (
    FeedbackAllocator,
    ProportionalAllocator,
    QueryTask,
    TransactionScheduler,
    run_transaction,
)
from repro.relational.expression import rel, select
from repro.relational.predicate import cmp
from repro.server import AdmitAll, DegradeInfeasible, QueryServer
from repro.server.request import Outcome
from repro.server.workload import demo_database

TUPLES = 1_000


@pytest.fixture(scope="module")
def db():
    return demo_database(seed=17, tuples=TUPLES)


def tasks():
    return [
        QueryTask("narrow", select(rel("r1"), cmp("a", "<", 200))),
        QueryTask(
            "wide", select(rel("r1"), cmp("a", "<", 800)), weight=2.0
        ),
        QueryTask("half", select(rel("r2"), cmp("a", "<", TUPLES // 2))),
    ]


class TestRunTransaction:
    def test_meets_a_comfortable_deadline(self, db):
        server = QueryServer(db, policy=AdmitAll())
        result = run_transaction(server, tasks(), deadline=9.0, seed=3)
        assert result.met_deadline
        assert result.completed_queries == 3
        assert set(result.results) == {"narrow", "wide", "half"}
        assert result.elapsed <= 9.0
        # Every transaction query flowed through the server's bookkeeping.
        assert len(server.outcomes) == 3
        assert all(o.outcome is Outcome.ANSWERED for o in server.outcomes)

    def test_quotas_follow_the_feedback_identity(self, db):
        server = QueryServer(db, policy=AdmitAll())
        deadline = 9.0
        result = run_transaction(
            server, tasks(), deadline=deadline, seed=3
        )
        # First grant is exactly remaining * w0 / W = 9 * 1/4.
        assert result.quotas["narrow"] == pytest.approx(deadline / 4)
        # Each later grant re-splits whatever actually remained.
        elapsed_before_wide = server.outcomes[0].finished_at
        assert result.quotas["wide"] == pytest.approx(
            (deadline - elapsed_before_wide) * 2 / 3
        )

    def test_rejected_query_aborts_the_transaction(self, db):
        server = QueryServer(db, policy=DegradeInfeasible())
        # Tight deadline: the first query gets an infeasible sliver.
        result = run_transaction(server, tasks(), deadline=0.01, seed=3)
        assert not result.met_deadline
        assert result.aborted_after == "narrow"
        assert result.completed_queries <= 1
        # The server still recorded a typed outcome for the attempt.
        assert server.outcomes[-1].outcome in (
            Outcome.DEGRADED,
            Outcome.REJECTED,
        )

    def test_validation_matches_the_scheduler(self, db):
        server = QueryServer(db)
        with pytest.raises(TimeControlError):
            run_transaction(server, tasks(), deadline=0.0)
        with pytest.raises(TimeControlError):
            run_transaction(server, [], deadline=1.0)
        twins = [tasks()[0], tasks()[0]]
        with pytest.raises(TimeControlError, match="duplicate"):
            run_transaction(server, twins, deadline=1.0)

    def test_one_allocator_splits_each_transaction_afresh(self, db):
        """Regression: a proportional allocator kept across transactions
        split every later one out of the first one's budget."""
        allocator = ProportionalAllocator()
        server = QueryServer(db, policy=AdmitAll())
        run_transaction(server, tasks(), 4.0, allocator=allocator, seed=3)
        second = run_transaction(
            server, tasks(), 40.0, allocator=allocator, seed=3
        )
        # Weights 1, 2, 1: the opening grant is a quarter of *this* budget.
        assert second.quotas["narrow"] == pytest.approx(10.0)
        assert second.quotas["wide"] == pytest.approx(20.0)

    def test_agrees_with_the_standalone_scheduler(self, db):
        """Same allocator discipline as TransactionScheduler.run."""
        server = QueryServer(db, policy=AdmitAll())
        via_server = run_transaction(server, tasks(), deadline=9.0, seed=3)
        direct_db = demo_database(seed=17, tuples=TUPLES)
        direct = TransactionScheduler(direct_db).run(
            tasks(), deadline=9.0, seed=3
        )
        assert via_server.met_deadline and direct.met_deadline
        # Both grant the same opening quota from the same identity.
        assert via_server.quotas["narrow"] == pytest.approx(
            direct.quotas["narrow"]
        )


def weights(n):
    return st.lists(
        st.floats(
            min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False
        ),
        min_size=n,
        max_size=n,
    )


@st.composite
def allocation_cases(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    ws = draw(weights(n))
    budget = draw(
        st.floats(min_value=0.1, max_value=1_000.0, allow_nan=False)
    )
    # Per-query consumption as a fraction of its granted quota.
    use = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=n,
            max_size=n,
        )
    )
    return ws, budget, use


def fake_tasks(ws):
    return [
        QueryTask(f"t{i}", rel("r1"), weight=w) for i, w in enumerate(ws)
    ]


class TestFeedbackConservation:
    @given(allocation_cases())
    @settings(max_examples=200, deadline=None)
    def test_full_consumption_sums_to_the_budget(self, case):
        """When every query burns its whole quota, nothing is lost:
        the granted quotas sum exactly to the transaction budget."""
        ws, budget, _ = case
        allocator = FeedbackAllocator()
        batch = fake_tasks(ws)
        remaining = budget
        granted = []
        for index in range(len(batch)):
            quota = allocator.allocate(batch, index, remaining)
            granted.append(quota)
            remaining -= quota  # full consumption
        assert sum(granted) == pytest.approx(budget, rel=1e-9, abs=1e-9)

    @given(allocation_cases())
    @settings(max_examples=200, deadline=None)
    def test_leftover_is_donated_all_the_way_to_the_last_query(self, case):
        """Under arbitrary under-consumption the final pending query is
        granted exactly the whole remaining budget — no time is stranded."""
        ws, budget, use = case
        allocator = FeedbackAllocator()
        batch = fake_tasks(ws)
        remaining = budget
        for index in range(len(batch)):
            quota = allocator.allocate(batch, index, remaining)
            assert quota <= remaining * (1 + 1e-12)
            if index == len(batch) - 1:
                assert quota == pytest.approx(remaining, rel=1e-9, abs=1e-12)
            remaining -= quota * use[index]  # partial consumption

    @given(weights(5), st.floats(min_value=0.5, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_grants_keep_weight_proportions_among_pending(self, ws, budget):
        allocator = FeedbackAllocator()
        batch = fake_tasks(ws)
        first = allocator.allocate(batch, 0, budget)
        total_weight = sum(ws)
        assert first == pytest.approx(budget * ws[0] / total_weight, rel=1e-9)
