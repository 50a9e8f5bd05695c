"""Tests of QuerySession (repro.core.session).

A session owns one run's mutable machinery; the Database facade's
``estimate`` entrypoint is a one-line wrapper over
``open_session(...).run()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.database import Database
from repro.core.session import QuerySession
from repro.costmodel.model import CostModel
from repro.engine.plan import StagedPlan
from repro.errors import ReproError
from repro.estimation import avg_of, sum_of
from repro.observability import NULL_SINK, RecordingSink
from repro.relational import cmp, rel, select
from repro.timecontrol.executor import TimeConstrainedExecutor
from repro.timecontrol.strategies import OneAtATimeInterval, SingleInterval
from repro.timekeeping.profile import MachineProfile


@pytest.fixture
def db() -> Database:
    database = Database(
        profile=MachineProfile.uniform(0.01, noise_sigma=0.15), seed=42
    )
    database.create_relation(
        "r1",
        [("id", "int"), ("a", "int")],
        rows=[(i, i % 10) for i in range(200)],
        block_size=16,
    )
    return database


EXPR = select(rel("r1"), cmp("a", "<", 3))


class TestSessionLifecycle:
    def test_open_session_builds_but_does_not_run(self, db):
        session = db.open_session(EXPR, quota=5.0, seed=1)
        assert not session.finished
        assert session.result is None
        assert session.report is None
        assert session.plan.stages_completed == 0

    def test_run_returns_result_and_finishes(self, db):
        session = db.open_session(EXPR, quota=5.0, seed=1)
        result = session.run()
        assert session.finished
        assert session.result is result
        assert session.report is result.report
        assert result.estimate is not None

    def test_session_is_single_use(self, db):
        session = db.open_session(EXPR, quota=5.0, seed=1)
        session.run()
        with pytest.raises(ReproError, match="already ran"):
            session.run()

    def test_machinery_stays_inspectable_after_run(self, db):
        session = db.open_session(EXPR, quota=5.0, seed=1)
        session.run()
        assert session.plan.stages_completed >= 1
        trackers = session.plan.trackers()
        assert trackers and trackers[0].observations

    def test_convenience_views_expose_context(self, db):
        sink = RecordingSink()
        session = db.open_session(EXPR, quota=5.0, seed=1, sink=sink)
        assert session.sink is sink is session.plan.sink
        assert session.charger is session.plan.charger
        assert session.rng is session.plan.rng
        assert session.executor.plan is session.plan

    def test_default_sink_is_null(self, db):
        session = db.open_session(EXPR, quota=5.0, seed=1)
        assert session.sink is NULL_SINK

    def test_default_strategy_is_one_at_a_time(self, db):
        session = db.open_session(EXPR, quota=5.0, seed=1)
        assert session.executor.strategy == OneAtATimeInterval(d_beta=24.0)
        override = db.open_session(
            EXPR, quota=5.0, seed=1, strategy=SingleInterval(d_alpha=2.0)
        )
        assert isinstance(override.executor.strategy, SingleInterval)


class TestSessionIndependence:
    def test_two_sessions_share_no_mutable_state(self, db):
        a = db.open_session(EXPR, quota=5.0, seed=7)
        b = db.open_session(EXPR, quota=5.0, seed=7)
        assert a.charger is not b.charger
        assert a.rng is not b.rng
        assert a.plan is not b.plan
        assert a.plan.cost_model is not b.plan.cost_model

    def test_same_seed_sessions_replay_identically(self, db):
        first = db.open_session(EXPR, quota=5.0, seed=7).run()
        second = db.open_session(EXPR, quota=5.0, seed=7).run()
        assert first.estimate == second.estimate
        assert first.report.termination == second.report.termination
        assert len(first.report.stages) == len(second.report.stages)

    def test_unseeded_sessions_draw_independent_streams(self, db):
        a = db.open_session(EXPR, quota=5.0)
        b = db.open_session(EXPR, quota=5.0)
        assert a.rng.random() != b.rng.random()


class TestFacadeRoutesThroughSessions:
    def test_estimate_equals_session_run(self, db):
        via_facade = db.estimate(EXPR, quota=5.0, seed=3)
        via_session = db.open_session(EXPR, quota=5.0, seed=3).run()
        assert via_facade.estimate == via_session.estimate
        assert via_facade.report.termination == via_session.report.termination

    def test_estimate_sets_sum_aggregate(self, db):
        result = db.estimate(EXPR, sum_of("a"), quota=5.0, seed=3)
        assert result.report.aggregate == "sum"
        assert result.estimate is not None

    def test_estimate_sets_avg_aggregate(self, db):
        result = db.estimate(EXPR, avg_of("a"), quota=5.0, seed=3)
        assert result.report.aggregate == "avg"
        assert result.estimate is not None
        exact = db.aggregate(EXPR, avg_of("a"))
        assert result.estimate.value == pytest.approx(exact, rel=0.5)


class TestOptionValidation:
    def test_invalid_selectivity_source_rejected(self, db):
        with pytest.raises(ReproError, match="selectivity_source"):
            db.open_session(EXPR, quota=5.0, selectivity_source="psychic")


class TestStandaloneSession:
    def test_session_usable_standalone(self, db):
        """QuerySession runs without the facade, given a plan and executor."""
        rng = np.random.default_rng(5)
        plan = StagedPlan(
            EXPR, db.catalog, db._make_charger(rng), CostModel(), rng
        )
        executor = TimeConstrainedExecutor(plan, OneAtATimeInterval(d_beta=24.0))
        session = QuerySession(EXPR, 5.0, plan, executor)
        result = session.run()
        assert result.report.stages
        assert session.finished and session.sink is NULL_SINK
