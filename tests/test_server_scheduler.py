"""The deadline-aware scheduler (repro.server.scheduler).

The server's contract is total: every request ends in exactly one typed
outcome, nothing ever raises to the submitting client, and nothing is
silently dropped. On top of that, the run queue is earliest-deadline-first
within priority tiers, queue wait is charged against the budget on the
shared simulated clock, and overload sheds the latest-deadline work.
"""

from __future__ import annotations

import pytest

from repro.core.database import Database
from repro.observability import RecordingSink
from repro.relational.expression import rel, select
from repro.relational.predicate import cmp
from repro.server.admission import AdmitAll, DegradeInfeasible, RejectInfeasible
from repro.server.request import Outcome, QueryRequest
from repro.server.scheduler import QueryServer
from repro.server.workload import (
    ClosedLoopClient,
    demo_database,
    open_loop_requests,
    run_closed_loop,
    selection_mix,
)

TUPLES = 1_000


@pytest.fixture(scope="module")
def db():
    return demo_database(seed=5, tuples=TUPLES)


def query(threshold: int = TUPLES // 2):
    return select(rel("r1"), cmp("a", "<", threshold))


def request(quota=2.0, arrival=0.0, priority=0, seed=1, expr=None, **kw):
    return QueryRequest(
        expr=expr if expr is not None else query(),
        quota=quota,
        arrival=arrival,
        priority=priority,
        seed=seed,
        **kw,
    )


class TestTotalContract:
    def test_every_request_gets_exactly_one_typed_outcome(self, db):
        server = QueryServer(db, policy=DegradeInfeasible())
        requests = [
            request(quota=2.0, arrival=0.0, seed=1),
            request(quota=1e-4, arrival=0.1, seed=2),  # infeasible
            request(
                expr=rel("no_such_relation"), arrival=0.2, seed=3, quota=1.0
            ),  # unplannable
            request(quota=2.0, arrival=0.3, seed=4),
        ]
        outcomes = server.process(requests)
        assert len(outcomes) == len(requests)
        assert {o.request.request_id for o in outcomes} == {
            r.request_id for r in requests
        }
        for outcome in outcomes:
            assert isinstance(outcome.outcome, Outcome)
            assert outcome.reason

    def test_unplannable_query_is_rejected_with_reason(self, db):
        server = QueryServer(db)
        outcome = server.serve(
            request(expr=rel("no_such_relation"), quota=1.0, seed=1)
        )
        assert outcome.outcome is Outcome.REJECTED
        assert "planned" in outcome.reason

    def test_requires_a_simulated_clock(self):
        wall = Database(clock="wall")
        with pytest.raises(ValueError, match="simulated"):
            QueryServer(wall)


class TestScheduling:
    def test_edf_order_within_a_priority_tier(self, db):
        server = QueryServer(db, policy=AdmitAll())
        late = request(quota=9.0, arrival=0.0, seed=1, client_id="late")
        soon = request(quota=3.0, arrival=0.0, seed=2, client_id="soon")
        outcomes = server.process([late, soon])
        # Decision order == dispatch order: earliest deadline first.
        assert [o.request.client_id for o in outcomes] == ["soon", "late"]

    def test_priority_tiers_beat_deadlines(self, db):
        server = QueryServer(db, policy=AdmitAll())
        urgent = request(
            quota=9.0, arrival=0.0, priority=0, seed=1, client_id="urgent"
        )
        soon = request(
            quota=2.0, arrival=0.0, priority=1, seed=2, client_id="soon"
        )
        outcomes = server.process([urgent, soon])
        assert [o.request.client_id for o in outcomes] == ["urgent", "soon"]

    def test_queue_wait_is_charged_against_the_budget(self, db):
        sink = RecordingSink()
        server = QueryServer(db, policy=AdmitAll(), sink=sink)
        first = request(quota=2.0, arrival=0.0, seed=1)
        second = request(quota=6.0, arrival=0.0, seed=2)
        outcomes = server.process([first, second])
        waited = next(
            o for o in outcomes if o.request.request_id == second.request_id
        )
        assert waited.queue_wait > 0
        started = {
            e.request_id: e for e in sink.of_kind("request_started")
        }[second.request_id]
        # The budget handed to the session is quota minus time spent queued.
        assert started.budget == pytest.approx(6.0 - waited.queue_wait)
        assert started.budget < 6.0

    def test_idle_server_sleeps_to_next_arrival(self, db):
        server = QueryServer(db)
        outcome = server.serve(request(quota=2.0, arrival=0.0, seed=3))
        assert outcome.outcome is Outcome.ANSWERED
        resumed = server.serve(request(quota=2.0, arrival=50.0, seed=4))
        assert resumed.outcome is Outcome.ANSWERED
        assert server.clock.now() >= 50.0

    def test_serve_rebases_past_arrivals_to_now(self, db):
        server = QueryServer(db)
        server.serve(request(quota=2.0, seed=1))
        t = server.clock.now()
        outcome = server.serve(request(quota=2.0, arrival=0.0, seed=2))
        assert outcome.request.arrival == pytest.approx(t)
        assert outcome.outcome is Outcome.ANSWERED


class TestOverload:
    def test_enforcing_policy_sheds_displaced_work(self, db):
        """A high-priority burst displaces queued low-priority work.

        rB is feasible when admitted, but the priority-0 burst that arrives
        while rA runs is dispatched first; rB's projected budget at its turn
        goes negative and the scheduler sheds it instead of burning time.
        """
        server = QueryServer(db, policy=RejectInfeasible())
        ra = request(quota=2.0, arrival=0.0, priority=0, seed=1, client_id="a")
        rb = request(quota=5.8, arrival=0.0, priority=1, seed=2, client_id="b")
        h1 = request(quota=3.0, arrival=0.5, priority=0, seed=3, client_id="h")
        h2 = request(quota=5.0, arrival=0.6, priority=0, seed=4, client_id="h")
        outcomes = {
            o.request.request_id: o
            for o in server.process([ra, rb, h1, h2])
        }
        assert outcomes[ra.request_id].outcome is Outcome.ANSWERED
        shed = outcomes[rb.request_id]
        assert shed.outcome is Outcome.SHED
        assert "overload" in shed.reason or "budget exhausted" in shed.reason
        assert shed.admitted
        assert shed.queue_wait > 0

    def test_admit_all_burns_time_and_misses(self, db):
        server = QueryServer(db, policy=AdmitAll())
        requests = open_loop_requests(
            count=12,
            quota=2.0,
            overload=4.0,
            make_query=selection_mix(TUPLES),
            tuples=TUPLES,
            seed=9,
        )
        outcomes = server.process(requests)
        states = {o.outcome for o in outcomes}
        assert Outcome.MISSED in states  # doomed work ran and produced nothing
        assert Outcome.SHED not in states  # AdmitAll never sheds
        assert server.metrics.hit_ratio_admitted < 1.0

    def test_admission_on_protects_admitted_requests(self, db):
        server = QueryServer(db, policy=RejectInfeasible())
        requests = open_loop_requests(
            count=12,
            quota=2.0,
            overload=4.0,
            make_query=selection_mix(TUPLES),
            tuples=TUPLES,
            seed=9,
        )
        outcomes = server.process(requests)
        answered = sum(1 for o in outcomes if o.outcome is Outcome.ANSWERED)
        assert answered > 0
        assert server.metrics.hit_ratio_admitted >= 0.9


class TestClosedLoop:
    def test_clients_keep_one_request_in_flight(self, db):
        import numpy as np

        server = QueryServer(db, policy=DegradeInfeasible())
        clients = [
            ClosedLoopClient(
                client_id=f"user{i}",
                quota=1.0,
                think_time=0.2,
                make_query=selection_mix(TUPLES),
                requests_left=3,
                rng=np.random.default_rng(100 + i),
            )
            for i in range(2)
        ]
        outcomes = run_closed_loop(server, clients)
        assert len(outcomes) == 6  # 2 clients x 3 requests, all accounted for
        per_client = {}
        for outcome in outcomes:
            per_client.setdefault(outcome.request.client_id, []).append(outcome)
        for arrivals in per_client.values():
            times = [o.request.arrival for o in arrivals]
            assert times == sorted(times)  # think → submit → wait, in order

    def test_on_complete_feeds_followups(self, db):
        server = QueryServer(db)
        fired = []

        def chain(outcome):
            if len(fired) >= 2:
                return None
            fired.append(outcome.request.request_id)
            return request(
                quota=1.0, arrival=server.clock.now(), seed=50 + len(fired)
            )

        outcomes = server.process([request(quota=1.0, seed=49)], on_complete=chain)
        assert len(outcomes) == 3  # the seed request plus two follow-ups


class TestSharedState:
    def test_outcomes_accumulate_across_calls(self, db):
        server = QueryServer(db)
        server.serve(request(quota=1.0, seed=1))
        server.serve(request(quota=1.0, seed=2))
        assert len(server.outcomes) == 2
        assert server.metrics.completed == 2

    def test_shared_cost_model_calibrates_across_requests(self, db):
        server = QueryServer(db)
        assert server._cost_model is not None
        before = server._cost_model.observation_counts()
        server.serve(request(quota=2.0, seed=1))
        after = server._cost_model.observation_counts()
        assert sum(after.values()) > sum(before.values())

    def test_trace_queries_interleaves_session_events(self, db):
        sink = RecordingSink()
        server = QueryServer(db, sink=sink, trace_queries=True)
        server.serve(request(quota=2.0, seed=1))
        kinds = set(sink.kinds())
        assert "request_started" in kinds
        assert "stage_end" in kinds  # per-query events share the stream


class TestSessionKwargsValidation:
    """``session_kwargs`` is checked once, at construction. (Regression: a
    server-owned or misspelt key constructed fine, then every request came
    back ``REJECTED "query cannot be planned: … got multiple values for
    keyword argument 'clock'"`` — or, for ``sink``, collided at dispatch
    and turned every admitted request into ``MISSED``.)"""

    @pytest.mark.parametrize(
        "name",
        ["clock", "seed", "cost_model", "strategy", "stopping",
         "measure_overspend", "aggregate", "synopses"],
    )
    def test_names_the_server_sets_at_admission_are_refused(self, db, name):
        with pytest.raises(ValueError, match=f"'{name}'.*server sets"):
            QueryServer(db, session_kwargs={name: None})

    def test_the_dispatch_only_sink_is_refused_too(self, db):
        # ``sink`` never reached the admission probe, so it used to pass
        # admission and blow up only when the request was dispatched.
        with pytest.raises(ValueError, match="'sink'.*server sets"):
            QueryServer(db, session_kwargs={"sink": RecordingSink()})

    @pytest.mark.parametrize(
        "name",
        ["fault_plans", "buffer_pool", "bufferpool", "quota", "partitions",
         "block_size", "step_specs", "optimize"],
    )
    def test_unknown_or_misspelt_options_are_refused(self, db, name):
        with pytest.raises(ValueError, match=f"unknown query option '{name}'"):
            QueryServer(db, session_kwargs={name: None})

    def test_real_query_options_still_flow_into_every_session(self, db):
        from repro.faults.plan import FaultPlan

        server = QueryServer(
            db,
            session_kwargs={
                "fault_plan": FaultPlan(),
                "full_fulfillment": True,
                "max_stages": 8,
            },
        )
        outcome = server.serve(request(quota=2.0, seed=1))
        assert outcome.outcome is Outcome.ANSWERED
        assert len(outcome.result.report.stages) <= 8
