"""Stage-granular preemption (repro.server.preempt + executor suspend).

The mechanics of the preemptive scheduler, layer by layer: the executor
can park a run at a stage boundary and continue it later; the session
wraps that in a resumable lifecycle; :func:`should_preempt` implements the
slack-aware EDF rule; and the server wires it all together behind the
``preempt`` argument (default off). Bit-identity of the suspend/resume
path is pinned separately in ``tests/test_preempt_identity.py``.
"""

from __future__ import annotations

import dataclasses
import heapq
import random

import pytest

from repro.core.options import QueryOptions
from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.observability import RecordingSink
from repro.relational.expression import intersect, rel, select
from repro.relational.predicate import cmp
from repro.server.admission import AdmitAll
from repro.server.preempt import should_preempt
from repro.server.request import Outcome, QueryRequest
from repro.server.scheduler import QueryServer, Ticket, TicketState
from repro.server.workload import demo_database
from repro.timecontrol.strategies import FixedFractionHeuristic

TUPLES = 1_000


@pytest.fixture(scope="module")
def db():
    return demo_database(seed=5, tuples=TUPLES)


def query(threshold: int = 600):
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


def suspend_once():
    """A checkpoint that accepts the first boundary it sees, then declines
    (so the resumed run is not immediately re-suspended)."""
    state = {"fired": False}

    def checkpoint(report):
        if state["fired"]:
            return False
        state["fired"] = True
        return True

    return checkpoint


class TestExecutorSuspendResume:
    def test_checkpoint_suspends_between_stages(self, db):
        session = db.open_session(query(), quota=6.0, seed=7)
        out = session.run(checkpoint=suspend_once())
        assert out is None
        assert session.suspended and not session.finished
        state = session.suspended_state
        # The checkpoint is only consulted after at least one stage banked
        # an estimate, so there is always something to resume *to*.
        assert state.stages_completed == 1
        assert state.report.stages[0].estimate is not None

    def test_suspension_is_free_on_the_clock(self, db):
        session = db.open_session(query(), quota=6.0, seed=7)
        session.run(checkpoint=suspend_once())
        state = session.suspended_state
        # Parked exactly at the boundary: no charge for suspending, and
        # the residual budget is just the distance to the deadline.
        assert state.suspended_at == session.charger.clock.now()
        assert state.residual_budget(state.suspended_at) == pytest.approx(
            state.deadline - state.suspended_at
        )

    def test_resume_completes_the_run(self, db):
        session = db.open_session(query(), quota=6.0, seed=7)
        session.run(checkpoint=suspend_once())
        result = session.resume()
        assert result is not None
        assert session.finished and not session.suspended
        assert result.report.stages_completed_in_time > 1
        assert result.estimate is not None

    def test_lifecycle_misuse_raises(self, db):
        session = db.open_session(query(), quota=6.0, seed=7)
        with pytest.raises(ReproError):
            session.resume()  # nothing suspended yet
        session.run(checkpoint=suspend_once())
        with pytest.raises(ReproError):
            session.run()  # suspended: must resume, not rerun
        session.resume()
        with pytest.raises(ReproError):
            session.run()  # already finished

    def test_expired_deadline_resume_keeps_the_banked_estimate(self, db):
        session = db.open_session(query(), quota=4.0, seed=7)
        session.run(checkpoint=suspend_once())
        banked = session.suspended_state.report.stages[0].estimate
        # The queue starves the parked run past its absolute deadline.
        session.charger.clock.advance(10.0)
        result = session.resume()
        assert result is not None
        assert result.report.termination == "deadline"
        assert result.estimate is not None
        assert result.estimate.value == pytest.approx(banked.value)

    def test_a_suspended_run_is_its_report(self, db):
        """A stage's retries are the faults its report records, so a run
        parked between a faulted attempt and its retry stores nothing else
        and resumes exactly like the run that never parked."""

        def after_fault(report):
            return bool(report.faults)

        def run(checkpoint):
            session = db.open_session(
                query(), quota=6.0, seed=7, fault_plan=FaultPlan(fail_stages=(2,))
            )
            session.run(checkpoint=checkpoint)
            return session

        parked = run(after_fault)
        state = parked.suspended_state
        assert {f.name for f in dataclasses.fields(state)} == {
            "report", "deadline", "token", "consumed", "suspended_at"
        }
        assert [(f.stage, f.action) for f in state.report.faults] == [(2, "retry")]
        assert state.stages_completed == 1
        resumed = parked.resume().report
        straight = run(None).result.report
        for report in (resumed, straight):
            assert [(f.stage, f.action) for f in report.faults] == [(2, "retry")]
        assert resumed.faults[0].wasted_seconds == straight.faults[0].wasted_seconds
        assert [s.estimate for s in resumed.stages] == [
            s.estimate for s in straight.stages
        ]

    def test_plain_run_is_unchanged(self, db):
        session = db.open_session(query(), quota=4.0, seed=7)
        result = session.run()
        assert result is not None and session.finished
        assert not session.suspended


class TestShouldPreempt:
    def ticket(self, deadline, priority=0, seq=0, quota=5.0, min_cost=0.1):
        return Ticket(
            priority=priority,
            deadline=deadline,
            seq=seq,
            request=request(quota=quota, seed=seq + 1),
            min_cost=min_cost,
        )

    def test_no_earlier_deadline_means_no_preemption(self):
        running = self.ticket(deadline=5.0)
        later = self.ticket(deadline=9.0, seq=1)
        assert should_preempt(running, [later], now=1.0) is None

    def test_key_ties_never_preempt(self):
        # Strictly-earlier only: equal keys cannot ping-pong the server.
        running = self.ticket(deadline=5.0)
        twin = self.ticket(deadline=5.0, seq=1)
        assert should_preempt(running, [twin], now=1.0) is None

    def test_earlier_deadline_with_slack_preempts(self):
        running = self.ticket(deadline=20.0, min_cost=0.5)
        tight = self.ticket(deadline=3.0, seq=1, quota=2.0)
        decision = should_preempt(running, [tight], now=1.0)
        assert decision is not None
        assert decision.challenger_id == tight.request.request_id
        # The tight ticket drains by its own deadline at the latest, and
        # the runner keeps its whole budget beyond that point.
        assert decision.projected_resume == pytest.approx(3.0)
        assert decision.residual_budget == pytest.approx(17.0)
        assert decision.residual_budget >= running.min_cost

    def test_runner_without_slack_keeps_the_server(self):
        # Suspending would trade a guaranteed partial answer for nothing:
        # by the time the earlier work drained, the runner could not even
        # afford its minimum stage.
        running = self.ticket(deadline=3.5, min_cost=1.0)
        tight = self.ticket(deadline=3.0, seq=1, quota=2.0)
        assert should_preempt(running, [tight], now=1.0) is None

    def test_higher_priority_tier_preempts_despite_later_deadline(self):
        running = self.ticket(deadline=5.0, priority=1)
        urgent = self.ticket(deadline=9.0, seq=1, priority=0, quota=2.0)
        assert should_preempt(running, [urgent], now=0.0) is not None


class TestTicketOrdering:
    def test_key_ties_break_on_seq_without_comparing_payloads(self):
        # priority/deadline ties are real once preempted tickets re-queue
        # next to equal-deadline arrivals; the payload fields must stay
        # out of the comparison or sorting raises TypeError on
        # QueryRequest. (Regression: payload fields were compare=True.)
        a = Ticket(
            priority=0, deadline=2.0, seq=1, request=request(seed=1),
            min_cost=0.2, queue_wait=0.3,
        )
        b = Ticket(
            priority=0, deadline=2.0, seq=0, request=request(seed=2),
            min_cost=0.1, queue_wait=0.1,
        )
        assert sorted([a, b]) == [b, a]
        heap = []
        heapq.heappush(heap, a)
        heapq.heappush(heap, b)
        assert heapq.heappop(heap) is b

    def test_earlier_deadline_still_wins(self):
        a = Ticket(priority=0, deadline=3.0, seq=0, request=request(seed=1))
        b = Ticket(priority=0, deadline=2.0, seq=1, request=request(seed=2))
        assert sorted([a, b]) == [b, a]


class TestServerPreemption:
    def loose(self, quota=8.0, arrival=0.0, seed=11):
        return request(
            expr=intersect(rel("r1"), rel("r2")),
            quota=quota,
            arrival=arrival,
            seed=seed,
            client_id="loose",
        )

    def tight(self, quota=4.0, arrival=0.5, seed=22):
        return request(
            quota=quota, arrival=arrival, seed=seed, client_id="tight"
        )

    def test_switch_defaults_off(self, db):
        assert QueryServer(db).preempt is False
        assert QueryServer(db, preempt=True).preempt is True

    def test_tight_arrival_preempts_a_loose_runner(self, db):
        sink = RecordingSink()
        server = QueryServer(db, policy=AdmitAll(), sink=sink, preempt=True)
        outcomes = {
            o.request.client_id: o
            for o in server.process([self.loose(), self.tight()])
        }
        (preempted,) = sink.of_kind("query_preempted")
        (resumed,) = sink.of_kind("query_resumed")
        assert preempted.request_id == outcomes["loose"].request.request_id
        assert preempted.challenger_id == outcomes["tight"].request.request_id
        assert preempted.stages_completed >= 1
        assert resumed.request_id == preempted.request_id
        assert resumed.preemptions == 1
        # The tight request runs inside its own window instead of queueing
        # behind the loose one's whole budget...
        assert outcomes["tight"].outcome is Outcome.ANSWERED
        # ...and the loose runner still finishes with a sampled answer.
        assert outcomes["loose"].outcome is Outcome.ANSWERED
        assert server.metrics.preempted == 1
        assert server.metrics.resumed == 1

    def test_run_to_completion_misses_the_same_tight_request(self, db):
        server = QueryServer(db, policy=AdmitAll(), preempt=False)
        outcomes = {
            o.request.client_id: o
            for o in server.process([self.loose(), self.tight()])
        }
        assert outcomes["tight"].outcome is Outcome.MISSED
        assert server.metrics.preempted == 0

    def test_preemption_counters_in_as_dict_and_render(self, db):
        server = QueryServer(db, policy=AdmitAll(), preempt=True)
        server.process([self.loose(), self.tight()])
        snapshot = server.metrics.as_dict()
        assert snapshot["preempted"] == 1
        assert snapshot["resumed"] == 1
        assert "preemption: 1 suspended, 1 resumed" in server.metrics.render()

    def test_preempted_request_reports_first_dispatch_accounting(self, db):
        sink = RecordingSink()
        server = QueryServer(db, policy=AdmitAll(), sink=sink, preempt=True)
        outcomes = {
            o.request.client_id: o
            for o in server.process([self.loose(), self.tight()])
        }
        loose = outcomes["loose"]
        # One RequestStarted per request even across suspensions, and the
        # outcome's queue_wait/started_at are the *first* dispatch's.
        started = [
            e
            for e in sink.of_kind("request_started")
            if e.request_id == loose.request.request_id
        ]
        assert len(started) == 1
        assert loose.queue_wait == pytest.approx(started[0].queue_wait)
        assert loose.started_at == pytest.approx(started[0].clock)

    def test_parked_ticket_is_never_shed(self, db):
        server = QueryServer(db, preempt=True)  # enforcing policy
        parked = Ticket(
            priority=0,
            deadline=0.5,
            seq=0,
            request=request(quota=4.0, seed=1),
            min_cost=2.0,  # projected budget 0.5 << min_cost: doomed...
            state=TicketState.PARKED,  # ...but parked: banked stages exist
        )
        doomed = Ticket(
            priority=0,
            deadline=1.0,
            seq=1,
            request=request(quota=4.0, seed=2),
            min_cost=2.0,
            state=TicketState.QUEUED,
        )
        queue = [parked, doomed]
        heapq.heapify(queue)
        shed = server._shed_overload(queue)
        assert [t.seq for t in queue] == [0]
        assert [o.request.request_id for o in shed] == [
            doomed.request.request_id
        ]


# ---------------------------------------------------------------------------
# The hit-ratio floor: a mixed-deadline stream, preempt on vs off
# ---------------------------------------------------------------------------
# An open-loop stream — a loose intersection (10 s window) every period, a
# tight selection (4.5 s window) half a second behind it — served twice on
# the same simulated clock. Every request gets an answer attempt
# (``AdmitAll``), so the hit-ratio difference is pure scheduling, and
# ``FixedFractionHeuristic`` keeps stage boundaries (the only preemption
# points) frequent however the cost model calibrates.
STREAM_DB_SEED = 5
STREAM_SEED = 7
PERIOD = 12.0  # seconds between loose arrivals (one pair per period)
LOOSE_QUOTA = 10.0
TIGHT_QUOTA = 4.5
TIGHT_LAG = 0.5  # the tight request lands this long after the loose one
PAIRS = 7
MIN_HIT_RATIO_GAIN = 0.3
MIN_TIGHT_CLASS_GAIN = 0.5


def mixed_deadline_stream() -> list[QueryRequest]:
    """One loose and one tight request per period, jittered per pair; every
    arrival time is fixed up front, whatever the server is doing."""
    rng = random.Random(STREAM_SEED)
    requests = []
    for i in range(PAIRS):
        base = PERIOD * i
        requests.append(
            QueryRequest(
                expr=intersect(rel("r1"), rel("r2")),
                quota=LOOSE_QUOTA,
                arrival=base,
                seed=rng.randrange(1, 10_000),
                client_id="loose",
                request_id=f"loose/{i}",
            )
        )
        requests.append(
            QueryRequest(
                expr=select(rel("r1"), cmp("a", "<", rng.randrange(450, 750))),
                quota=TIGHT_QUOTA,
                arrival=base + TIGHT_LAG,
                seed=rng.randrange(1, 10_000),
                client_id="tight",
                request_id=f"tight/{i}",
            )
        )
    return requests


def serve_mixed_stream(preempt: bool) -> QueryServer:
    server = QueryServer(
        demo_database(seed=STREAM_DB_SEED, tuples=TUPLES),
        policy=AdmitAll(),
        preempt=preempt,
        options=QueryOptions(strategy=FixedFractionHeuristic()),
    )
    server.process(mixed_deadline_stream())
    return server


def class_hit_ratio(server: QueryServer, client_id: str) -> float:
    mine = [o for o in server.outcomes if o.request.client_id == client_id]
    return sum(1 for o in mine if o.answered) / len(mine)


def test_preemption_improves_deadline_hit_ratio():
    on = serve_mixed_stream(preempt=True)
    off = serve_mixed_stream(preempt=False)
    hit_on = on.metrics.hit_ratio_admitted
    hit_off = off.metrics.hit_ratio_admitted
    tight_on, tight_off = class_hit_ratio(on, "tight"), class_hit_ratio(off, "tight")
    loose_on, loose_off = class_hit_ratio(on, "loose"), class_hit_ratio(off, "loose")
    measured = (
        f"{PAIRS} pairs: preempt on hit ratio {hit_on} (tight {tight_on:.3f}, "
        f"loose {loose_on:.3f}, {on.metrics.preempted} preempted / "
        f"{on.metrics.resumed} resumed); off {hit_off} (tight {tight_off:.3f}, "
        f"loose {loose_off:.3f})"
    )
    # The mechanism really fired: not a lucky schedule.
    assert on.metrics.preempted > 0, measured
    assert on.metrics.resumed == on.metrics.preempted, measured
    assert off.metrics.preempted == 0, measured
    # Preemption buys a real hit-ratio gain...
    assert hit_on is not None and hit_off is not None, measured
    assert hit_on - hit_off >= MIN_HIT_RATIO_GAIN, measured
    # ...where it should: the tight class is rescued...
    assert tight_on - tight_off >= MIN_TIGHT_CLASS_GAIN, measured
    # ...without costing the loose class it suspends.
    assert loose_on >= loose_off, measured
    # Every request ended in a typed outcome in both arms.
    assert on.metrics.completed == 2 * PAIRS
    assert off.metrics.completed == 2 * PAIRS
