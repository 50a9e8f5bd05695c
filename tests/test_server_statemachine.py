"""Model-checking the ticket lifecycle (repro.server.scheduler).

A hypothesis ``RuleBasedStateMachine`` drives one :class:`QueryServer`
through random interleavings of request batches, committed writes,
synopsis refreshes and fault-plan flips, and after every step checks the
contract the serving layer makes whatever the interleaving: no request is
lost or finished twice, the event stream and the counters agree, and the
lifecycle's forbidden moves stay forbidden. ``preempt`` and the admission
policy are drawn per run, so both scheduler modes are covered without
environment variables.

Tier-1 budget: 30 examples of at most 12 steps over 400-tuple relations.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.observability import RecordingSink
from repro.relational.expression import intersect, rel, select
from repro.relational.predicate import cmp
from repro.server.admission import AdmitAll, DegradeInfeasible, RejectInfeasible
from repro.server.request import Outcome, QueryRequest
from repro.server.scheduler import LIFECYCLE, QueryServer, Ticket, TicketState
from repro.server.workload import demo_database
from repro.timecontrol.strategies import FixedFractionHeuristic

TUPLES = 400
POLICIES = {
    "reject": RejectInfeasible,
    "degrade": DegradeInfeasible,
    "admit_all": AdmitAll,
}
ARMED = FaultPlan(read_error_prob=0.15, slow_read_prob=0.05, salvage="finish")


def shape(kind: int, threshold: int):
    if kind == 0:
        return select(rel("r1"), cmp("a", "<", threshold))
    if kind == 1:
        return select(
            select(rel("r1"), cmp("a", "<", threshold)),
            cmp("b", "<", 12_000 - threshold),
        )
    return intersect(rel("r1"), rel("r2"))


request_specs = st.tuples(
    st.integers(0, 2),  # expression shape
    st.sampled_from([3_000, 6_000, 9_000]),  # selection threshold
    st.sampled_from([0.8, 5.0]),  # quota class
    st.integers(0, 1),  # priority tier
    st.sampled_from([0.0, 0.05, 0.4, 1.5, 5.0]),  # gap since the last arrival
)


class ServerLifecycle(RuleBasedStateMachine):
    @initialize(
        preempt=st.booleans(),
        policy=st.sampled_from(sorted(POLICIES)),
        synopses=st.booleans(),
        many_stages=st.booleans(),
    )
    def build(self, preempt, policy, synopses, many_stages):
        self.db = demo_database(seed=5, tuples=TUPLES)
        self.sink = RecordingSink()
        self.server = QueryServer(
            self.db,
            policy=POLICIES[policy](),
            # Spending a fixed share of the remaining budget per stage gives
            # runs many stage boundaries — the points preemption acts at.
            strategy_factory=(
                (lambda: FixedFractionHeuristic(gamma=0.3)) if many_stages else None
            ),
            sink=self.sink,
            max_fault_retries=2,
            synopses=synopses,
            preempt=preempt,
        )
        self.submitted: list[str] = []
        self.appended = 0

    # -- rules ------------------------------------------------------------
    @rule(specs=st.lists(request_specs, min_size=1, max_size=5), chain=st.booleans())
    def submit(self, specs, chain):
        arrival = self.server.clock.now()
        batch = []
        for kind, threshold, quota, priority, gap in specs:
            arrival += gap
            batch.append(self.request(kind, threshold, quota, priority, arrival))
        followed = []

        def follow_up(outcome):
            # One closed-loop resubmission per batch, fed back mid-stream.
            if not chain or followed:
                return None
            followed.append(outcome.request.request_id)
            return self.request(0, 5_000, 0.8, 0, self.server.clock.now() + 0.1)

        before = len(self.server.outcomes)
        returned = self.server.process(batch, on_complete=follow_up)
        assert returned == self.server.outcomes[before:]

    def request(self, kind, threshold, quota, priority, arrival) -> QueryRequest:
        request_id = f"r{len(self.submitted)}"
        self.submitted.append(request_id)
        return QueryRequest(
            expr=shape(kind, threshold),
            quota=quota,
            arrival=arrival,
            priority=priority,
            seed=len(self.submitted),
            request_id=request_id,
        )

    @rule()
    def write(self):
        rows = [
            (5_000_000 + self.appended + i, (701 * i) % 10_000, i, "x" * 8)
            for i in range(10)
        ]
        self.appended += len(rows)
        self.db.append_rows("r1", rows)
        self.db.analyze("r1")

    @rule(budget=st.sampled_from([0.5, 3.0]))
    def refresh(self, budget):
        self.server.refresh_synopses(budget)

    @rule(armed=st.booleans())
    def flip_faults(self, armed):
        self.server.session_kwargs["fault_plan"] = ARMED if armed else FaultPlan()

    # -- invariants (checked after every rule) ------------------------------
    def events(self, kind):
        return self.sink.of_kind(kind)

    @invariant()
    def every_request_ends_exactly_once(self):
        outcomes = Counter(o.request.request_id for o in self.server.outcomes)
        arrived = Counter(e.request_id for e in self.events("request_arrived"))
        completed = Counter(e.request_id for e in self.events("request_completed"))
        expected = Counter(self.submitted)
        # Nothing lost, nothing finished twice — which also means the run
        # queue drained: an admitted ticket left behind has no outcome.
        assert outcomes == arrived == completed == expected

    @invariant()
    def lifecycle_events_are_well_formed(self):
        started = Counter(e.request_id for e in self.events("request_started"))
        assert all(count == 1 for count in started.values())
        preempted = Counter(e.request_id for e in self.events("query_preempted"))
        resumed = Counter(e.request_id for e in self.events("query_resumed"))
        assert preempted == resumed  # every parked run was resumed
        assert set(preempted) <= set(started)
        for outcome in self.server.outcomes:
            request_id = outcome.request.request_id
            if outcome.outcome is Outcome.SHED:
                assert request_id not in preempted  # parked is never shed
            if outcome.started_at is not None and outcome.admitted:
                assert started[request_id] == 1
            else:
                assert request_id not in started
        if not self.server.preempt:
            assert not preempted

    @invariant()
    def the_clock_never_runs_backwards(self):
        clocks = [e.clock for e in self.sink.events if hasattr(e, "clock")]
        assert clocks == sorted(clocks)

    @invariant()
    def counters_equal_event_counts(self):
        metrics = self.server.metrics
        assert (
            metrics.completed
            == metrics.arrived
            == len(self.server.outcomes)
            == len(self.submitted)
        )
        decided = Counter(e.action for e in self.events("admission_decided"))
        assert metrics.admitted == decided["admit"]
        assert metrics.rejected_at_admission == decided["reject"]
        assert metrics.degraded_at_admission == decided["degrade"]
        completed = Counter(e.outcome for e in self.events("request_completed"))
        for outcome in Outcome:
            assert metrics.count(outcome) == completed[outcome.value]
        assert metrics.preempted == len(self.events("query_preempted"))
        assert metrics.resumed == len(self.events("query_resumed"))

    @invariant()
    def outcomes_are_consistent_with_their_admission(self):
        action = {e.request_id: e.action for e in self.events("admission_decided")}
        for outcome in self.server.outcomes:
            assert outcome.admitted == (action[outcome.request.request_id] == "admit")
            if outcome.outcome is Outcome.ANSWERED:
                assert outcome.estimate is not None and outcome.admitted
            if outcome.outcome in (Outcome.REJECTED, Outcome.UNCOVERED):
                assert not outcome.admitted and outcome.estimate is None
            if outcome.outcome in (Outcome.SHED, Outcome.MISSED):
                assert outcome.admitted


ServerLifecycle.TestCase.settings = settings(
    max_examples=30, stateful_step_count=12, deadline=None
)
TestServerLifecycle = ServerLifecycle.TestCase


# ----------------------------------------------------------------------
# The forbidden moves raise inside the transition function
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    return QueryServer(demo_database(seed=5, tuples=TUPLES))


def ticket_in(state) -> Ticket:
    request = QueryRequest(expr=shape(0, 5_000), quota=2.0, request_id="t/1")
    return Ticket(
        priority=0, deadline=request.deadline, seq=0, request=request, state=state
    )


EVERY_STATE = [*TicketState, *Outcome]


class TestIllegalTransitions:
    @pytest.mark.parametrize("terminal", list(Outcome))
    @pytest.mark.parametrize("to", EVERY_STATE)
    def test_nothing_leaves_a_terminal_state(self, server, terminal, to):
        ticket = ticket_in(terminal)
        with pytest.raises(ReproError, match="illegal ticket transition"):
            server._transition(ticket, to)
        assert ticket.state is terminal

    @pytest.mark.parametrize(
        "to", [s for s in EVERY_STATE if s is not TicketState.RUNNING]
    )
    def test_a_parked_ticket_can_only_be_resumed(self, server, to):
        # In particular parked → SHED: banked stages are never discarded.
        ticket = ticket_in(TicketState.PARKED)
        with pytest.raises(ReproError, match="illegal ticket transition"):
            server._transition(ticket, to)
        assert ticket.state is TicketState.PARKED

    def test_refused_moves_emit_nothing_and_bank_nothing(self, server):
        before = server.metrics.as_dict()
        ticket = ticket_in(TicketState.ARRIVED)
        for to in (TicketState.RUNNING, TicketState.PARKED, Outcome.SHED):
            with pytest.raises(ReproError):
                server._transition(ticket, to)
        assert server.metrics.as_dict() == before
        assert (ticket.queue_wait, ticket.started_at, ticket.budget) == (0.0, None, 0.0)

    def test_the_table_is_the_documented_lifecycle(self):
        live, end = TicketState, Outcome
        assert LIFECYCLE == {
            live.ARRIVED: {live.QUEUED, end.REJECTED, end.DEGRADED, end.UNCOVERED},
            live.QUEUED: {live.RUNNING, end.SHED, end.MISSED},
            live.RUNNING: {live.PARKED, end.ANSWERED, end.DEGRADED, end.MISSED},
            live.PARKED: {live.RUNNING},
        }

    def test_legal_terminal_moves_build_the_outcome(self, server):
        ticket = ticket_in(TicketState.QUEUED)
        outcome = server._transition(ticket, Outcome.SHED, "overload")
        assert ticket.state is Outcome.SHED
        assert outcome.outcome is Outcome.SHED and outcome.admitted
        assert outcome.reason == "overload"
