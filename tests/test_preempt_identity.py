"""Invariant 11: suspension is invisible to the run it suspends.

Three identities, in increasing scope:

* **Executor/session**: a run suspended at every stage boundary and
  immediately resumed is *bit-identical* to the uninterrupted run — same
  estimates, same charged costs, same stage schedule, same trace events.
  Suspension charges nothing and draws no randomness, so the sampled
  prefix it resumes from is exactly the prefix the uninterrupted run
  continues (the sampling-algebra argument for unbiased resumption).
* **Server, switch off**: ``preempt=False`` (the default) is
  run-to-completion serving; the untouched server suite and the recorded
  streams of ``tests/test_server_golden.py`` pin "off ≡ pre-preemption".
* **Server, switch on but idle**: with no competing arrivals the
  preemption point never fires, and the served stream is byte-identical
  to the switch-off stream. Preemption replays deterministically under
  injected faults too: a suspended ticket keeps its own injector, so
  parked state never leaks into the challenger's session.
"""

from __future__ import annotations

import pytest

from repro.core.options import QueryOptions
from repro.faults.plan import FaultPlan
from repro.observability import RecordingSink
from repro.relational.expression import intersect, rel, select
from repro.relational.predicate import cmp
from repro.server.admission import AdmitAll
from repro.server.request import QueryRequest
from repro.server.scheduler import QueryServer
from repro.server.workload import demo_database

TUPLES = 1_000


def query(threshold: int = 600):
    return select(rel("r1"), cmp("a", "<", threshold))


def fresh_db():
    return demo_database(seed=5, tuples=TUPLES)


def suspend_at_every_boundary():
    """Accept each stage boundary exactly once, so every boundary parks
    the run once and the immediate resume proceeds to the next stage."""
    state = {"last": -1}

    def checkpoint(report):
        stages = len(report.stages)
        if stages != state["last"]:
            state["last"] = stages
            return True
        return False

    return checkpoint


def stage_signature(report):
    return [
        (
            s.index,
            s.fraction,
            s.duration,
            s.blocks_read,
            s.estimate.value,
            s.estimate.variance,
        )
        for s in report.stages
    ]


class TestExecutorIdentity:
    @pytest.mark.parametrize(
        "expr,quota",
        [
            (select(rel("r1"), cmp("a", "<", 600)), 6.0),
            (intersect(rel("r1"), rel("r2")), 8.0),
        ],
    )
    def test_suspend_resume_bit_identical_to_uninterrupted(self, expr, quota):
        plain_sink, chopped_sink = RecordingSink(), RecordingSink()

        plain = fresh_db().open_session(
            expr, quota=quota, seed=7, sink=plain_sink
        )
        plain_result = plain.run()

        chopped = fresh_db().open_session(
            expr, quota=quota, seed=7, sink=chopped_sink
        )
        checkpoint = suspend_at_every_boundary()
        out = chopped.run(checkpoint=checkpoint)
        suspensions = 0
        while out is None:
            suspensions += 1
            out = chopped.resume(checkpoint=checkpoint)

        assert suspensions >= 1  # the chopped run really was chopped
        a, b = plain_result.report, out.report
        assert stage_signature(a) == stage_signature(b)
        assert a.termination == b.termination
        assert a.estimate.value == b.estimate.value
        assert a.estimate.variance == b.estimate.variance
        # Same charged costs: both clocks end at the same instant.
        assert (
            plain.charger.clock.now() == chopped.charger.clock.now()
        )
        # Same trace, event for event — QueryStart/QueryEnd once each,
        # identical stage schedule, identical clocks inside every event.
        assert plain_sink.events == chopped_sink.events

    def test_elapsed_accounting_spans_segments(self):
        sink = RecordingSink()
        session = fresh_db().open_session(
            query(), quota=6.0, seed=7, sink=sink
        )
        fired = []

        def once(report):
            if not fired:
                fired.append(True)
                return True
            return False

        assert session.run(checkpoint=once) is None
        parked_at = session.charger.clock.now()
        assert session.suspended_state.suspended_at == parked_at
        session.resume()
        # The QueryEnd elapsed time sums both segments with no double
        # charge: it equals wall distance start → end because the
        # immediate resume let no parked time pass.
        (end,) = sink.of_kind("query_end")
        start = session.result.report.started_at
        assert end.elapsed_seconds == pytest.approx(
            session.charger.clock.now() - start
        )


def outcome_signature(outcomes):
    return [
        (
            o.request.request_id,
            o.outcome.value,
            o.reason,
            o.queue_wait,
            o.started_at,
            o.finished_at,
            None if o.estimate is None else (o.estimate.value, o.estimate.variance),
        )
        for o in outcomes
    ]


def run_server(preempt, fault_plan):
    sink = RecordingSink()
    server = QueryServer(
        fresh_db(),
        policy=AdmitAll(),
        sink=sink,
        preempt=preempt,
        options=QueryOptions(fault_plan=fault_plan),
    )
    requests = [
        QueryRequest(
            expr=intersect(rel("r1"), rel("r2")) if i % 3 == 0 else query(),
            quota=6.0 if i % 3 == 0 else 2.0,
            arrival=0.9 * i,
            seed=100 + i,
            client_id=f"c{i}",
            request_id=f"r{i}",  # pinned: ids are comparable across servers
        )
        for i in range(6)
    ]
    outcomes = server.process(requests)
    return outcomes, sink, server


class TestServerSwitchIdentity:
    def test_preempt_on_without_challengers_is_byte_identical(self):
        # Arrivals spaced beyond every service time: the checkpoint is
        # armed but never fires, so on ≡ off, event for event.
        def spaced(preempt):
            sink = RecordingSink()
            server = QueryServer(
                fresh_db(),
                policy=AdmitAll(),
                sink=sink,
                preempt=preempt,
            )
            outcomes = server.process(
                [
                    QueryRequest(
                        expr=query(500 + 50 * i),
                        quota=2.0,
                        arrival=3.0 * i,
                        seed=100 + i,
                        client_id=f"c{i}",
                        request_id=f"r{i}",
                    )
                    for i in range(4)
                ]
            )
            return outcomes, sink, server

        on, on_sink, on_server = spaced(True)
        off, off_sink, _ = spaced(False)
        assert on_server.metrics.preempted == 0
        assert outcome_signature(on) == outcome_signature(off)
        assert on_sink.events == off_sink.events


class TestFaultReplayUnderPreemption:
    def test_preempting_faulted_stream_replays_bit_identically(self):
        plan = FaultPlan(read_error_prob=0.05, slow_read_prob=0.05)
        first, first_sink, s1 = run_server(True, fault_plan=plan)
        second, second_sink, s2 = run_server(True, fault_plan=plan)
        assert outcome_signature(first) == outcome_signature(second)
        assert first_sink.events == second_sink.events
        assert s1.metrics.preempted == s2.metrics.preempted
