"""Preemptive EDF — a tight deadline interrupts a loose runner.

Run-to-completion EDF has a blind spot: a tight-deadline request that
arrives while a loose-deadline query holds the server waits out the
runner's *whole* remaining budget, and its own window expires in the
queue. With ``QueryServer(preempt=True)``, the scheduler checkpoints the
runner at its next stage boundary (the staged execution model makes
boundaries pure snapshots), serves the tight request inside its own window,
then resumes the parked run from its banked stages with its residual budget.
Invariant 11 makes the knob safe: suspension is invisible to the run it
suspends, and switch-off serving is byte-identical to the
pre-preemption scheduler. This example walks the surface end to end:

1. preempt **off** — the tight request queues behind the loose runner
   and misses its deadline;
2. preempt **on** — the same stream: the loose runner parks at a stage
   boundary, the tight request answers in time, the loose run resumes
   and still answers; the ``query_preempted`` / ``query_resumed``
   events and `ServerMetrics` counters trace the churn;
3. with no competing arrivals the preemption point never fires — on is
   event-for-event identical to off;
4. ``repro.core.switches.describe()`` reports the switch's value and
   where it came from — the ``preempt=True`` argument of step 2's server.

Run:  python examples/preempt.py
"""

from __future__ import annotations

from repro.core.switches import describe
from repro.observability import RecordingSink
from repro.relational.expression import intersect, rel, select
from repro.relational.predicate import cmp
from repro.server import AdmitAll, QueryRequest, QueryServer
from repro.server.workload import demo_database

TUPLES = 1_000


def mixed_stream() -> list[QueryRequest]:
    """A loose 8s intersection, then a tight 4s selection 0.5s later."""
    return [
        QueryRequest(
            expr=intersect(rel("r1"), rel("r2")),
            quota=8.0,
            arrival=0.0,
            seed=11,
            client_id="loose",
        ),
        QueryRequest(
            expr=select(rel("r1"), cmp("a", "<", 600)),
            quota=4.0,
            arrival=0.5,
            seed=22,
            client_id="tight",
        ),
    ]


def serve(preempt: bool, requests: list[QueryRequest]):
    sink = RecordingSink()
    server = QueryServer(
        demo_database(seed=5, tuples=TUPLES),
        policy=AdmitAll(),
        preempt=preempt,
        sink=sink,
    )
    outcomes = {o.request.client_id: o for o in server.process(requests)}
    return server, sink, outcomes


def main() -> None:
    # -- 1. run-to-completion: the tight window dies in the queue ------
    _, _, off = serve(False, mixed_stream())
    print(
        f"preempt off      : loose {off['loose'].outcome.value}, "
        f"tight {off['tight'].outcome.value} — {off['tight'].reason}"
    )

    # -- 2. preempt on: park the runner, serve the window, resume ------
    server, sink, on = serve(True, mixed_stream())
    (parked,) = sink.of_kind("query_preempted")
    (resumed,) = sink.of_kind("query_resumed")
    print(
        f"preempt on       : loose {on['loose'].outcome.value}, "
        f"tight {on['tight'].outcome.value}"
    )
    print(
        f"trace            : parked {parked.request_id} at clock "
        f"{parked.clock:.2f}s with {parked.stages_completed} stage(s) "
        f"banked for {parked.challenger_id}; resumed at "
        f"{resumed.clock:.2f}s with {resumed.residual_budget:.2f}s left"
    )
    print(
        f"metrics          : {server.metrics.preempted} preempted, "
        f"{server.metrics.resumed} resumed — hit-ratio "
        f"{server.metrics.hit_ratio_admitted:.2f} vs run-to-completion 0.50"
    )

    # -- 3. no challenger, no difference: on ≡ off, event for event ----
    solo = mixed_stream()[:1]
    _, on_sink, _ = serve(True, solo)
    _, off_sink, _ = serve(False, solo)
    assert on_sink.events == off_sink.events
    print(
        f"identity         : solo stream preempt on ≡ off "
        f"({len(on_sink.events)} events, byte-identical)"
    )

    # -- 4. the switch is an argument: describe() says where it came from
    states = describe(explicit={"preempt": server.preempt})
    state = next(s for s in states if s.name == "preempt")
    print(
        f"switches         : preempt -> {state.value} (source: {state.source}, "
        f"default {state.default}; set with QueryServer(preempt=True))"
    )


if __name__ == "__main__":
    main()
