"""Recorded golden streams of the serving layer (ROADMAP 2(d) style).

Four request streams were served by the scheduler *as it stood before the
ticket-lifecycle refactor* (PR 15's parent commit) and recorded to
``tests/data/server_golden/``; this module replays them and asserts
byte-equality — the three the refactor's issue names, plus an ``AdmitAll``
stream for the dispatch-time ``MISSED`` path none of those reach. Each file holds, one
JSON object per line, the full :class:`~repro.observability.JsonlSink`
event stream, then every field of every returned outcome, then
``ServerMetrics.as_dict()``. ``json`` writes floats in shortest
round-trip form, so equal bytes mean bit-equal clocks, waits, budgets and
estimates.

Request ids are explicit everywhere: the id counter is process-global, so
a generated id would depend on which tests ran first.

Re-record (only when a behaviour change is intended and reviewed)::

    PYTHONPATH=src python tests/test_server_golden.py
"""

from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path

import pytest

from repro.core.options import QueryOptions
from repro.errors import StorageError
from repro.estimation.aggregates import AggregateSpec
from repro.faults.plan import FaultPlan
from repro.observability import JsonlSink
from repro.relational.expression import intersect, rel, select
from repro.relational.predicate import cmp
from repro.server.admission import (
    AdmitAll,
    DegradeInfeasible,
    RejectInfeasible,
)
from repro.server.request import QueryRequest, RequestOutcome
from repro.server.scheduler import QueryServer
from repro.server.workload import demo_database
from repro.timecontrol.strategies import FixedFractionHeuristic

GOLDEN_DIR = Path(__file__).parent / "data" / "server_golden"
TUPLES = 1_000


def shape(kind: int, threshold: int):
    """The three expression shapes of the bench's ``server_churn`` mix
    (attribute values are uniform on [0, 10 000))."""
    if kind == 0:
        return select(rel("r1"), cmp("a", "<", threshold))
    if kind == 1:
        return select(
            select(rel("r1"), cmp("a", "<", threshold)),
            cmp("b", "<", 12_000 - threshold),
        )
    return intersect(rel("r1"), rel("r2"))


# ----------------------------------------------------------------------
# Plain-data forms (every field, floats untouched)
# ----------------------------------------------------------------------
def plain_estimate(estimate) -> dict | None:
    return None if estimate is None else dataclasses.asdict(estimate)


def plain_report(report) -> dict:
    return {
        "quota": report.quota,
        "started_at": report.started_at,
        "aggregate": report.aggregate,
        "termination": report.termination,
        "peak_temp_tuples": report.peak_temp_tuples,
        "estimate": plain_estimate(report.estimate),
        "estimate_with_overrun": plain_estimate(report.estimate_with_overrun),
        "stages": [dataclasses.asdict(stage) for stage in report.stages],
        "faults": [
            {name: getattr(fault, name) for name in fault.__slots__}
            for fault in report.faults
        ],
    }


def plain_outcome(outcome: RequestOutcome) -> dict:
    request = outcome.request
    return {
        "request": {
            "expr": str(request.expr),
            "expr_hash": request.expr.structural_hash(),
            "quota": request.quota,
            "client_id": request.client_id,
            "aggregate": dataclasses.asdict(request.aggregate),
            "priority": request.priority,
            "arrival": request.arrival,
            "seed": request.seed,
            "request_id": request.request_id,
        },
        "outcome": outcome.outcome.value,
        "reason": outcome.reason,
        "admitted": outcome.admitted,
        "queue_wait": outcome.queue_wait,
        "started_at": outcome.started_at,
        "finished_at": outcome.finished_at,
        "result": (
            None
            if outcome.result is None
            else plain_report(outcome.result.report)
        ),
        "estimate": plain_estimate(outcome.estimate),
    }


class Recording:
    """One served stream: the JSONL event text plus what the server returned."""

    def __init__(self) -> None:
        self._events = io.StringIO()
        self.sink = JsonlSink(self._events)
        self.returned: list[RequestOutcome] = []

    def server(
        self, db, policy, preempt: bool, fault_plan=None, strategy=None, **kwargs
    ):
        """A server with every behavioural switch spelled out at the value
        the streams were recorded under."""
        return QueryServer(
            db,
            policy=policy,
            options=QueryOptions(
                strategy=strategy, fault_plan=fault_plan, synopses=False
            ),
            sink=self.sink,
            preempt=preempt,
            **kwargs,
        )

    def render(self, server: QueryServer) -> str:
        # Everything process() returned is also on server.outcomes, in the
        # same order — the file pins one list, the assert pins the other.
        assert [id(o) for o in server.outcomes] == [
            id(o) for o in self.returned
        ]
        lines = [self._events.getvalue()]
        for outcome in self.returned:
            lines.append(
                json.dumps({"outcome": plain_outcome(outcome)}, sort_keys=True)
                + "\n"
            )
        lines.append(
            json.dumps({"metrics": server.metrics.as_dict()}, sort_keys=True)
            + "\n"
        )
        return "".join(lines)


# ----------------------------------------------------------------------
# (a) 1.2x open-loop overload, DegradeInfeasible, a write between batches
# ----------------------------------------------------------------------
def overload_batch(batch: int, start: float, count: int) -> list[QueryRequest]:
    """Deterministic open-loop arrivals at ~1.2x the mean service demand:
    quotas alternate between two classes (mean 6s), so a mean
    inter-arrival of 6 / 1.2 offers 1.2x the server's capacity."""
    requests = []
    arrival = start
    for i in range(count):
        n = batch * count + i
        # A fixed, bursty gap pattern with mean 6 / 1.2.
        arrival += (6.0 / 1.2) * (0.25, 1.9, 0.6, 1.25, 0.1, 1.9)[n % 6]
        requests.append(
            QueryRequest(
                expr=shape((0, 0, 1, 0, 2, 0, 0)[n % 7], 3_000 + 370 * (n % 17)),
                quota=(2.0, 10.0)[n % 2] if n % 5 else 0.02,
                arrival=arrival,
                priority=1 if n % 4 == 1 else 0,
                aggregate=(
                    AggregateSpec("sum", "a") if n % 11 == 3 else
                    AggregateSpec("count")
                ),
                seed=1_000 + n,
                client_id="open",
                request_id=f"open/{n}",
            )
        )
    # A priority-0 burst landing on queued priority-1 work: the displaced
    # ticket's projected budget goes under its minimum stage and it is shed.
    burst = arrival + 12.0
    for k, (quota, priority, offset) in enumerate(
        [(2.0, 0, 0.0), (5.8, 1, 0.0), (3.0, 0, 0.5), (5.0, 0, 0.6)]
    ):
        requests.append(
            QueryRequest(
                expr=shape(0, 5_000 + 100 * k),
                quota=quota,
                arrival=burst + offset,
                priority=priority,
                seed=1_500 + 10 * batch + k,
                client_id="burst",
                request_id=f"burst/{batch}.{k}",
            )
        )
    return requests


def stream_overload() -> str:
    recording = Recording()
    db = demo_database(seed=5, tuples=TUPLES)
    server = recording.server(db, DegradeInfeasible(), preempt=False)
    followed: list[str] = []

    def follow_up(outcome: RequestOutcome) -> QueryRequest | None:
        """A closed-loop client riding on the open-loop stream: the first
        few outcomes each trigger one think-then-resubmit."""
        if outcome.request.client_id != "open" or len(followed) >= 5:
            return None
        followed.append(outcome.request.request_id)
        k = len(followed)
        return QueryRequest(
            expr=shape(k % 3, 2_500 + 900 * k),
            quota=1.5,
            arrival=server.clock.now() + 0.2,
            seed=2_000 + k,
            client_id="closed",
            request_id=f"closed/{k}",
        )

    recording.returned += server.process(
        overload_batch(0, 0.0, 18), on_complete=follow_up
    )
    # A committed write between the two batches: every cache keyed on r1's
    # version goes stale, prestored statistics are rebuilt.
    db.append_rows(
        "r1",
        [
            (3_000_000 + i, (701 * i) % 10_000, (1_103 * i) % 10_000, "x" * 8)
            for i in range(40)
        ],
    )
    db.analyze("r1")
    recording.returned += server.process(
        overload_batch(1, server.clock.now(), 18), on_complete=follow_up
    )
    return recording.render(server)


# ----------------------------------------------------------------------
# (b) RejectInfeasible under lethal and transient faults, two retries
# ----------------------------------------------------------------------
def stream_faults() -> str:
    recording = Recording()
    db = demo_database(seed=5, tuples=TUPLES)
    # salvage="finish" ends a run at its first fault: a fault in stage 1
    # is lethal for that attempt (nothing sampled yet), one in a later
    # stage leaves the banked estimate — and the retry's different seed
    # makes either kind transient across attempts.
    plan = FaultPlan(read_error_prob=0.12, slow_read_prob=0.05, salvage="finish")
    server = recording.server(
        db,
        RejectInfeasible(),
        preempt=False,
        fault_plan=plan,
        max_fault_retries=2,
        retry_backoff=0.05,
    )
    requests = [
        QueryRequest(
            expr=(
                rel("no_such_relation")
                if n == 17
                else shape((0, 2, 0, 1)[n % 4], 3_500 + 410 * (n % 13))
            ),
            quota=(1.5, 3.0, 0.05)[n % 3] if n % 7 else 6.0,
            arrival=0.8 * n,
            priority=n % 2,
            seed=3_000 + n,
            client_id="faulty",
            request_id=f"faulty/{n}",
        )
        for n in range(30)
    ]
    # Failures that escape salvage, keyed on the dispatch session's seed
    # (admission prices through ``db.plan`` and opens no session):
    # a storage error on one first attempt (retried), storage errors on
    # every attempt of two requests (persistent: one has prestored
    # coverage, the intersection has none), and one non-storage crash
    # (never retried).
    crashes: dict[int, Exception] = {3_004: StorageError("device offline")}
    for seed in (3_007, 3_021):
        for attempt in range(3):
            crashes[QueryServer._retry_seed(seed, attempt)] = StorageError(
                f"device offline (attempt {attempt + 1})"
            )
    crashes[3_014] = RuntimeError("operator bug")
    open_session = db.open_session

    def crashing(*args, **kwargs):
        if kwargs.get("seed") in crashes:
            raise crashes[kwargs["seed"]]
        return open_session(*args, **kwargs)

    db.open_session = crashing
    recording.returned += server.process(requests)
    return recording.render(server)


# ----------------------------------------------------------------------
# (c) preemptive EDF over mixed deadlines, per-query events on the stream
# ----------------------------------------------------------------------
def stream_preempt() -> str:
    recording = Recording()
    db = demo_database(seed=5, tuples=TUPLES)
    server = recording.server(
        db,
        RejectInfeasible(),
        preempt=True,
        # Spending a fixed share of what is left per stage gives every run
        # several stage boundaries — the only points a run can park at.
        strategy=FixedFractionHeuristic(gamma=0.3),
        trace_queries=True,
    )
    requests = []
    for n in range(6):
        base = 9.0 * n
        # A loose runner, then tight windows that land while it runs: the
        # first preempts it (park → resume), later ones are admitted
        # mid-flight at its checkpoints, and the doomed low-priority tail
        # is shed around the parked ticket, which never is.
        requests += [
            QueryRequest(
                expr=shape(2, 0),
                quota=8.0,
                arrival=base,
                seed=4_000 + 10 * n,
                client_id="loose",
                request_id=f"loose/{n}",
            ),
            QueryRequest(
                expr=shape(0, 4_000 + 500 * n),
                quota=2.5,
                arrival=base + 0.4 + 0.1 * n,
                seed=4_001 + 10 * n,
                client_id="tight",
                request_id=f"tight/{n}",
            ),
            QueryRequest(
                expr=shape(1, 5_000 + 300 * n),
                quota=1.5 + 0.5 * (n % 3),
                arrival=base + 1.0 + 0.2 * n,
                seed=4_002 + 10 * n,
                client_id="tight",
                request_id=f"tighter/{n}",
            ),
            QueryRequest(
                expr=shape(0, 7_000),
                quota=(30.0 if n % 2 == 0 else 3.0) + 0.4 * n,
                arrival=base + 0.2,
                priority=1,
                seed=4_003 + 10 * n,
                client_id="tail",
                request_id=f"tail/{n}",
            ),
        ]
    recording.returned += server.process(requests)
    return recording.render(server)


# ----------------------------------------------------------------------
# (d) no admission control: doomed work is dispatched, never shed
# ----------------------------------------------------------------------
def stream_admit_all() -> str:
    recording = Recording()
    db = demo_database(seed=5, tuples=TUPLES)
    server = recording.server(db, AdmitAll(), preempt=True)
    requests = [
        QueryRequest(
            expr=shape(n % 3, 4_000 + 450 * (n % 11)),
            quota=(2.0, 6.0, 1.0, 9.0)[n % 4],
            arrival=0.7 * n,
            priority=1 if n % 5 == 2 else 0,
            seed=5_000 + n,
            client_id="burn",
            request_id=f"burn/{n}",
        )
        for n in range(20)
    ]
    recording.returned += server.process(requests)
    return recording.render(server)


STREAMS = {
    "overload_degrade": stream_overload,
    "faults_reject": stream_faults,
    "preempt_mixed": stream_preempt,
    "admit_all_burn": stream_admit_all,
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_recorded_stream_replays_byte_identically(name):
    golden = (GOLDEN_DIR / f"{name}.jsonl").read_text(encoding="utf-8")
    replayed = STREAMS[name]()
    if replayed != golden:
        # Point at the first differing line instead of dumping two files.
        pairs = zip(replayed.splitlines(), golden.splitlines())
        for number, (got, want) in enumerate(pairs, start=1):
            assert got == want, f"{name}.jsonl line {number} differs"
        assert len(replayed.splitlines()) == len(golden.splitlines())
    assert replayed == golden


def _kinds(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for line in text.splitlines():
        record = json.loads(line)
        kind = record.get("event") or (
            "outcome:" + record["outcome"]["outcome"]
            if "outcome" in record
            else "metrics"
        )
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def test_recorded_streams_cover_the_lifecycle():
    """The goldens are only worth their bytes if they walk every edge."""
    overload = _kinds((GOLDEN_DIR / "overload_degrade.jsonl").read_text())
    for kind in ("answered", "degraded", "uncovered", "shed"):
        assert overload.get(f"outcome:{kind}"), kind
    faults = _kinds((GOLDEN_DIR / "faults_reject.jsonl").read_text())
    assert faults.get("request_retried")
    for kind in ("answered", "degraded", "missed", "rejected"):
        assert faults.get(f"outcome:{kind}"), kind
    preempt = _kinds((GOLDEN_DIR / "preempt_mixed.jsonl").read_text())
    assert preempt.get("query_preempted") == preempt.get("query_resumed")
    assert preempt.get("query_preempted") and preempt.get("stage_end")
    assert preempt.get("outcome:shed")
    burn = _kinds((GOLDEN_DIR / "admit_all_burn.jsonl").read_text())
    assert burn.get("outcome:missed") and not burn.get("outcome:shed")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stream_name, build in sorted(STREAMS.items()):
        text = build()
        (GOLDEN_DIR / f"{stream_name}.jsonl").write_text(text, encoding="utf-8")
        print(f"{stream_name}: {len(text.splitlines())} lines", _kinds(text))
