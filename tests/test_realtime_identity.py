"""Recorded transactions through both transaction runners.

:meth:`TransactionScheduler.run <repro.realtime.TransactionScheduler.run>`
and :func:`~repro.realtime.run_transaction` drive the same budgeting loop —
write commits, quota grants clamped to what remains, the
``min_query_quota`` abort, the deadline abort — one on the sum of charged
stage durations, one on the server's clock. This module replays a fixed
set of transactions through each and compares every granted quota, the
elapsed time, the abort point and every estimate with
``tests/data/realtime_identity.json``. Floats are recorded with
``float.hex``, so equal records mean bit-equal numbers.

The cases cover five deadlines, both allocators, with and without an
``ErrorConstrained`` stop, two ``min_query_quota`` values, a committed
write inside the transaction, injected read faults, the three admission
policies, and seeded and unseeded requests. Each case builds its own
database, so a case's record does not depend on which cases ran first.

Re-record (only when a behaviour change is intended and reviewed)::

    PYTHONPATH=src python tests/test_realtime_identity.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.options import QueryOptions
from repro.faults import FaultPlan
from repro.realtime import (
    FeedbackAllocator,
    ProportionalAllocator,
    QueryTask,
    TransactionScheduler,
    WriteTask,
    run_transaction,
)
from repro.relational.expression import intersect, rel, select
from repro.relational.predicate import cmp
from repro.server import AdmitAll, DegradeInfeasible, QueryServer, RejectInfeasible
from repro.server.workload import demo_database
from repro.timecontrol.stopping import ErrorConstrained

RECORD = Path(__file__).parent / "data" / "realtime_identity.json"
TUPLES = 1_000
DEADLINES = (1.0, 3.0, 9.0, 20.0, 45.0)
ALLOCATORS = {"feedback": FeedbackAllocator, "proportional": ProportionalAllocator}
POLICIES = {
    "admit": AdmitAll,
    "degrade": DegradeInfeasible,
    "reject": RejectInfeasible,
}


def tasks(write: bool = False) -> list:
    batch = [
        QueryTask("narrow", select(rel("r1"), cmp("a", "<", 2_000))),
        QueryTask("wide", select(rel("r1"), cmp("a", "<", 8_000)), weight=2.0),
        QueryTask("both", intersect(rel("r1"), rel("r2")), weight=1.5),
    ]
    if write:
        rows = tuple((10_000 + i, i * 7 % 10_000, i, "w") for i in range(40))
        batch.insert(1, WriteTask("grow", "r1", rows))
    return batch


def record(outcome) -> dict:
    return {
        "quotas": {name: q.hex() for name, q in outcome.quotas.items()},
        "elapsed": outcome.elapsed.hex(),
        "aborted_after": outcome.aborted_after,
        "estimates": {
            name: None if r.estimate is None
            else [r.estimate.value.hex(), r.estimate.variance.hex(), r.termination]
            for name, r in outcome.results.items()
        },
    }


def _scheduler_case(deadline, allocator, stop, min_quota, write, faults):
    def run() -> dict:
        db = demo_database(seed=17, tuples=TUPLES)
        scheduler = TransactionScheduler(
            db,
            allocator=ALLOCATORS[allocator](),
            options=QueryOptions(
                stopping=(
                    ErrorConstrained(target_relative_halfwidth=0.3) if stop else None
                )
            ),
            min_query_quota=min_quota,
        )
        kwargs = {}
        if faults:
            kwargs["fault_plan"] = FaultPlan(read_error_prob=0.05, seed_salt=3)
        return record(scheduler.run(tasks(write), deadline, seed=5, **kwargs))

    return run


def _server_case(deadline, allocator, policy, seeded, write, faults):
    def run() -> dict:
        db = demo_database(seed=17, tuples=TUPLES)
        options = QueryOptions(
            fault_plan=FaultPlan(read_error_prob=0.05, seed_salt=3) if faults else None
        )
        server = QueryServer(db, policy=POLICIES[policy](), options=options)
        outcome = run_transaction(
            server,
            tasks(write),
            deadline,
            allocator=ALLOCATORS[allocator](),
            seed=5 if seeded else None,
        )
        return record(outcome)

    return run


def _cases() -> dict:
    cases = {}
    for deadline in DEADLINES:
        for allocator in ALLOCATORS:
            for stop in (False, True):
                for min_quota in (1e-6, 2.0):
                    name = (
                        f"scheduler-{deadline}-{allocator}-"
                        f"{'stop' if stop else 'nostop'}-min{min_quota}"
                    )
                    cases[name] = _scheduler_case(
                        deadline, allocator, stop, min_quota, False, False
                    )
            for policy in POLICIES:
                for seeded in (True, False):
                    name = (
                        f"server-{deadline}-{allocator}-{policy}-"
                        f"{'seeded' if seeded else 'unseeded'}"
                    )
                    cases[name] = _server_case(
                        deadline, allocator, policy, seeded, False, False
                    )
    for deadline in (3.0, 20.0):
        for write, faults in ((True, False), (False, True), (True, True)):
            tag = f"{'write' if write else 'nowrite'}-{'faults' if faults else 'clean'}"
            cases[f"scheduler-{deadline}-{tag}"] = _scheduler_case(
                deadline, "feedback", False, 1e-6, write, faults
            )
            cases[f"server-{deadline}-{tag}"] = _server_case(
                deadline, "feedback", "degrade", True, write, faults
            )
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_transaction_matches_the_record(name, recorded):
    assert CASES[name]() == recorded[name]


if __name__ == "__main__":
    RECORD.parent.mkdir(parents=True, exist_ok=True)
    data = {name: CASES[name]() for name in sorted(CASES)}
    RECORD.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    aborted = sum(1 for r in data.values() if r["aborted_after"] is not None)
    print(f"{len(data)} transactions recorded, {aborted} aborted")
