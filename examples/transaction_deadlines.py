"""Transaction deadlines — the paper's multi-user real-time use case.

Section 1: "By precisely fixing the execution times of database queries in a
transaction, accurate estimates for transaction execution times become
possible. This in turn plays an important role in minimizing the number of
transactions that miss their deadlines [AbMo 88]."

This example runs a monitoring transaction — four aggregate queries sharing
one deadline — many times under two budgeting policies and compares their
deadline-miss rates: a static weight-proportional split versus feedback
budgeting that rolls early finishers' leftover time forward.

Run:  python examples/transaction_deadlines.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    Database,
    ErrorConstrained,
    MachineProfile,
    QueryOptions,
    cmp,
    rel,
    select,
)
from repro.estimation.aggregates import avg_of, sum_of
from repro.realtime import (
    FeedbackAllocator,
    ProportionalAllocator,
    QueryTask,
    TransactionScheduler,
)

DEADLINE = 4.0
TRIALS = 30


def build_database(seed: int = 31) -> Database:
    db = Database(profile=MachineProfile.sun3_60(), seed=seed)
    rng = np.random.default_rng(seed)
    db.create_relation(
        "events",
        [("id", "int"), ("severity", "int"), ("latency", "int")],
        rows=(
            (i, int(rng.integers(0, 10)), int(rng.lognormal(3.0, 0.8)))
            for i in range(30_000)
        ),
        block_size=256,
    )
    return db


def monitoring_transaction() -> list[QueryTask]:
    return [
        QueryTask("critical", select(rel("events"), cmp("severity", ">=", 8))),
        QueryTask("warnings", select(rel("events"), cmp("severity", "==", 5))),
        QueryTask(
            "latency_sum",
            select(rel("events"), cmp("severity", ">=", 8)),
            aggregate=sum_of("latency"),
            weight=2.0,
        ),
        QueryTask(
            "mean_latency", rel("events"), aggregate=avg_of("latency")
        ),
    ]


def run_policy(db: Database, allocator_factory, label: str) -> None:
    true_critical = db.count(monitoring_transaction()[0].expr)
    misses = 0
    completed = 0
    elapsed = []
    errors = []
    for trial in range(TRIALS):
        scheduler = TransactionScheduler(
            db,
            allocator=allocator_factory(),
            options=QueryOptions(
                stopping=ErrorConstrained(target_relative_halfwidth=0.3)
            ),
        )
        outcome = scheduler.run(
            monitoring_transaction(), deadline=DEADLINE, seed=500 + trial
        )
        misses += not outcome.met_deadline
        completed += outcome.completed_queries
        elapsed.append(outcome.elapsed)
        # Accuracy of the *last* query, which inherits whatever budget the
        # policy has left for it.
        last = outcome.results.get("mean_latency")
        if last is not None and last.estimate is not None:
            true_mean = db.aggregate(
                monitoring_transaction()[3].expr, avg_of("latency")
            )
            errors.append(abs(last.value - true_mean) / true_mean)
    print(f"{label}:")
    print(f"  deadline misses       : {misses}/{TRIALS} "
          f"({100 * misses / TRIALS:.0f}%)")
    print(f"  queries finished      : {completed / TRIALS:.1f} of 4")
    print(f"  budget actually used  : {np.mean(elapsed):.2f}s of {DEADLINE:g}s")
    if errors:
        print(f"  final-query mean error: {np.mean(errors):.1%}  "
              "(leftover budget → precision)")
    print()


def main() -> None:
    db = build_database()
    print(
        f"transaction: 4 aggregate queries, shared deadline {DEADLINE:g}s, "
        f"{TRIALS} trials per policy\n"
    )
    run_policy(db, ProportionalAllocator, "static proportional budgeting")
    run_policy(db, FeedbackAllocator, "feedback budgeting (leftover rolls forward)")
    print(
        "Per-query time quotas are what make the transaction's completion\n"
        "time predictable at all — the paper's argument for time-constrained\n"
        "query processing in real-time databases."
    )


if __name__ == "__main__":
    main()
