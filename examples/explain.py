"""Explain — see what the logical optimizer does before you spend a quota.

Under a hard time constraint the plan you run *is* the accuracy you get:
cheaper stages mean the bisection of Section 3 can afford a larger sample
fraction inside the same quota. ``Database.explain`` shows this trade
before any sampling happens — the logical plan as written, the rewrite
rules that fired, the optimized plan, and the cost model's predicted
cheapest-stage price for both.

The demo writes a selective predicate *above* a join (the classic
unoptimized form), explains it, prints the predicted price of each
plan's cheapest stage, then runs the query at a fixed quota: every
session runs the optimized plan, so the rewrite buys sample blocks — and
therefore a tighter confidence interval.

Run:  python examples/explain.py
"""

from __future__ import annotations

from repro import (
    Database,
    MachineProfile,
    caches,
    cmp,
    join,
    rel,
    select,
)


def build_database(seed: int = 7) -> Database:
    db = Database(profile=MachineProfile.sun3_60(), seed=seed)
    db.create_relation(
        "orders",
        [("order_id", "int"), ("qty", "int"), ("part_id", "int")],
        rows=((i, i % 50, i % 40) for i in range(60_000)),
    )
    db.create_relation(
        "parts",
        [("part_id", "int"), ("weight", "int")],
        rows=((i, i % 7) for i in range(800)),
    )
    return db


def main() -> None:
    db = build_database()
    # The selection is written above the join — syntactically natural,
    # physically wasteful: every sampled pair pays the join before the
    # cheap qty filter rejects 90% of them.
    query = select(
        join(rel("orders"), rel("parts"), on=["part_id"]),
        cmp("qty", ">", 44),
    )

    explanation = db.explain(query)
    print(explanation)
    print()

    print(
        f"cheapest stage: {explanation.before_costs.total:.3f}s as written, "
        f"{explanation.after_costs.total:.3f}s optimized"
    )
    exact = db.count(query)
    print(f"exact COUNT = {exact}")
    quota = 600.0
    result = db.estimate(query, quota=quota, seed=0)
    if result.estimate is None:
        print(f"infeasible within {quota:.0f}s")
    else:
        lo, hi = result.confidence_interval(0.95)
        print(
            f"estimate {result.value:.0f} 95% CI [{lo:.0f}, {hi:.0f}] "
            f"({result.stages} stages, {result.blocks} blocks)"
        )

    # Logical plans are cached process-wide by canonical identity, so the
    # estimate above reused the plan explain made.
    info = caches.get("plans").info()
    print(
        f"\nplan cache: {info.hits} hits, {info.misses} misses, "
        f"{info.currsize} entries"
    )


if __name__ == "__main__":
    main()
