"""The synopsis catalog — a dashboard that refreshes the same queries.

The paper's machinery treats every query as its first: trackers start at
Figure 3.3's conservative selectivity 1.0 and relearn the same predicates
run after run. Real workloads repeat — a dashboard refreshing the same
panel, a monitor polling the same condition. This example turns on
``repro.synopses`` and walks the whole lifecycle:

1. a cold run deposits selectivity posteriors and an answer synopsis;
2. warm repeats start from the posterior instead of the conservative
   selectivity-1.0 default, and the server answers an infeasible repeat
   *instantly* from the recorded estimate, with an honest CI from the
   recorded sample variance;
3. a write transaction touches the relation, invalidating its entries;
4. ``refresh_synopses`` re-derives the dropped answer in idle capacity.

Run:  python examples/synopses.py
"""

from __future__ import annotations

from repro import Database, QueryOptions, RecordingSink, cmp, rel
from repro.realtime import QueryTask, WriteTask, run_transaction
from repro.server import DegradeInfeasible, QueryRequest, QueryServer

SYN = QueryOptions(synopses=True)


def build_database(seed: int = 7) -> Database:
    db = Database(seed=seed)
    db.create_relation(
        "orders",
        [("order_id", "int"), ("qty", "int")],
        rows=[(i, (i * 7919) % 200) for i in range(30_000)],
    )
    return db


def first_stage_fraction(result) -> float:
    return result.report.stages[0].fraction


def main() -> None:
    db = build_database()
    panel = rel("orders").where(cmp("qty", "<", 10))  # ~5% selectivity

    # -- 1. cold run: the catalog learns ------------------------------
    cold = db.estimate(panel, quota=5.0, seed=1, options=SYN)
    lo, hi = cold.confidence_interval(0.95)
    print(f"cold run : {cold.value:.1f} in [{lo:.1f}, {hi:.1f}], "
          f"{cold.blocks} blocks")
    print("           first-stage fraction", f"{first_stage_fraction(cold):.4f}")
    print("catalog  :", db.synopses.info())

    # -- 2a. warm repeat: posterior-steered stage sizing --------------
    sink = RecordingSink()
    warm = db.estimate(
        panel, quota=5.0, seed=2, options=SYN.replace(sink=sink)
    )
    hit = sink.of_kind("synopsis_hit")[0]
    lo, hi = warm.confidence_interval(0.95)
    print(f"warm run : {warm.value:.1f} in [{lo:.1f}, {hi:.1f}], "
          f"{warm.blocks} blocks")
    print(
        "           first-stage fraction",
        f"{first_stage_fraction(warm):.4f}",
        f"(prior: {hit.prior_points:.0f} pseudo-points,",
        f"mean {hit.prior_mean:.4f})",
    )

    # -- 2b. the server answers an infeasible repeat from the catalog -
    server = QueryServer(db, policy=DegradeInfeasible(), options=SYN)
    served = server.serve(QueryRequest(expr=panel, quota=1e-4, seed=3))
    lo, hi = served.estimate.confidence_interval(0.95)
    print(f"degraded : {served.outcome.value} — {served.reason}")
    print(f"           {served.estimate.value:.1f} in [{lo:.1f}, {hi:.1f}]")

    # -- 3. a write transaction invalidates ---------------------------
    txn = run_transaction(
        server,
        [
            WriteTask("restock", "orders",
                      [(10**6 + i, i % 7) for i in range(500)]),
            QueryTask("recheck", panel),
        ],
        deadline=60.0,
        seed=4,
    )
    print(
        "write txn: met deadline" if txn.met_deadline else "write txn: MISSED",
        "—", db.synopses.info(),
    )

    # -- 4. idle-capacity refresh re-derives dropped answers ----------
    db.append_rows("orders", [(2 * 10**6 + i, i % 3) for i in range(500)])
    pending = db.synopses.info().refresh_pending
    refreshed = server.refresh_synopses(budget=30.0)
    print(f"refresh  : {refreshed}/{pending} queued shapes re-derived")
    print("catalog  :", db.synopses.info())


if __name__ == "__main__":
    main()
