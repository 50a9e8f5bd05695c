"""Partitioned relations — parallel shard sampling, identical answers.

A partitioned relation splits its blocks across K deterministic shards;
with ``QueryOptions(partitions=W)`` each stage's drawn blocks are
materialized by W shard workers in parallel. Invariant 10 is the
contract that makes the worker count safe to set anywhere: estimates,
charged costs, and stage schedules are **bit-identical** to the same rows
in a plain relation, at any worker count — only the
``shard_scan_started`` / ``shard_merged`` trace markers differ.
This example walks the surface end to end:

1. the same query, same seed, runs over a plain relation, and over the
   partitioned one with one and with four shard workers — the answers and
   stage schedules are bit-equal;
2. the trace stream shows every shard pulling its share of each stage's
   draw, merged back in global draw order;
3. the worker count is a plain option, not a switch: the plan's scan
   reports how many workers it reads with;
4. the shard metadata cache is a first-class handle in ``repro.caches``,
   and a write invalidates it like every other derived layer;
5. a server needs no sharding knob: admission prices *charged* seconds,
   which shards and workers leave untouched, and ``session_kwargs``
   carries the worker count into every session it opens.

Run:  python examples/partitions.py
"""

from __future__ import annotations

from repro import Database, QueryOptions, caches, cmp, rel
from repro.observability import RecordingSink
from repro.server import QueryRequest, QueryServer
from repro.server.admission import minimum_stage_cost

PARTITIONS = 8


def build_database(seed: int = 7, partitions: int | None = PARTITIONS) -> Database:
    db = Database(seed=seed)
    db.create_relation(
        "orders",
        [("order_id", "int"), ("qty", "int")],
        rows=[(i, (i * 7919) % 200) for i in range(30_000)],
        partitions=partitions,
    )
    return db


def signature(result) -> tuple:
    report = result.report
    return (
        result.value,
        None if report.estimate is None else report.estimate.variance,
        tuple((s.fraction, s.duration, s.blocks_read) for s in report.stages),
    )


def main() -> None:
    panel = rel("orders").where(cmp("qty", "<", 10))

    # -- 1. shards and workers never change what the controller sees --
    plain = build_database(partitions=None).estimate(panel, quota=3.0, seed=1)
    serial = build_database().estimate(panel, quota=3.0, seed=1)
    four = build_database().estimate(
        panel, quota=3.0, seed=1, options=QueryOptions(partitions=4)
    )
    assert signature(four) == signature(serial) == signature(plain)
    print(
        f"plain / 1 / 4 workers: estimate {four.value:.1f} — bit-identical runs"
    )

    # -- 2. the trace shows every shard pulling its share -------------
    sink = RecordingSink()
    build_database().estimate(
        panel, quota=30.0, seed=1, options=QueryOptions(partitions=4, sink=sink)
    )
    starts = sink.of_kind("shard_scan_started")
    merges = sink.of_kind("shard_merged")
    shares: dict[int, int] = {}
    for event in starts:
        shares[event.shard] = shares.get(event.shard, 0) + event.blocks
    print(
        f"trace            : {len(starts)} shard scans over "
        f"{len(shares)} shards, {len(merges)} merges; "
        f"per-shard blocks {dict(sorted(shares.items()))}"
    )

    # -- 3. the worker count is an option the scan carries ------------
    probe = build_database().open_session(
        panel, quota=3.0, options=QueryOptions(partitions=4)
    )
    (scan,) = probe.plan.scans
    print(
        f"worker count     : {scan.shard_workers} workers over "
        f"{len(scan.relation.shards)} shards (default: 1, serial)"
    )

    # -- 4. the shard metadata cache is a handle like any other -------
    db = build_database()
    before = caches.get("shards").info()
    db.append_rows("orders", [(10**6, 5)])
    after = caches.get("shards").info()
    print(
        f"append_rows      : shard cache {before.currsize} entries -> "
        f"{after.currsize} ({after.invalidations} invalidated); "
        f"registry handles {list(caches.names())}"
    )

    # -- 5. the server prices charged seconds: no sharding knob -------
    plain_price = minimum_stage_cost(
        build_database(partitions=None).open_session(panel, quota=3.0, seed=2)
    )
    sharded_price = minimum_stage_cost(
        build_database().open_session(panel, quota=3.0, seed=2, partitions=4)
    )
    assert plain_price == sharded_price
    server = QueryServer(build_database(), session_kwargs={"partitions": 4})
    outcome = server.serve(QueryRequest(expr=panel, quota=10.0, seed=2))
    print(
        f"admission        : min stage cost {sharded_price:.4f}s, plain or "
        f"sharded; served with 4 workers -> {outcome.outcome.value}, "
        f"{outcome.result.blocks} blocks"
    )


if __name__ == "__main__":
    main()
