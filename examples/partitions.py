"""Partitioned relations — a shard is a label on a block.

``create_relation(..., partitions=K)`` stores exactly the blocks a plain
relation would and labels each with one of K shards by arithmetic on its
block id. Every read goes through the same per-block loop (charge, then
fault injector, then buffer pool), so invariant 10 holds by construction:
estimates, charged costs, stage schedules and buffer-pool counters are
**bit-identical** to the same rows in a plain relation. Only two things
ever read the label — this example walks both:

1. the same query, same seed, over a plain and a partitioned relation:
   bit-equal answers, schedules and pool counters;
2. the ``shard_scan_started`` / ``shard_merged`` trace events break each
   stage's read down by shard, and round-robin labels spread a run
   evenly;
3. ``FaultPlan(fail_shards=...)`` fails the first read of the targeted
   shards, once each; the run salvages the faulted stages and still
   answers;
4. a server needs no sharding knob: admission prices *charged* seconds,
   which the labels leave untouched.

Run:  python examples/partitions.py
"""

from __future__ import annotations

from repro import BufferPool, Database, FaultPlan, QueryOptions, cmp, rel
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


def signature(db: Database, expr) -> tuple:
    """One run through its own pool: what invariant 10 pins."""
    pool = BufferPool()
    result = db.estimate(
        expr, quota=3.0, seed=1, options=QueryOptions(bufferpool=pool)
    )
    report = result.report
    return (
        result.value,
        None if report.estimate is None else report.estimate.variance,
        tuple((s.fraction, s.duration, s.blocks_read) for s in report.stages),
        pool.info(),
    )


def main() -> None:
    panel = rel("orders").where(cmp("qty", "<", 10))

    # -- 1. labels never change what the controller or the pool sees --
    plain = signature(build_database(partitions=None), panel)
    sharded = signature(build_database(), panel)
    assert sharded == plain
    print(
        f"plain / {PARTITIONS} shards : estimate {sharded[0]:.1f}, "
        f"{len(sharded[2])} stages, pool misses {sharded[3].misses} — "
        "bit-identical runs"
    )

    # -- 2. the trace breaks every stage's read down by shard ---------
    sink = RecordingSink()
    build_database().estimate(
        panel, quota=30.0, seed=1, options=QueryOptions(sink=sink)
    )
    starts = sink.of_kind("shard_scan_started")
    merges = sink.of_kind("shard_merged")
    shares: dict[int, int] = {}
    for event in starts:
        shares[event.shard] = shares.get(event.shard, 0) + event.blocks
    assert sum(shares.values()) == sum(e.blocks for e in merges)
    print(
        f"trace            : {len(starts)} shard tallies over "
        f"{len(shares)} shards, {len(merges)} stage totals; "
        f"per-shard blocks {dict(sorted(shares.items()))}"
    )

    # -- 3. shard-targeted faults: once per shard, then salvaged ------
    sink = RecordingSink()
    result = build_database().estimate(
        panel,
        quota=30.0,
        seed=1,
        options=QueryOptions(sink=sink, fault_plan=FaultPlan(fail_shards=(0, 3))),
    )
    injected = sink.of_kind("fault_injected")
    print(
        f"fail_shards=(0,3): {len(injected)} injected read errors on blocks "
        f"{[e.block_id for e in injected]} (shards "
        f"{[e.block_id % PARTITIONS for e in injected]}), "
        f"{len(result.report.faults)} recorded; run ended "
        f"{result.report.termination!r} at {result.value:.1f}"
    )

    # -- 4. the server prices charged seconds: no sharding knob -------
    plain_price = minimum_stage_cost(build_database(partitions=None).plan(panel))
    sharded_price = minimum_stage_cost(build_database().plan(panel))
    assert plain_price == sharded_price
    outcome = QueryServer(build_database()).serve(
        QueryRequest(expr=panel, quota=10.0, seed=2)
    )
    print(
        f"admission        : min stage cost {sharded_price:.4f}s, plain or "
        f"partitioned; served -> {outcome.outcome.value}, "
        f"{outcome.result.blocks} blocks"
    )


if __name__ == "__main__":
    main()
