"""The buffer pool — one decode, many readers.

The engine charges *simulated* time per sampled block either way; what the
buffer pool changes is how much *wall-clock* work the host process repeats.
This example walks the contract end to end:

1. the same query, same seed, runs through an isolated one-block pool
   (every read a miss) and through a roomy one — the estimate, stage
   schedule, and charged simulated time are **bit-equal** (what the pool
   holds is invisible to the paper's controller);
2. a repeat query over the same relation hits blocks the first one
   admitted — ``caches.get("bufferpool").info()`` shows the decode-once sharing;
3. a server stream shares blocks *across requests*, surfacing hit/miss
   counters in ``ServerMetrics``;
4. appending rows evicts the relation's entries from every live pool, so
   no read can ever see stale blocks.

Run:  python examples/bufferpool.py
"""

from __future__ import annotations

from repro import (
    BufferPool,
    Database,
    QueryOptions,
    caches,
    cmp,
    rel,
)
from repro.server import DegradeInfeasible, QueryRequest, QueryServer


def build_database(seed: int = 7) -> Database:
    db = Database(seed=seed)
    db.create_relation(
        "orders",
        [("order_id", "int"), ("qty", "int")],
        rows=[(i, (i * 7919) % 200) for i in range(30_000)],
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
    caches.get("bufferpool").clear()
    panel = rel("orders").where(cmp("qty", "<", 10))

    # -- 1. the pool never changes what the controller sees -----------
    thrash = BufferPool(capacity=1)  # isolated: shares nothing, keeps nothing
    tiny = build_database().estimate(
        panel, quota=3.0, seed=1, options=QueryOptions(bufferpool=thrash)
    )
    roomy = BufferPool()
    big = build_database().estimate(
        panel, quota=3.0, seed=1, options=QueryOptions(bufferpool=roomy)
    )
    assert signature(big) == signature(tiny)
    print(
        f"1-block vs roomy: estimate {big.value:.1f} — bit-identical runs "
        f"({thrash.info().evictions} vs {roomy.info().evictions} evictions)"
    )

    # -- 2. a replayed query shares the first run's decoded blocks ----
    db = build_database()
    db.estimate(panel, quota=20.0, seed=2)  # bufferpool=None: the process pool
    cold = caches.get("bufferpool").info()
    db.estimate(panel, quota=20.0, seed=2)
    warm = caches.get("bufferpool").info()
    print(
        f"second query   : {warm.hits - cold.hits} block hits, "
        f"{warm.currsize} blocks resident"
    )

    # -- 3. a server shares blocks across the request stream ----------
    caches.get("bufferpool").clear()
    server = QueryServer(build_database(), policy=DegradeInfeasible())
    for i in range(4):
        server.serve(QueryRequest(expr=panel, quota=20.0, seed=10 + i))
    metrics = server.metrics
    print(
        f"server stream  : {metrics.buffer_hits} hits / "
        f"{metrics.buffer_misses} misses "
        f"(ratio {metrics.buffer_hit_ratio:.2f})"
    )

    # -- 4. a write evicts the relation everywhere --------------------
    resident = caches.get("bufferpool").info().currsize
    server.database.append_rows("orders", [(10**6, 5)])
    after = caches.get("bufferpool").info()
    print(
        f"append_rows    : {resident} resident -> {after.currsize} "
        f"({after.invalidations} entries invalidated)"
    )


if __name__ == "__main__":
    main()
