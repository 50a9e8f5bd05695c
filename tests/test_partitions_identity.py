"""Invariant 10 — a partitioned relation is bit-identical to a plain one.

The contract (``docs/architecture.md``): for the same seed, the same rows
loaded into a plain relation ("off") and into a ``partitions=4`` relation
("on") produce bit-identical estimates, charged costs, stage schedules and
buffer-pool counters. A shard is a *label* on a global block: block ids,
contents, the sampler's global permutation, the per-block read loop and
the pool keys are the plain relation's, so the only permitted trace
difference is the presence of ``shard_scan_started``/``shard_merged``
events (which only a partitioned relation's reads emit). That is
deliberately *weaker* than the buffer pool's invariant 9, which pins
traces verbatim.

The battery mirrors ``test_bufferpool_identity.py``: plain vs partitioned
on the engine and the row-at-a-time oracle (ids ``vectorized`` /
``python``) × thrashing/roomy pool × three query shapes, a 50-session
stress mix over one shared partitioned relation, fault-replay identity,
and a hard-deadline run whose interrupted stage must leave the same
blocks in the pool.
"""

from __future__ import annotations

import pytest

from repro import caches
from repro.core.database import Database
from repro.core.options import QueryOptions
from repro.faults.plan import FaultPlan
from repro.observability import RecordingSink
from repro.relational.expression import join, rel
from repro.relational.predicate import cmp
from repro.storage.bufferpool import BufferPool
from repro.timecontrol.stopping import HardDeadline
from repro.timecontrol.strategies import FixedFractionHeuristic
from tests.rowwise_oracle import rowwise_stages

SHARD_KINDS = ("shard_scan_started", "shard_merged")


@pytest.fixture(autouse=True)
def fresh_caches():
    for name in ("plans", "bufferpool"):
        caches.get(name).clear()
    yield
    for name in ("plans", "bufferpool"):
        caches.get(name).clear()


def make_db(seed: int = 11, partitions: int | None = 4) -> Database:
    db = Database(seed=seed)
    db.create_relation(
        "r1",
        [("id", "int"), ("a", "int")],
        rows=[(i, i % 97) for i in range(12_000)],
        partitions=partitions,
    )
    db.create_relation(
        "r2",
        [("a", "int"), ("c", "int")],
        rows=[(i % 13, i) for i in range(3_000)],
        partitions=partitions,
        partition_strategy="hash",
    )
    return db


QUERIES = [
    (rel("r1").where(cmp("a", "<", 10)), 4.0),
    (rel("r1").where(cmp("a", "<", 10)).where(cmp("id", ">", 100)), 4.0),
    (join(rel("r1"), rel("r2"), on=["a"]), 900.0),
]


def plain_db(seed: int = 11) -> Database:
    """The same rows in plain heap files: the unsharded reference."""
    return make_db(seed, partitions=None)


def run_signature(
    db: Database, expr, quota: float, seed: int, rowwise: bool = False, **options
):
    """Everything invariant 10 pins, plus traces minus shard events."""
    sink = RecordingSink()
    with rowwise_stages(rowwise):
        result = db.estimate(
            expr,
            quota=quota,
            seed=seed,
            options=QueryOptions(sink=sink, **options),
        )
    report = result.report
    return (
        None if report.estimate is None else (
            report.estimate.value,
            report.estimate.variance,
            report.estimate.sample_points,
        ),
        [
            (s.index, s.fraction, s.duration, s.blocks_read, s.new_points)
            for s in report.stages
        ],
        report.termination,
        sum(s.duration for s in report.stages),
        [e.to_dict() for e in sink if e.kind not in SHARD_KINDS],
    )


def signature_and_pool(db: Database, *args, capacity: int | None = None, **options):
    """``run_signature`` through an isolated pool, plus that pool's counters."""
    pool = BufferPool() if capacity is None else BufferPool(capacity=capacity)
    return run_signature(db, *args, bufferpool=pool, **options), pool.info()


@pytest.mark.parametrize("rowwise", [True, False], ids=["python", "vectorized"])
@pytest.mark.parametrize("expr,quota", QUERIES, ids=["select", "conjunct", "join"])
class TestOnOffIdentity:
    def test_partitions_on_equals_off(self, rowwise, expr, quota):
        off = signature_and_pool(
            plain_db(), expr, quota, seed=5, rowwise=rowwise, capacity=1
        )
        caches.get("plans").clear()
        on = signature_and_pool(
            make_db(), expr, quota, seed=5, rowwise=rowwise, capacity=1
        )
        assert on == off

    def test_identity_holds_through_the_pool(self, rowwise, expr, quota):
        """One set of pool keys: same answers *and* same pool counters."""
        off = signature_and_pool(plain_db(), expr, quota, seed=5, rowwise=rowwise)
        caches.get("plans").clear()
        on = signature_and_pool(make_db(), expr, quota, seed=5, rowwise=rowwise)
        assert on == off


class TestSharedShardStress:
    """50 sessions over one partitioned db = over the plain db, bit for bit."""

    SESSIONS = 50

    @staticmethod
    def mix(db: Database, pool) -> list:
        signatures = []
        for i in range(TestSharedShardStress.SESSIONS):
            expr, quota = QUERIES[i % len(QUERIES)]
            signatures.append(
                run_signature(
                    db, expr, quota, seed=100 + i,
                    rowwise=not i % 2,
                    bufferpool=pool,
                )
            )
        return signatures

    def test_stress_mix_identical(self):
        # One pool per side, smaller than the relations: the sessions share
        # blocks *and* evict each other's, identically on both sides.
        plain_pool, sharded_pool = BufferPool(capacity=64), BufferPool(capacity=64)
        baseline = self.mix(plain_db(), plain_pool)
        caches.get("plans").clear()
        sharded = self.mix(make_db(), sharded_pool)
        assert sharded == baseline
        assert sharded_pool.info() == plain_pool.info()
        assert plain_pool.info().hits and plain_pool.info().evictions


class TestFaultReplayIdentity:
    """Seed-replayable faults replay identically over a partitioned relation."""

    PLAN = FaultPlan(read_error_prob=0.05, slow_read_prob=0.05, seed_salt=3)

    def run_faulted(self, db):
        sink = RecordingSink()
        pool = BufferPool()
        result = db.estimate(
            QUERIES[0][0], quota=QUERIES[0][1], seed=8,
            options=QueryOptions(sink=sink, fault_plan=self.PLAN, bufferpool=pool),
        )
        return (
            [e.to_dict() for e in sink if e.kind not in SHARD_KINDS],
            [
                (f.stage, f.kind, f.relation, f.block_id)
                for f in result.report.faults
            ],
            result.report.termination,
            pool.info(),
        )

    def test_fault_stream_identical_on_off(self):
        off = self.run_faulted(plain_db(seed=21))
        caches.get("plans").clear()
        on = self.run_faulted(make_db(seed=21))
        assert on == off


class TestInterruptedStageAdmission:
    """No block is admitted ahead of its charge, whatever the relation kind.

    A read that materialises a stage's drawn blocks before charging them
    (a prefetch) does uninterruptible work ahead of the timer: a stage
    killed by the hard deadline then leaves blocks in the pool the clock
    never paid for — here all 78 drawn blocks instead of the 26 charged.
    """

    @staticmethod
    def run_overrunning(partitions):
        db = Database(seed=11)
        db.create_relation(
            "r1",
            [("id", "int"), ("a", "int")],
            rows=[(i, i % 97) for i in range(20_000)],
            partitions=partitions,
        )
        pool = BufferPool()
        result = db.estimate(
            rel("r1").where(cmp("a", "<", 10)),
            quota=2.0,
            seed=5,
            options=QueryOptions(
                # A first stage sized to overrun: half the relation in 2 s.
                strategy=FixedFractionHeuristic(gamma=1.0, probe_fraction=0.5),
                stopping=HardDeadline(),
                measure_overspend=False,
                bufferpool=pool,
            ),
        )
        return result.report.termination, pool.info(), db.relation("r1").block_count

    def test_interrupted_stage_admits_only_charged_blocks(self):
        plain_termination, plain_pool, blocks = self.run_overrunning(None)
        part_termination, part_pool, _ = self.run_overrunning(4)
        assert plain_termination == part_termination == "interrupted"
        assert part_pool == plain_pool
        # The deadline fell inside stage 1, so fewer blocks were charged —
        # and therefore admitted — than the stage drew.
        assert 0 < plain_pool.misses < blocks // 2
