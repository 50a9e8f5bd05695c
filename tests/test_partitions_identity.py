"""Invariant 10 — a partitioned relation is bit-identical to a plain one.

The contract (``docs/architecture.md``): for the same seed, the same rows
loaded into a plain relation ("off") and into a ``partitions=4`` relation
("on") produce bit-identical estimates, charged costs and stage schedules.
A shard is a *label* on a global block: block ids, contents, the sampler's
global permutation and the per-block read loop are the plain relation's,
so the only permitted trace difference is the presence of
``shard_scan_started``/``shard_merged`` events (which only a partitioned
relation's reads emit).

The battery: plain vs partitioned on the engine and the row-at-a-time
oracle (ids ``vectorized`` / ``python``) × three query shapes, a
50-session stress mix over one shared partitioned relation, and
fault-replay identity. ``test_read_reference.py`` pins the same at the
storage level.
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
from tests.rowwise_oracle import rowwise_stages

SHARD_KINDS = ("shard_scan_started", "shard_merged")


@pytest.fixture(autouse=True)
def fresh_caches():
    caches.get("plans").clear()
    yield
    caches.get("plans").clear()


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


@pytest.mark.parametrize("rowwise", [True, False], ids=["python", "vectorized"])
@pytest.mark.parametrize("expr,quota", QUERIES, ids=["select", "conjunct", "join"])
class TestOnOffIdentity:
    def test_partitions_on_equals_off(self, rowwise, expr, quota):
        off = run_signature(plain_db(), expr, quota, seed=5, rowwise=rowwise)
        caches.get("plans").clear()
        on = run_signature(make_db(), expr, quota, seed=5, rowwise=rowwise)
        assert on == off


class TestSharedShardStress:
    """50 sessions over one partitioned db = over the plain db, bit for bit."""

    SESSIONS = 50

    @staticmethod
    def mix(db: Database) -> list:
        signatures = []
        for i in range(TestSharedShardStress.SESSIONS):
            expr, quota = QUERIES[i % len(QUERIES)]
            signatures.append(
                run_signature(
                    db, expr, quota, seed=100 + i,
                    rowwise=not i % 2,
                )
            )
        return signatures

    def test_stress_mix_identical(self):
        baseline = self.mix(plain_db())
        caches.get("plans").clear()
        sharded = self.mix(make_db())
        assert sharded == baseline


class TestFaultReplayIdentity:
    """Seed-replayable faults replay identically over a partitioned relation."""

    PLAN = FaultPlan(read_error_prob=0.05, slow_read_prob=0.05, seed_salt=3)

    def run_faulted(self, db):
        sink = RecordingSink()
        result = db.estimate(
            QUERIES[0][0], quota=QUERIES[0][1], seed=8,
            options=QueryOptions(sink=sink, fault_plan=self.PLAN),
        )
        return (
            [e.to_dict() for e in sink if e.kind not in SHARD_KINDS],
            [
                (f.stage, f.kind, f.relation, f.block_id)
                for f in result.report.faults
            ],
            result.report.termination,
        )

    def test_fault_stream_identical_on_off(self):
        off = self.run_faulted(plain_db(seed=21))
        caches.get("plans").clear()
        on = self.run_faulted(make_db(seed=21))
        assert on == off
