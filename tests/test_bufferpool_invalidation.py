"""Mutations evict the buffer pool alongside every other derived cache.

Satellite contract: each of the three committed-mutation routes —
``Database.append_rows``, ``Database.drop_relation``, and a realtime
:class:`~repro.realtime.WriteTask` commit — must invalidate the mutated
relation everywhere derived state lives: the process-wide buffer pool
(default *and* any custom pool, via the broadcast), the plan cache, and
the synopsis catalog. One parametrized test covers all routes so a new
mutation path cannot forget one of the caches without failing here.
"""

from __future__ import annotations

import pytest

from repro.core.database import Database
from repro.core.options import QueryOptions
from repro import caches
from repro.realtime import QueryTask, TransactionScheduler, WriteTask
from repro.relational import cmp, rel
from repro.storage.bufferpool import BufferPool, default_pool


@pytest.fixture(autouse=True)
def fresh_caches():
    caches.get("plans").clear()
    caches.get("bufferpool").clear()
    yield
    caches.get("plans").clear()
    caches.get("bufferpool").clear()


def make_db() -> Database:
    db = Database(seed=7)
    db.create_relation(
        "r1",
        [("id", "int"), ("a", "int")],
        rows=[(i, i % 100) for i in range(1_000)],
    )
    return db


def query():
    return rel("r1").where(cmp("a", "<", 5))


def mutate_append(db: Database) -> None:
    db.append_rows("r1", [(10**6 + i, 1) for i in range(5)])


def mutate_drop(db: Database) -> None:
    db.drop_relation("r1")


def mutate_write_task(db: Database) -> None:
    # A transaction must carry at least one query; it reads through a
    # scratch pool so the *observation* below sees the commit's eviction
    # in the watched pools, not the follow-up query's re-admissions.
    result = TransactionScheduler(db).run(
        [
            WriteTask("w", "r1", [(10**6 + i, 1) for i in range(3)]),
            QueryTask("q", rel("r1").where(cmp("a", "<", 50))),
        ],
        deadline=5.0,
        seed=9,
        bufferpool=BufferPool(),
    )
    assert result.met_deadline


MUTATIONS = [mutate_append, mutate_drop, mutate_write_task]
IDS = ["append_rows", "drop_relation", "write_task"]

# Plans cached *after* the commit's invalidation: the write-task route
# runs its own follow-up query, which re-caches exactly one fresh plan
# (were invalidation skipped, both pre-mutation plans would survive too).
PLANS_AFTER = {mutate_append: 0, mutate_drop: 0, mutate_write_task: 1}


@pytest.mark.parametrize("mutate", MUTATIONS, ids=IDS)
def test_mutation_evicts_bufferpool_plan_cache_and_synopses(mutate):
    db = make_db()
    custom = BufferPool(capacity=64)
    # Populate every derived cache: default pool + synopses on the first
    # run, a custom session pool on the second.
    db.estimate(
        query(), quota=5.0, seed=3,
        options=QueryOptions(synopses=True),
    )
    db.estimate(query(), quota=5.0, seed=4, options=QueryOptions(bufferpool=custom))
    assert caches.get("bufferpool").info().currsize > 0
    assert custom.info().currsize > 0
    assert caches.get("plans").info().currsize >= 1
    assert db.synopses.info().answers == 1

    mutate(db)

    # Buffer pool: every r1 entry gone, in the default and the custom pool.
    assert caches.get("bufferpool").info().currsize == 0
    assert custom.info().currsize == 0
    assert caches.get("bufferpool").info().invalidations > 0
    assert custom.info().invalidations > 0
    # Plan cache and synopsis catalog: invalidated in the same breath.
    assert caches.get("plans").info().currsize == PLANS_AFTER[mutate]
    info = db.synopses.info()
    assert info.answers == 0 and info.invalidations == 1


@pytest.mark.parametrize("mutate", MUTATIONS, ids=IDS)
def test_unrelated_relation_survives_mutation(mutate):
    db = make_db()
    db.create_relation(
        "r2",
        [("id", "int"), ("a", "int")],
        rows=[(i, i % 10) for i in range(1_000)],
    )
    db.estimate(rel("r2").where(cmp("a", "<", 5)), quota=5.0, seed=3)
    resident_before = caches.get("bufferpool").info().currsize
    assert resident_before > 0
    mutate(db)
    # r2's blocks are untouched; only r1 state was dropped.
    assert caches.get("bufferpool").info().currsize == resident_before


def test_post_mutation_reads_see_new_contents():
    db = make_db()
    exact_before = db.relation("r1").tuple_count
    db.estimate(query(), quota=5.0, seed=3)
    db.append_rows("r1", [(10**6 + i, 1) for i in range(50)])
    assert db.relation("r1").tuple_count == exact_before + 50
    # A fresh read through the pool returns the grown relation's rows,
    # not stale cached blocks.
    relation = db.relation("r1")
    pool = default_pool()
    last = relation.block_count - 1
    from repro.timekeeping.charger import CostCharger
    from repro.timekeeping.profile import MachineProfile

    charger = CostCharger(MachineProfile.uniform(0.0))
    rows, _ = relation.read_blocks_decoded([last], charger, pool=pool)
    assert rows == relation.block_rows_uncharged(last)
