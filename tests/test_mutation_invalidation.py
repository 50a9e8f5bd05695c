"""Mutations evict every derived cache of the mutated relation.

Each of the three committed-mutation routes — ``Database.append_rows``,
``Database.drop_relation``, and a realtime
:class:`~repro.realtime.WriteTask` commit — must invalidate the mutated
relation everywhere derived state lives: the plan cache and the synopsis
catalog. One parametrized test covers all routes so a new mutation path
cannot forget one of the caches without failing here.
"""

from __future__ import annotations

import pytest

from repro.core.database import Database
from repro.core.options import QueryOptions
from repro import caches
from repro.realtime import QueryTask, TransactionScheduler, WriteTask
from repro.relational import cmp, rel


@pytest.fixture(autouse=True)
def fresh_caches():
    caches.get("plans").clear()
    yield
    caches.get("plans").clear()


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
    # A transaction must carry at least one query.
    result = TransactionScheduler(db).run(
        [
            WriteTask("w", "r1", [(10**6 + i, 1) for i in range(3)]),
            QueryTask("q", rel("r1").where(cmp("a", "<", 50))),
        ],
        deadline=5.0,
        seed=9,
    )
    assert result.met_deadline


MUTATIONS = [mutate_append, mutate_drop, mutate_write_task]
IDS = ["append_rows", "drop_relation", "write_task"]

# Plans cached *after* the commit's invalidation: the write-task route
# runs its own follow-up query, which re-caches exactly one fresh plan
# (were invalidation skipped, both pre-mutation plans would survive too).
PLANS_AFTER = {mutate_append: 0, mutate_drop: 0, mutate_write_task: 1}


@pytest.mark.parametrize("mutate", MUTATIONS, ids=IDS)
def test_mutation_evicts_plan_cache_and_synopses(mutate):
    db = make_db()
    # Populate every derived cache.
    db.estimate(
        query(), quota=5.0, seed=3,
        options=QueryOptions(synopses=True),
    )
    assert caches.get("plans").info().currsize >= 1
    assert db.synopses.info().answers == 1

    mutate(db)

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
    db.estimate(
        rel("r2").where(cmp("a", "<", 5)), quota=5.0, seed=3,
        options=QueryOptions(synopses=True),
    )
    assert caches.get("plans").info().currsize == 1
    mutate(db)
    # r2's plan and synopsis are untouched; only r1 state was dropped.
    assert caches.get("plans").info().currsize == 1 + PLANS_AFTER[mutate]
    assert db.synopses.info().answers == 1
