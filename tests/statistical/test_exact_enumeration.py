"""Exact enumeration: the staged COUNT estimator is unbiased, not just close.

A run's sample is, per scan, the sequence of block sets its stages draw. On
two relations of 20 tuples in 5 blocks of 4, every such sequence can be
listed: a sequence of per-stage sets ``S_1 … S_m`` stands for
``Π |S_i|! · (5 − Σ |S_i|)!`` of the ``5!`` equally likely block orders, so
weighting each by that multiplicity gives the exact distribution of ``Ŷ``
under the sampler's uniform draw. The seam is the sampler's draw order: a
scan hands out ``sampler._drawn`` in order before it picks anything, so a
full block order set there before stage 1 fixes the sample.

Asserted: ``E[Ŷ]`` equals the exact COUNT for a select, a join, an
intersection and a union under the stage schedules 2, 2+1 and 3 blocks, and
the split schedule 2+1 gives ``Ŷ`` the same distribution as one stage of 3.

Recorded, not asserted — the reported variance ``v̂`` against the true
``Var[Ŷ]`` (2+1 and 3 agree on both)::

    query      blocks  Var[Ŷ]   E[v̂]
    select     2         2.250    7.607
    select     3         1.000    3.273
    join       2        21.938  473.187
    join       3         5.444  158.906
    intersect  2        93.750   50.750
    intersect  3        33.333   17.305
    union      2        93.750   50.750
    union      3        33.333   17.305

The select and join variances overstate, the intersection's understates;
the union's is its intersection term's, the bare terms being exact.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import pytest

from repro.core.database import Database
from repro.relational.evaluator import count_exact
from repro.relational.expression import intersect, join, rel, select, union
from repro.relational.predicate import cmp

BLOCKS = 5
QUOTA = 1e9  # the stages are driven by hand; the quota never binds
QUERIES = {
    "select": select(rel("r"), cmp("a", "<", 1)),
    "join": join(rel("r"), rel("s"), on=["a"]),
    "intersect": intersect(rel("r"), rel("s")),
    "union": union(rel("r"), rel("s")),
}
SCHEDULES = {"2": (2,), "2+1": (2, 1), "3": (3,)}


@lru_cache(maxsize=None)
def database() -> Database:
    db = Database(seed=0, block_size=32)  # two 4-byte ints: 4 tuples a block
    for name, first in (("r", 0), ("s", 10)):  # r ∩ s: ids 10..19
        db.create_relation(
            name,
            [("id", "int"), ("a", "int")],
            rows=[(i, i % 3) for i in range(first, first + 20)],
        )
    return db


def block_orders(schedule: tuple[int, ...]) -> list[tuple[list[int], int]]:
    """One full block order per sequence of per-stage block sets, with the
    number of the ``5!`` orders that draw the same sets stage by stage."""

    def tails(left: frozenset, stages: tuple[int, ...]):
        if not stages:
            yield sorted(left), math.factorial(len(left))
            return
        for chosen in itertools.combinations(sorted(left), stages[0]):
            for rest, weight in tails(left - set(chosen), stages[1:]):
                yield list(chosen) + rest, math.factorial(stages[0]) * weight

    return list(tails(frozenset(range(BLOCKS)), schedule))


@lru_cache(maxsize=None)
def distribution(query: str, schedule: str) -> dict[float, Fraction]:
    """``Ŷ → probability`` over every sample the schedule can draw."""
    stages = SCHEDULES[schedule]
    plan = database().open_session(QUERIES[query], quota=QUOTA, seed=0).plan
    before_stage_1 = plan.snapshot()
    total = math.factorial(BLOCKS) ** len(plan.scans)
    weights: dict[float, Fraction] = defaultdict(Fraction)
    for case in itertools.product(block_orders(stages), repeat=len(plan.scans)):
        plan.restore(before_stage_1)
        weight = 1
        for scan, (order, multiplicity) in zip(plan.scans, case):
            scan.sampler._drawn = list(order)
            weight *= multiplicity
        for size in stages:
            plan.advance_stage(size / BLOCKS)
        for scan, (order, _) in zip(plan.scans, case):
            assert scan.sampler.drawn_block_ids == order[: sum(stages)]
        weights[plan.estimate().value] += Fraction(weight, total)
    assert sum(weights.values()) == 1
    return dict(weights)


def test_relations_are_five_blocks_of_four():
    for name in ("r", "s"):
        heap = database().catalog.get(name)
        assert (heap.block_count, heap.tuple_count) == (BLOCKS, 20)


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("query", QUERIES)
def test_count_estimate_is_unbiased(query, schedule):
    dist = distribution(query, schedule)
    expected = sum(value * float(p) for value, p in dist.items())
    exact = count_exact(QUERIES[query], database().catalog)
    assert expected == pytest.approx(exact, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("query", QUERIES)
def test_split_schedule_draws_like_one_stage(query):
    def rounded(dist):
        merged: dict[float, Fraction] = defaultdict(Fraction)
        for value, p in dist.items():
            merged[round(value, 9)] += p
        return dict(merged)

    assert rounded(distribution(query, "2+1")) == rounded(distribution(query, "3"))
