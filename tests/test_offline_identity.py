"""Bit-identity pins for the work done outside every quota.

Loading, ANALYZE and exact evaluation run a column at a time:
``HeapFile.load`` validates the whole batch with ``Schema.validate_rows``
and cuts blocks by slicing, ``EquiDepthHistogram.build`` sorts with
``np.sort(kind="stable")``, and ``ExactEvaluator`` reads a relation with
``HeapFile.scan_all`` (``CostCharger.units``) and selects with the compiled
column mask (``select_batch``). Each path is compared here with the per-row
reference it replaced, written out in this file: ``validate_row`` per row
into densely packed blocks, ``sorted()`` over Python floats, and the
per-block ``HeapFile.scan`` plus ``apply_select`` with the compiled row
function. Stored blocks, histograms, exact rows and answers, charger
totals and counts, the clock, the deadline crossing, the trace and the RNG
position must all agree bit for bit; a rejected batch must raise the
message ``validate_row`` raises.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

import numpy as np
import pytest

from repro.catalog.schema import Attribute, Schema
from repro.catalog.types import AttributeType
from repro.core.database import Database
from repro.errors import QuotaExpired, SchemaError
from repro.estimation.aggregates import avg_of, sum_of
from repro.observability import RecordingSink
from repro.relational import (
    ExactEvaluator,
    RelationRef,
    Select,
    attr,
    cmp,
    difference,
    intersect,
    join,
    rel,
    union,
)
from repro.relational.operators import apply_select
from repro.statistics.histogram import EquiDepthHistogram
from repro.statistics.stats import analyze
from repro.storage.heapfile import HeapFile
from repro.storage.partitioned import PARTITION_STRATEGIES, PartitionedHeapFile
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile

# (id INT 4, x FLOAT 8, s STR 16) = 28 bytes: three to a 100-byte block.
MIXED = Schema(
    (
        Attribute("id", AttributeType.INT),
        Attribute("x", AttributeType.FLOAT),
        Attribute("s", AttributeType.STR),
    )
)
BLOCK_SIZE = 100
BF = MIXED.blocking_factor(BLOCK_SIZE)
Point = namedtuple("Point", "id x s")


def bits(rows) -> list:
    """Rows down to the bit: container and value types, and ``repr``
    (which tells ``-0.0`` from ``0.0`` and ``1`` from ``1.0``)."""
    return [
        (type(row).__name__, tuple(type(v).__name__ for v in row), repr(row))
        for row in rows
    ]


def heap_blocks(heap: HeapFile) -> list:
    return [(b.block_id, b.capacity, bits(b.rows)) for b in heap._blocks]


def reference_blocks(schema: Schema, block_size: int, batches) -> list:
    """The per-row loader: ``validate_row`` each row into the last block,
    opening a new block when it is full."""
    bf = schema.blocking_factor(block_size)
    blocks: list[list] = []
    for batch in batches:
        for raw in batch:
            row = schema.validate_row(raw)
            if not blocks or len(blocks[-1]) == bf:
                blocks.append([])
            blocks[-1].append(row)
    return [(i, bf, bits(rows)) for i, rows in enumerate(blocks)]


def mixed_rows(start: int, count: int, shape: str) -> list:
    """``count`` valid rows; ``shape`` picks the path they take through
    ``validate_rows``: plain tuples take the column path, the rest fall
    back to ``validate_row`` (lists, a tuple subclass, ints in the FLOAT
    column that ``validate`` coerces)."""
    rows = []
    for i in range(start, start + count):
        x = (-0.0, 0.0, 2.5, -math.inf, math.inf)[i % 5]
        row = (i, x, f"s{i % 4}")
        if shape == "list":
            row = list(row)
        elif shape == "namedtuple":
            row = Point(*row)
        elif shape == "int-in-float":
            row = (i, i - 3, row[2])
        rows.append(row)
    return rows


SHAPES = ["tuple", "list", "namedtuple", "int-in-float"]


class TestLoad:
    """Blocks (ids, capacities, row bits) after one or two loads of every
    size modulo the blocking factor."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("partitioned", [False, True], ids=["plain", "partitioned"])
    def test_blocks_equal_the_per_row_loader(self, shape, partitioned):
        for first in range(2 * BF + 2):
            for second in range(BF + 2):
                batches = [
                    mixed_rows(0, first, shape),
                    mixed_rows(first, second, "tuple"),
                ]
                if partitioned:
                    heap = PartitionedHeapFile("r", MIXED, BLOCK_SIZE, partitions=3)
                else:
                    heap = HeapFile("r", MIXED, BLOCK_SIZE)
                loaded = [heap.load(batch) for batch in batches]
                assert loaded == [first, second]
                assert heap.tuple_count == first + second
                assert heap_blocks(heap) == reference_blocks(
                    MIXED, BLOCK_SIZE, batches
                ), (shape, first, second)

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_partitioned_blocks_equal_plain_blocks(self, strategy):
        rows = mixed_rows(0, 10 * BF + 1, "tuple")
        plain = HeapFile("r", MIXED, BLOCK_SIZE)
        part = PartitionedHeapFile(
            "r", MIXED, BLOCK_SIZE, partitions=4, strategy=strategy
        )
        for heap in (plain, part):
            heap.load(rows[:7])
            heap.load(iter(rows[7:]))  # any iterable, not only a list
        assert heap_blocks(part) == heap_blocks(plain)

    def test_input_tuples_are_stored_as_given(self):
        rows = mixed_rows(0, 2 * BF, "tuple")
        heap = HeapFile("r", MIXED, BLOCK_SIZE)
        heap.load(rows)
        stored = [row for block in heap._blocks for row in block.rows]
        assert all(a is b for a, b in zip(stored, rows))
        rows.clear()  # the caller's list is not a block
        assert heap.tuple_count == len(heap.all_rows()) == 2 * BF


ERROR_BATCHES = {
    "bool-in-int": [(1, 1.0, "a"), (True, 1.0, "a")],
    "str-in-int": [(1, 1.0, "a"), ("2", 1.0, "a")],
    "int-in-str": [(1, 1.0, "a"), (2, 1.0, 3)],
    "bool-in-float": [(1, False, "a")],
    "nan-in-float": [(1, 1.0, "a"), (2, math.nan, "a")],
    "wrong-arity": [(1, 1.0, "a"), (2, 1.0)],
    "two-bad-rows": [(1, 1.0, 9), (True, 1.0, "a")],
    "bad-row-as-list": [[1, 1.0, "a"], [2, "x", "a"]],
}


class TestErrors:
    """A bad batch raises what ``validate_row`` raises on its first bad
    row, and leaves the heap as it was."""

    @staticmethod
    def reference_message(batch) -> str:
        for row in batch:
            try:
                MIXED.validate_row(row)
            except SchemaError as error:
                return str(error)
        raise AssertionError("the batch has no bad row")

    @pytest.mark.parametrize("batch", ERROR_BATCHES.values(), ids=ERROR_BATCHES.keys())
    def test_message_and_heap_unchanged(self, batch):
        heap = HeapFile("r", MIXED, BLOCK_SIZE)
        heap.load(mixed_rows(0, BF + 1, "tuple"))  # a partial last block
        before = heap_blocks(heap)
        with pytest.raises(SchemaError) as raised:
            heap.load(batch)
        assert str(raised.value) == self.reference_message(batch)
        assert heap_blocks(heap) == before
        assert heap.tuple_count == BF + 1 and heap.block_count == 2


def reference_histogram(values, buckets: int) -> tuple:
    """The ``sorted()`` builder, with its result in :func:`histogram_bits`
    form."""
    ordered = sorted(float(v) for v in values)
    total = len(ordered)
    if total == 0:
        return (repr((0.0, 0.0)), (0,), 0, 0)
    buckets = min(buckets, total)
    distinct = 1 + sum(1 for a, b in zip(ordered, ordered[1:]) if a != b)
    boundaries = [ordered[0]]
    depths = []
    taken = 0
    for i in range(buckets):
        target = round((i + 1) * total / buckets)
        depths.append(target - taken)
        taken = target
        boundaries.append(ordered[min(taken, total) - 1])
    return (repr(tuple(boundaries)), tuple(depths), distinct, total)


def histogram_bits(hist: EquiDepthHistogram) -> tuple:
    return (repr(hist.boundaries), hist.depths, hist.distinct, hist.total)


def value_sets() -> dict[str, list]:
    rng = random.Random(32)
    zeros = [-0.0, 0.0] * 40 + [rng.choice([-1.0, 1.0]) for _ in range(20)]
    rng.shuffle(zeros)
    return {
        "empty": [],
        "one-int": [7],
        "one-float": [-0.0],
        "ints-dense-duplicates": [rng.randrange(10) for _ in range(500)],
        "ints-wide": [rng.randrange(-10**6, 10**6) for _ in range(777)],
        "ints-past-2**53": [2**53 + rng.randrange(5) for _ in range(40)],
        "ints-past-int64": [2**70 + i for i in range(9)] + [-(2**65)],
        "floats": [rng.uniform(-1e3, 1e3) for _ in range(640)],
        "floats-rounded": [round(rng.gauss(0, 3), 1) for _ in range(333)],
        "signed-zeros": zeros,
        "infinities": [math.inf, -math.inf, 1.5, 0.0, -0.0, math.inf],
        "ints-and-floats": [1, 1.0, 2, -0.0, 0, 2.0, 3] * 11,
    }


class TestHistogram:
    @pytest.mark.parametrize("buckets", [1, 3, 32, 1000])
    @pytest.mark.parametrize("name", value_sets().keys())
    def test_build_equals_the_sorted_builder(self, name, buckets):
        values = value_sets()[name]
        hist = EquiDepthHistogram.build(values, buckets)
        assert histogram_bits(hist) == reference_histogram(values, buckets)
        assert all(type(b) is float for b in hist.boundaries)

    def test_analyze_equals_the_sorted_builder(self):
        heap = HeapFile("r", MIXED, BLOCK_SIZE)
        heap.load(mixed_rows(0, 200, "tuple"))
        heap.load(mixed_rows(200, 31, "int-in-float"))
        stats = analyze(heap, buckets=8)
        assert sorted(stats.histograms) == ["id", "x"]
        rows = heap.all_rows()
        for index, name in ((0, "id"), (1, "x")):
            assert histogram_bits(stats.histogram(name)) == reference_histogram(
                [row[index] for row in rows], 8
            )


class ReferenceEvaluator(ExactEvaluator):
    """The per-row exact evaluator: per-block ``scan`` and ``apply_select``
    with the compiled row function; every other operator is shared."""

    def _eval(self, expr):
        if isinstance(expr, RelationRef):
            return list(self.catalog.get(expr.name).scan(self.charger))
        if isinstance(expr, Select):
            rows = self._eval(expr.child)
            schema = expr.schema(self.catalog)
            row_fn = expr.predicate.compile(schema)
            return apply_select(rows, row_fn, self.charger, self._bf(schema))
        return super()._eval(expr)


PAPER = [("id", "int"), ("a", "int"), ("f", "float"), ("s", "str")]


@pytest.fixture(scope="module")
def db() -> Database:
    database = Database(profile=MachineProfile.sun3_60(), seed=32, block_size=128)
    for name, start in (("r1", 0), ("r2", 300)):
        database.create_relation(
            name,
            PAPER,
            rows=[
                (i, i % 50, (i % 7) - 3.0 if i % 11 else -0.0, f"k{i % 6}")
                for i in range(start, start + 600)
            ],
        )
    database.create_relation(
        "p", PAPER, rows=database.relation("r1").all_rows()[:250], partitions=3
    )
    # Past 2**53 a float64 comparison would round the integers, and a
    # unicode array would drop the trailing NULs: both must be decided as
    # the row function decides them.
    big = 2**53
    database.create_relation(
        "w",
        PAPER,
        rows=[
            (big + i, i, float(big + 2 * (i // 2)), "a" + "\x00" * (i % 3))
            for i in range(-6, 7)
        ],
    )
    return database


r1, r2 = rel("r1"), rel("r2")
QUERIES = {
    "scan": r1,
    "select": r1.where(cmp("a", "<", 20)),
    "select-nothing": r1.where(cmp("a", ">", 99)),
    "select-select": r1.where(cmp("a", "<", 20)).where(cmp("f", ">=", 0.0)),
    "select-str": r1.where(cmp("s", "==", "k3")),
    "select-or-not-attr": r1.where(
        (cmp("a", "<", 5) | ~cmp("f", "<", 2.0)) & cmp("a", "<", attr("id"))
    ),
    "select-partitioned": rel("p").where(cmp("id", ">=", 100)),
    "select-int-past-2**53-vs-float": rel("w").where(cmp("id", ">", 2.0**53)),
    "select-float-vs-int-past-2**53": rel("w").where(cmp("f", "==", 2**53 + 1)),
    "select-float-vs-int-column": rel("w").where(cmp("f", "<", attr("id"))),
    "select-str-ending-in-nul": rel("w").where(cmp("s", "==", "a")),
    "join": join(r1, r2, on=["a"]),
    "select-join": join(r1, r2, on=["a"]).where(cmp("id", "<", 400)),
    "intersect": intersect(r1, r2),
    "union": union(r1, r2.where(cmp("a", "<", 10))),
    "difference": difference(r1.where(cmp("a", "<", 30)), r2),
    "project": r1.project("a", "s"),
    "select-project": r1.project("a", "f").where(cmp("f", "<", 0.0)),
}


def observed(db: Database, evaluator_cls, expr, deadline: float | None = None):
    """Everything an exact evaluation leaves behind, on a jittered
    ``sun3_60`` charger with per-charge trace events."""
    sink = RecordingSink()
    rng = np.random.default_rng(5)
    charger = CostCharger(db.profile, rng=rng, sink=sink, trace_costs=True)
    if deadline is not None:
        charger.arm(deadline, hard=True)
    try:
        rows = bits(evaluator_cls(db.catalog, charger, db.block_size).rows(expr))
        error = None
    except QuotaExpired as expired:
        rows, error = None, str(expired)
    return (
        rows,
        error,
        charger.clock.now(),
        {kind.name: v for kind, v in charger.totals.items()},
        {kind.name: v for kind, v in charger.counts.items()},
        charger.crossed_at,
        sink.events,
        rng.bit_generator.state,
    )


class TestExact:
    @pytest.mark.parametrize("expr", QUERIES.values(), ids=QUERIES.keys())
    def test_rows_and_charges_equal_the_per_row_evaluator(self, db, expr):
        ours = observed(db, ExactEvaluator, expr)
        assert ours == observed(db, ReferenceEvaluator, expr)
        assert ours[0] is not None and ours[3]["BLOCK_READ"] > 0

    @pytest.mark.parametrize("deadline", [0.0001, 0.5, 2.0])
    @pytest.mark.parametrize("name", ["select-select", "join"])
    def test_interrupted_scan_leaves_the_reference_state(self, db, name, deadline):
        """A hard deadline inside the batched scan stops it on the block
        the per-block scan stops on, and rewinds the batched jitter draw to
        the blocks actually charged."""
        ours = observed(db, ExactEvaluator, QUERIES[name], deadline)
        assert ours[1] is not None  # the deadline really fired
        assert ours == observed(db, ReferenceEvaluator, QUERIES[name], deadline)

    @pytest.mark.parametrize("expr", QUERIES.values(), ids=QUERIES.keys())
    def test_count_aggregate_and_count_timed(self, db, expr):
        free = CostCharger(MachineProfile.uniform(0.0))
        rows = ReferenceEvaluator(db.catalog, free, db.block_size).rows(expr)
        assert db.count(expr) == len(rows)
        schema = expr.schema(db.catalog)
        for name in ("a", "f"):
            if name not in schema:
                continue
            index = schema.index_of(name)
            total = float(sum(row[index] for row in rows))
            assert repr(db.aggregate(expr, sum_of(name))) == repr(total)
            mean = total / len(rows) if rows else 0.0
            assert repr(db.aggregate(expr, avg_of(name))) == repr(mean)

        charger = db._make_charger(db._spawn_rng(17))
        start = charger.clock.now()
        value = len(ReferenceEvaluator(db.catalog, charger, db.block_size).rows(expr))
        reference = (value, charger.clock.now() - start)
        assert db.count_timed(expr, seed=17) == reference
