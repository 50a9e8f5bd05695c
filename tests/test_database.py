"""Tests for the Database facade and QueryResult."""

import pytest

from repro import caches
from repro.catalog.schema import Schema
from repro.catalog.types import AttributeType
from repro.core.database import Database
from repro.errors import EstimationError, ReproError, SchemaError
from repro.relational.expression import join, rel, select, union
from repro.relational.predicate import cmp
from repro.timecontrol.strategies import OneAtATimeInterval
from repro.timekeeping.profile import MachineProfile


@pytest.fixture
def db():
    # A 10×-faster sun3_60: keeps the designed prior-to-true cost structure
    # (uniform profiles distort it) while making the test relations cheap.
    database = Database(
        profile=MachineProfile.sun3_60(noise_sigma=0.1).scaled(0.1), seed=42
    )
    database.create_relation(
        "r1",
        [("id", "int"), ("a", "int")],
        rows=[(i, i % 10) for i in range(500)],
        block_size=16,
    )
    database.create_relation(
        "r2",
        [("id", "int"), ("a", "int")],
        rows=[(i, i % 10) for i in range(250, 750)],
        block_size=16,
    )
    return database


class TestRelationManagement:
    def test_create_with_pairs_spec(self, db):
        heap = db.relation("r1")
        assert heap.tuple_count == 500
        assert heap.schema.names == ("id", "a")

    def test_create_with_schema_object(self, db):
        schema = Schema.of(x=AttributeType.FLOAT)
        db.create_relation("rf", schema, rows=[(1.5,), (2.5,)])
        assert db.relation("rf").schema is schema

    def test_unknown_type_name_rejected(self, db):
        with pytest.raises(ReproError):
            db.create_relation("bad", [("x", "decimal")], rows=[])

    def test_drop(self, db):
        db.drop_relation("r1")
        with pytest.raises(Exception):
            db.relation("r1")

    def test_duplicate_name_rejected(self, db):
        with pytest.raises(Exception):
            db.create_relation("r1", [("x", "int")], rows=[])


class TestAtomicLoad:
    """A batch with one bad row stores nothing: the heap, its counts and
    every cache derived from it stay exactly as they were."""

    SCHEMA = [("id", "int"), ("a", "int"), ("b", "int"), ("s", "str")]
    BAD = [(100, 1, 1, "x"), (101, 2, 2, "x"), (102, True, 3, "x")]

    def _db(self, partitions):
        caches.clear()
        database = Database(seed=3, block_size=100)
        database.create_relation(
            "r",
            self.SCHEMA,
            rows=[(i, i % 3, i % 5, "x") for i in range(12)],
            partitions=partitions,
        )
        database.analyze()
        database.estimate(
            rel("r").where(cmp("a", "<", 2)), quota=60.0, seed=1, synopses=True
        )
        return database

    @staticmethod
    def _state(database):
        heap = database.relation("r")
        return (
            heap.all_rows(),
            heap.tuple_count,
            heap.block_count,
            database.count(rel("r")),
            database.catalog.names(),
            dict(database.statistics),
            database.synopses.snapshot(),
            caches.info(),
        )

    @pytest.mark.parametrize("partitions", [None, 3], ids=["plain", "partitioned"])
    def test_failed_append_rows_changes_nothing(self, partitions):
        database = self._db(partitions)
        before = self._state(database)
        assert before[1] == 12 and before[5] and caches.info()["plans"].currsize
        with pytest.raises(SchemaError, match="expected int, got True"):
            database.append_rows("r", self.BAD)
        assert self._state(database) == before
        assert database.append_rows("r", self.BAD[:2]) == 2
        assert database.count(rel("r")) == 14 and "r" not in database.statistics

    @pytest.mark.parametrize("partitions", [None, 3], ids=["plain", "partitioned"])
    def test_failed_create_relation_registers_nothing(self, partitions):
        database = self._db(partitions)
        before = self._state(database)
        with pytest.raises(SchemaError, match="expected int, got True"):
            database.create_relation("q", self.SCHEMA, self.BAD, partitions=partitions)
        assert self._state(database) == before
        database.create_relation("q", self.SCHEMA, self.BAD[:2], partitions=partitions)
        assert database.count(rel("q")) == 2

    def test_nan_is_rejected_at_load(self):
        database = Database(seed=3)
        with pytest.raises(SchemaError, match="nan"):
            database.create_relation("f", [("x", "float")], [(1.0,), (float("nan"),)])
        assert "f" not in database.catalog.names()


class TestExactCounting:
    def test_count_matches_reference(self, db):
        assert db.count(select(rel("r1"), cmp("a", "<", 3))) == 150

    def test_count_timed_returns_cost(self, db):
        value, seconds = db.count_timed(rel("r1"))
        assert value == 500
        assert seconds > 0.0

    def test_invalid_clock_kind_rejected(self):
        with pytest.raises(ReproError):
            Database(clock="sundial")


class TestCountEstimate:
    def test_estimate_has_run_diagnostics(self, db):
        expr = select(rel("r1"), cmp("a", "<", 3))
        result = db.estimate(expr, quota=1.0, seed=7)
        assert result.estimate is not None
        assert result.stages >= 1
        assert result.blocks > 0
        assert 0 <= result.utilization <= 1
        assert result.quota == 1.0
        lo, hi = result.confidence_interval(0.95)
        assert lo <= result.value <= hi

    def test_same_seed_reproduces(self, db):
        expr = select(rel("r1"), cmp("a", "<", 3))
        a = db.estimate(expr, quota=1.0, seed=3)
        b = db.estimate(expr, quota=1.0, seed=3)
        assert a.value == b.value
        assert a.stages == b.stages

    def test_master_seed_spawns_distinct_streams(self, db):
        expr = select(rel("r1"), cmp("a", "<", 3))
        a = db.estimate(expr, quota=1.0)
        b = db.estimate(expr, quota=1.0)
        # Distinct spawned streams: almost surely different sample draws.
        assert (a.value, a.blocks) != (b.value, b.blocks) or a.stages != b.stages

    def test_union_query_estimable(self, db):
        result = db.estimate(union(rel("r1"), rel("r2")), quota=2.0, seed=1)
        assert result.estimate is not None
        true = db.count(union(rel("r1"), rel("r2")))
        assert result.value == pytest.approx(true, rel=0.5)

    def test_join_query_estimable(self, db):
        expr = join(rel("r1"), rel("r2"), on=["a"])
        result = db.estimate(
            expr, quota=6.0, strategy=OneAtATimeInterval(d_beta=12.0), seed=5
        )
        assert result.estimate is not None

    def test_summary_readable(self, db):
        result = db.estimate(
            select(rel("r1"), cmp("a", "<", 3)), quota=1.0, seed=7
        )
        text = result.summary()
        assert "COUNT" in text and "stages" in text

    def test_relative_error(self, db):
        expr = select(rel("r1"), cmp("a", "<", 3))
        result = db.estimate(expr, quota=4.0, seed=7)
        assert result.relative_error(150) >= 0.0

    def test_wall_clock_mode_runs(self):
        """The same controller against real time (tiny workload)."""
        db = Database(
            profile=MachineProfile.uniform(0.0), seed=0, clock="wall"
        )
        db.create_relation(
            "r1", [("id", "int"), ("a", "int")],
            rows=[(i, i % 5) for i in range(100)], block_size=16,
        )
        result = db.estimate(
            select(rel("r1"), cmp("a", "<", 2)), quota=2.0, seed=1
        )
        # Work is free in simulated charge terms but real wall time passes;
        # the run must produce an estimate well within the 2 s quota.
        assert result.estimate is not None


class TestQueryResultEdgeCases:
    def test_value_without_estimate_raises(self):
        from repro.core.result import QueryResult
        from repro.timecontrol.executor import RunReport

        result = QueryResult(report=RunReport(quota=1.0, started_at=0.0,
                                              termination="interrupted"))
        with pytest.raises(EstimationError):
            result.value
        with pytest.raises(EstimationError):
            result.confidence_interval()
        assert "no estimate" in result.summary()

    def test_relative_error_of_zero_truth(self, db):
        expr = select(rel("r1"), cmp("a", "<", 0))  # empty result
        result = db.estimate(expr, quota=2.0, seed=3)
        err = result.relative_error(0)
        assert err == 0.0 or err == float("inf")
