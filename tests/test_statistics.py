"""Tests for histograms, ANALYZE, and prestored selectivity hints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.core.database import Database
from repro.core.options import QueryOptions
from repro.errors import EstimationError, ReproError
from repro.relational.expression import intersect, join, project, rel, select
from repro.relational.predicate import attr, cmp
from repro.statistics.histogram import EquiDepthHistogram
from repro.statistics.prestored import SelectivityHinter
from repro.statistics.stats import analyze
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation


class TestEquiDepthHistogram:
    @pytest.mark.parametrize(
        "values", [[np.nan, 3.0, 1.0, 2.0], [3.0, np.nan, 1.0, 2.0]]
    )
    def test_nan_is_refused_wherever_it_sits(self, values):
        # sorted() put NaN wherever it started, leaving non-ascending
        # boundaries such as (3.0, nan, 2.0).
        with pytest.raises(EstimationError, match="NaN"):
            EquiDepthHistogram.build(values, buckets=2)

    def test_build_uniform(self):
        hist = EquiDepthHistogram.build(list(range(100)), buckets=4)
        assert hist.total == 100
        assert hist.distinct == 100
        assert sum(hist.depths) == 100
        # Equi-depth: all buckets hold ~the same count.
        assert max(hist.depths) - min(hist.depths) <= 1

    def test_empty_values(self):
        hist = EquiDepthHistogram.build([], buckets=4)
        assert hist.total == 0
        assert hist.selectivity("<", 10) == 0.0

    def test_range_selectivity_uniform(self):
        hist = EquiDepthHistogram.build(list(range(1000)), buckets=16)
        assert hist.selectivity("<", 250) == pytest.approx(0.25, abs=0.02)
        assert hist.selectivity(">=", 250) == pytest.approx(0.75, abs=0.02)
        assert hist.selectivity("<", -5) == 0.0
        assert hist.selectivity(">", 2000) == 0.0

    def test_equality_selectivity(self):
        hist = EquiDepthHistogram.build([1, 1, 2, 2, 3, 3, 4, 4], buckets=4)
        assert hist.selectivity("==", 2) == pytest.approx(1 / 4)
        assert hist.selectivity("==", 99) == 0.0
        assert hist.selectivity("!=", 2) == pytest.approx(3 / 4)

    def test_skewed_data_bounded_error(self):
        """Equi-depth's selling point: selectivity error bounded under skew."""
        rng = np.random.default_rng(0)
        values = (rng.zipf(1.5, size=5_000) % 1000).tolist()
        hist = EquiDepthHistogram.build(values, buckets=32)
        for threshold in (1, 5, 50, 500):
            true = sum(1 for v in values if v < threshold) / len(values)
            est = hist.selectivity("<", threshold)
            assert est == pytest.approx(true, abs=0.08)

    def test_unknown_op_rejected(self):
        hist = EquiDepthHistogram.build([1, 2, 3], buckets=2)
        with pytest.raises(EstimationError):
            hist.selectivity("~", 1)

    def test_join_selectivity_identical_uniform(self):
        """Self-join of a uniform attribute: true sel = 1/distinct."""
        values = [i % 50 for i in range(1000)]
        hist = EquiDepthHistogram.build(values, buckets=16)
        sel = hist.join_selectivity(hist)
        assert sel == pytest.approx(1 / 50, rel=0.5)

    def test_join_selectivity_disjoint_domains(self):
        a = EquiDepthHistogram.build(list(range(0, 100)), buckets=4)
        b = EquiDepthHistogram.build(list(range(500, 600)), buckets=4)
        assert a.join_selectivity(b) == 0.0

    def test_join_selectivity_empty(self):
        a = EquiDepthHistogram.build([], buckets=4)
        b = EquiDepthHistogram.build([1], buckets=4)
        assert a.join_selectivity(b) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=300),
        st.integers(0, 55),
    )
    def test_property_range_estimate_bounded(self, values, threshold):
        hist = EquiDepthHistogram.build(values, buckets=8)
        true = sum(1 for v in values if v < threshold) / len(values)
        est = hist.selectivity("<", threshold)
        # At most one bucket straddles the threshold, so the interpolation
        # error is bounded by the deepest bucket's mass (plus slack for the
        # mass sitting exactly at the threshold value).
        at_value = sum(1 for v in values if v == threshold) / len(values)
        bound = max(hist.depths) / hist.total + at_value + 1e-9
        assert abs(est - true) <= bound


class TestAnalyze:
    def test_histograms_for_numeric_attributes(self, int_schema):
        relation = make_relation(
            "r", int_schema, [(i, i % 10) for i in range(100)]
        )
        stats = analyze(relation, buckets=8)
        assert stats.tuple_count == 100
        assert stats.has("id") and stats.has("a")
        assert stats.distinct("a") == 10

    def test_string_attributes_skipped(self, wide_schema):
        relation = make_relation(
            "r", wide_schema, [(i, i, i, "x") for i in range(10)],
            block_size=1024,
        )
        stats = analyze(relation)
        assert not stats.has("pad")
        with pytest.raises(EstimationError):
            stats.histogram("pad")


@pytest.fixture
def hinted():
    catalog = Catalog()
    from repro.catalog.schema import Schema
    from repro.catalog.types import AttributeType

    schema = Schema.of(id=AttributeType.INT, a=AttributeType.INT)
    r1 = make_relation("r1", schema, [(i, i % 10) for i in range(1000)])
    r2 = make_relation("r2", schema, [(i, i % 20) for i in range(1000)])
    catalog.register("r1", r1)
    catalog.register("r2", r2)
    stats = {"r1": analyze(r1), "r2": analyze(r2)}
    return SelectivityHinter(stats, catalog), catalog


class TestSelectivityHinter:
    def test_relation_hint_is_one(self, hinted):
        hinter, _ = hinted
        assert hinter.hint(rel("r1")) == 1.0

    def test_select_hint_close_to_truth(self, hinted):
        hinter, _ = hinted
        # a < 5 on a = i%10 → 0.5
        hint = hinter.hint(select(rel("r1"), cmp("a", "<", 5)))
        assert hint == pytest.approx(0.5, abs=0.1)

    def test_conjunction_uses_independence(self, hinted):
        hinter, _ = hinted
        pred = cmp("a", "<", 5) & cmp("id", "<", 500)
        hint = hinter.hint(select(rel("r1"), pred))
        assert hint == pytest.approx(0.25, abs=0.1)

    def test_attr_to_attr_comparison_unhintable(self, hinted):
        hinter, _ = hinted
        assert hinter.hint(select(rel("r1"), cmp("a", "<", attr("id")))) is None

    def test_join_hint_close_to_truth(self, hinted):
        hinter, catalog = hinted
        expr = join(rel("r1"), rel("r2"), on=["a"])
        # True: r1.a uniform over 10, r2.a over 20; matches on 10 shared
        # values → 1000·(1000/20) ... sel = Σ c1c2/(N1N2) = 10·100·50/1e6.
        hint = hinter.hint(expr)
        assert hint is not None
        assert hint == pytest.approx(0.05, rel=0.6)

    def test_intersect_unhintable(self, hinted):
        hinter, _ = hinted
        assert hinter.hint(intersect(rel("r1"), rel("r2"))) is None

    def test_project_hint(self, hinted):
        hinter, _ = hinted
        hint = hinter.hint(project(rel("r1"), ["a"]))
        assert hint == pytest.approx(10 / 1000)

    def test_missing_statistics_detected(self, hinted):
        hinter, _ = hinted
        hinter.statistics.pop("r2")
        with pytest.raises(EstimationError, match="analyze"):
            hinter.require_statistics(join(rel("r1"), rel("r2"), on=["a"]))


class TestDatabaseSelectivitySources:
    @pytest.fixture
    def db(self):
        database = Database(
            profile=MachineProfile.sun3_60(noise_sigma=0.1).scaled(0.1),
            seed=13,
        )
        database.create_relation(
            "r1",
            [("id", "int"), ("a", "int")],
            rows=[(i, i % 10) for i in range(600)],
            block_size=16,
        )
        return database

    def test_prestored_requires_analyze(self, db):
        expr = select(rel("r1"), cmp("a", "<", 3))
        with pytest.raises(EstimationError, match="analyze"):
            db.estimate(expr, quota=1.0, selectivity_source="prestored")

    def test_invalid_source_rejected(self, db):
        with pytest.raises(ReproError):
            db.estimate(rel("r1"), quota=1.0, selectivity_source="psychic")

    def test_hybrid_runs_and_estimates(self, db):
        db.analyze()
        expr = select(rel("r1"), cmp("a", "<", 3))
        result = db.estimate(
            expr, quota=3.0, seed=3, selectivity_source="hybrid"
        )
        assert result.estimate is not None

    def test_prestored_pins_selectivities(self, db):
        db.analyze()
        expr = select(rel("r1"), cmp("a", "<", 3))
        from repro.costmodel.model import CostModel
        from repro.engine.plan import StagedPlan
        from repro.statistics.prestored import SelectivityHinter

        rng = np.random.default_rng(0)
        from repro.timekeeping.charger import CostCharger

        charger = CostCharger(MachineProfile.uniform(0.0), rng=rng)
        hinter = SelectivityHinter(db.statistics, db.catalog)
        plan = StagedPlan(
            expr, db.catalog, charger, CostModel(), rng,
            QueryOptions(selectivity_source="prestored"),
            hint_provider=hinter.hint,
        )
        tracker = plan.trackers()[0]
        assert tracker.pinned
        before = tracker.sel_prev
        plan.advance_stage(0.3)
        assert tracker.sel_prev == before  # pinned: never learns

    def test_pin_without_hints_rejected(self, db):
        from repro.costmodel.model import CostModel
        from repro.engine.plan import StagedPlan
        from repro.timekeeping.charger import CostCharger

        rng = np.random.default_rng(0)
        charger = CostCharger(MachineProfile.uniform(0.0), rng=rng)
        with pytest.raises(EstimationError):
            StagedPlan(
                rel("r1"), db.catalog, charger, CostModel(), rng,
                QueryOptions(selectivity_source="prestored"),
            )
