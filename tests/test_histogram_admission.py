"""Histogram hints × synopsis posteriors in admission pricing.

Three selectivity sources can inform the cheapest-useful-stage price the
admission policies rule on (:func:`repro.server.admission.
minimum_stage_cost`):

* the Figure 3.3 defaults (selectivity 1.0 — the conservative maximum);
* prestored equi-depth histogram hints (:mod:`repro.statistics`), which
  set a tracker's *initial* value, pinned under ``selectivity_source=
  "prestored"``;
* synopsis posteriors (:mod:`repro.synopses`), which warm-start a tracker
  with pseudo-counts.

This suite pins the precedence: pinned prestored trackers ignore the
catalog entirely; hybrid trackers price at the posterior mean once
warm-started (pseudo-counts dominate the hinted initial); and a warm
catalog makes the priced stage cheaper, which is the whole point of
admission seeing it.
"""

import pytest

from repro.core.database import Database
from repro.core.options import QueryOptions
from repro import caches
from repro.relational import cmp, rel
from repro.server import minimum_stage_cost
from repro.statistics.histogram import EquiDepthHistogram


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    caches.get("plans").clear()
    yield
    caches.get("plans").clear()


def make_db(seed: int = 5, rows: int = 20_000) -> Database:
    db = Database(seed=seed)
    db.create_relation(
        "r1",
        [("id", "int"), ("a", "int")],
        rows=[(i, i % 100) for i in range(rows)],
    )
    return db


def selective_query():
    # True selectivity 0.02 — far below the Figure 3.3 default of 1.0.
    return rel("r1").where(cmp("a", "<", 2))


def probe(db, expr, **options):
    """A pricing plan, as the admission path lowers it."""
    return db.plan(expr, QueryOptions(**options))


# ---------------------------------------------------------------------------
# Histogram ground truth (the substrate the hints are computed from)
# ---------------------------------------------------------------------------
class TestHistogramSelectivity:
    def test_range_selectivity_matches_exact_fraction(self):
        values = [i % 100 for i in range(10_000)]
        hist = EquiDepthHistogram.build(values, buckets=25)
        for threshold in (2, 10, 50, 99):
            exact = sum(1 for v in values if v < threshold) / len(values)
            assert hist.selectivity("<", threshold) == pytest.approx(
                exact, abs=0.05
            )

    def test_skewed_data_range_error_stays_bounded(self):
        # Equi-depth buckets bound range-predicate error regardless of skew:
        # 90% of the mass sits on a single value.
        values = [0] * 9_000 + list(range(1, 1_001))
        hist = EquiDepthHistogram.build(values, buckets=20)
        exact = 9_000 / 10_000
        assert hist.selectivity("<", 1) == pytest.approx(exact, abs=0.1)

    def test_analyze_installs_histograms(self):
        db = make_db()
        db.analyze()
        stats = db.statistics["r1"]
        assert stats.histogram("a").selectivity("<", 2) == pytest.approx(
            0.02, abs=0.01
        )


# ---------------------------------------------------------------------------
# Admission pricing precedence
# ---------------------------------------------------------------------------
class TestPricingPrecedence:
    def test_default_plan_prices_at_selectivity_one(self):
        db = make_db()
        plan = probe(db, selective_query())
        (tracker,) = plan.trackers()
        assert tracker.initial == 1.0 and not tracker.has_prior

    def test_prestored_hint_sets_initial_and_pins(self):
        db = make_db()
        db.analyze()
        plan = probe(db, selective_query(), selectivity_source="prestored")
        (tracker,) = plan.trackers()
        assert tracker.pinned
        assert tracker.initial == pytest.approx(0.02, abs=0.01)

    def test_pinned_prestored_ignores_catalog(self):
        db = make_db()
        db.analyze()
        warm = QueryOptions(synopses=True)
        db.estimate(selective_query(), quota=5.0, seed=3, options=warm)
        assert db.synopses.info().posteriors == 1
        plan = probe(
            db, selective_query(), selectivity_source="prestored", synopses=True
        )
        (tracker,) = plan.trackers()
        assert tracker.pinned and not tracker.has_prior
        assert tracker.sel_prev == tracker.initial

    def test_hybrid_posterior_pseudo_counts_dominate_hint(self):
        db = make_db()
        db.analyze()
        warm = QueryOptions(synopses=True)
        db.estimate(selective_query(), quota=5.0, seed=3, options=warm)
        plan = probe(
            db, selective_query(), selectivity_source="hybrid", synopses=True
        )
        (tracker,) = plan.trackers()
        # The hint survives as the configured initial; the posterior's
        # pseudo-counts carry the pricing.
        assert not tracker.pinned
        assert tracker.initial == pytest.approx(0.02, abs=0.01)
        assert tracker.has_prior
        posterior_mean = tracker.prior_tuples / tracker.prior_points
        assert tracker.effective_sel_prev() == pytest.approx(posterior_mean)

    def test_warm_catalog_prices_cheaper_than_cold(self):
        db = make_db()
        cold = minimum_stage_cost(probe(db, selective_query(), synopses=True))
        db.estimate(
            selective_query(),
            quota=5.0,
            seed=3,
            options=QueryOptions(synopses=True),
        )
        warm = minimum_stage_cost(probe(db, selective_query(), synopses=True))
        assert warm < cold

    def test_disabled_synopses_price_unchanged_by_catalog(self):
        db = make_db()
        baseline = minimum_stage_cost(probe(db, selective_query()))
        db.estimate(
            selective_query(),
            quota=5.0,
            seed=3,
            options=QueryOptions(synopses=True),
        )
        caches.get("plans").clear()
        assert minimum_stage_cost(probe(db, selective_query())) == baseline
