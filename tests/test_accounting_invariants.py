"""Cross-cutting accounting invariants (docs/architecture.md §Invariants).

These tie the layers together: on the simulated clock, charged work *is*
elapsed time, stage durations partition the run, and the paper's derived
columns are pure functions of the stage reports.
"""

import numpy as np
import pytest

from repro.catalog.catalog import Catalog
from repro.core.options import QueryOptions
from repro.costmodel.model import CostModel
from repro.engine.plan import StagedPlan
from repro.relational.expression import join, rel, select
from repro.relational.predicate import cmp
from repro.timecontrol.executor import TimeConstrainedExecutor
from repro.timecontrol.strategies import OneAtATimeInterval
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation

@pytest.fixture
def catalog(int_schema):
    catalog = Catalog()
    catalog.register(
        "r1",
        make_relation(
            "r1", int_schema, [(i, i % 10) for i in range(300)], block_size=16
        ),
    )
    catalog.register(
        "r2",
        make_relation(
            "r2", int_schema, [(i, i % 10) for i in range(150, 450)], block_size=16
        ),
    )
    return catalog


def run_one(catalog, expr, quota, seed=0):
    rng = np.random.default_rng(seed)
    charger = CostCharger(MachineProfile.sun3_60(noise_sigma=0.15).scaled(0.1), rng=rng)
    plan = StagedPlan(expr, catalog, charger, CostModel(), rng)
    executor = TimeConstrainedExecutor(plan, OneAtATimeInterval(d_beta=12.0))
    report = executor.run(quota)
    return report, charger


class TestChargedEqualsElapsed:
    def test_total_charges_equal_clock_advance(self, catalog):
        expr = join(rel("r1"), rel("r2"), on=["a"])
        report, charger = run_one(catalog, expr, quota=3.0)
        assert charger.total_charged() == pytest.approx(
            charger.clock.now(), rel=1e-9
        )

    def test_stage_durations_partition_the_run(self, catalog):
        expr = select(rel("r1"), cmp("a", "<", 4))
        report, charger = run_one(catalog, expr, quota=2.0)
        # The clock only moves inside stages: their durations sum to the
        # total elapsed time (strategy decisions are folded into the
        # charged stage overhead).
        assert sum(s.duration for s in report.stages) == pytest.approx(
            charger.clock.now() - report.started_at, rel=1e-9
        )

    def test_no_work_after_termination(self, catalog):
        expr = select(rel("r1"), cmp("a", "<", 4))
        report, charger = run_one(catalog, expr, quota=2.0)
        end = charger.clock.now()
        _ = report.utilization, report.overspend_seconds  # derived only
        assert charger.clock.now() == end


class TestDerivedColumnsAreFunctionsOfStages:
    def test_overspend_matches_stage_arithmetic(self, catalog):
        expr = select(rel("r1"), cmp("a", "<", 4))
        for seed in range(12):
            report, _ = run_one(catalog, expr, quota=1.5, seed=seed)
            total = sum(s.duration for s in report.stages)
            expected = max(total - report.quota, 0.0)
            assert report.overspend_seconds == pytest.approx(expected)

    def test_blocks_columns_consistent_with_scans(self, catalog):
        expr = join(rel("r1"), rel("r2"), on=["a"])
        report, charger = run_one(catalog, expr, quota=3.0)
        assert report.total_blocks == sum(
            s.blocks_read for s in report.stages
        )
        assert report.blocks_within_quota <= report.total_blocks

    def test_utilization_bounds(self, catalog):
        expr = select(rel("r1"), cmp("a", "<", 4))
        for seed in range(8):
            report, _ = run_one(catalog, expr, quota=1.5, seed=seed)
            assert 0.0 <= report.utilization <= 1.0


class TestSpoolAccounting:
    def test_peak_temp_usage_reported(self, catalog):
        expr = join(rel("r1"), rel("r2"), on=["a"])
        report, _ = run_one(catalog, expr, quota=3.0)
        assert report.peak_temp_tuples > 0

    def test_partial_fulfillment_releases_runs(self, catalog):
        """Full fulfillment keeps every sampled tuple spooled for the
        cross-stage merges; partial fulfillment never reuses old runs, so
        each stage's runs are released and the peak is the largest stage."""
        from repro.relational.expression import intersect

        expr = intersect(rel("r1"), rel("r2"))

        def spooled(full: bool):
            rng = np.random.default_rng(4)
            charger = CostCharger(MachineProfile.uniform(0.0), rng=rng)
            plan = StagedPlan(
                expr, catalog, charger, CostModel(), rng,
                QueryOptions(full_fulfillment=full),
            )
            stage_inputs = []
            for fraction in (0.2, 0.1, 0.3):
                before = sum(scan.cum_tuples for scan in plan.scans)
                plan.advance_stage(fraction)
                after = sum(scan.cum_tuples for scan in plan.scans)
                stage_inputs.append(after - before)
            return plan, stage_inputs

        full, _ = spooled(True)
        assert full.spool.live_tuples == sum(s.cum_tuples for s in full.scans)
        assert full.spool.peak_tuples == full.spool.live_tuples
        partial, stage_inputs = spooled(False)
        assert partial.spool.live_tuples == 0
        assert partial.spool.peak_tuples == max(stage_inputs)

    def test_temp_writes_match_spooled_tuples(self, catalog):
        from repro.timekeeping.profile import CostKind

        expr = join(rel("r1"), rel("r2"), on=["a"])
        rng = np.random.default_rng(5)
        charger = CostCharger(MachineProfile.uniform(0.001), rng=rng)
        plan = StagedPlan(expr, catalog, charger, CostModel(), rng)
        plan.advance_stage(0.2)
        # Every tuple entering the join was spooled exactly once.
        inputs = sum(scan.cum_tuples for scan in plan.scans)
        assert charger.counts[CostKind.TEMP_WRITE] == inputs


class TestBlockReadAccounting:
    def test_every_drawn_block_charged_exactly_once(self, catalog):
        from repro.timekeeping.profile import CostKind

        expr = join(rel("r1"), rel("r2"), on=["a"])
        rng = np.random.default_rng(3)
        charger = CostCharger(MachineProfile.uniform(0.001), rng=rng)
        plan = StagedPlan(expr, catalog, charger, CostModel(), rng)
        plan.advance_stage(0.2)
        plan.advance_stage(0.3)
        drawn = sum(scan.blocks_drawn for scan in plan.scans)
        assert charger.counts[CostKind.BLOCK_READ] == drawn
