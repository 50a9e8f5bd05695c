"""Tests for the time-constrained executor (Figure 3.1 semantics)."""

import numpy as np
import pytest

from repro.catalog.catalog import Catalog
from repro.core.options import QueryOptions
from repro.costmodel.model import CostModel
from repro.engine.plan import StagedPlan
from repro.errors import TimeControlError
from repro.relational.evaluator import count_exact
from repro.relational.expression import join, rel, select
from repro.relational.predicate import cmp
from repro.timecontrol import executor as executor_module
from repro.timecontrol.executor import TimeConstrainedExecutor
from repro.timecontrol.stopping import (
    ErrorConstrained,
    HardDeadline,
    StoppingCriterion,
)
from repro.timecontrol.strategies import (
    FixedFractionHeuristic,
    OneAtATimeInterval,
)
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation


def calibrated_cost_model(rate: float) -> CostModel:
    """A cost model whose priors match a ``MachineProfile.uniform(rate)``
    machine (weakly held), so predictions are unbiased from stage 1 and the
    d_β = 0 configuration becomes the paper's ~50% coin flip."""
    from repro.costmodel.linear import StepSpec
    from repro.costmodel.steps import default_step_specs

    specs = {}
    for name, spec in default_step_specs().items():
        # Every feature of every step charges `rate` per unit on a uniform
        # machine; constants likewise.
        specs[name] = StepSpec(
            name,
            prior=tuple(rate for _ in spec.prior),
            scales=spec.scales,
            weight=0.05,
        )
    return CostModel(specs=specs)


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


def build_executor(
    catalog,
    expr,
    seed=0,
    noise=0.15,
    strategy=None,
    profile=None,
    cost_model=None,
    **options,
):
    rng = np.random.default_rng(seed)
    profile = profile or MachineProfile.uniform(0.01, noise_sigma=noise)
    charger = CostCharger(profile, rng=rng)
    options = QueryOptions(**options)
    plan = StagedPlan(
        expr, catalog, charger, cost_model or CostModel(), rng, options
    )
    return TimeConstrainedExecutor(
        plan, strategy or OneAtATimeInterval(d_beta=12.0), options
    )


class TestBasicRun:
    def test_returns_estimate_within_quota(self, catalog):
        expr = select(rel("r1"), cmp("a", "<", 3))
        executor = build_executor(catalog, expr)
        report = executor.run(quota=2.0)
        assert report.estimate is not None
        assert report.stages_completed_in_time >= 1
        assert 0.0 <= report.utilization <= 1.0

    def test_quota_must_be_positive(self, catalog):
        executor = build_executor(catalog, rel("r1"))
        with pytest.raises(TimeControlError):
            executor.run(quota=0.0)

    def test_generous_quota_exhausts_and_is_exact(self, catalog):
        expr = select(rel("r1"), cmp("a", "<", 3))
        executor = build_executor(catalog, expr, noise=0.0)
        report = executor.run(quota=1e9)
        assert report.termination == "exhausted"
        assert report.estimate is not None and report.estimate.exact
        assert report.estimate.value == count_exact(expr, catalog)

    def test_stage_reports_are_consistent(self, catalog):
        executor = build_executor(catalog, select(rel("r1"), cmp("a", "<", 3)))
        report = executor.run(quota=2.0)
        for i, stage in enumerate(report.stages, start=1):
            assert stage.index == i
            assert stage.duration >= 0
            assert stage.fraction > 0
        assert report.blocks_within_quota <= report.total_blocks

    def test_seeded_runs_reproducible(self, catalog):
        expr = select(rel("r1"), cmp("a", "<", 3))
        a = build_executor(catalog, expr, seed=9).run(quota=2.0)
        b = build_executor(catalog, expr, seed=9).run(quota=2.0)
        assert a.estimate is not None and b.estimate is not None
        assert a.estimate.value == b.estimate.value
        assert len(a.stages) == len(b.stages)


class TestOverspendAccounting:
    def test_overspending_run_flagged(self, catalog):
        """Across many seeds at d_beta=0 some run must overspend, and its
        accounting must be coherent."""
        expr = select(rel("r1"), cmp("a", "<", 3))
        saw_overspend = False
        for seed in range(30):
            executor = build_executor(
                catalog,
                expr,
                seed=seed,
                noise=0.3,
                strategy=OneAtATimeInterval(d_beta=0.0),
                cost_model=calibrated_cost_model(0.01),
            )
            report = executor.run(quota=1.0)
            if report.overspent:
                saw_overspend = True
                assert report.overspend_seconds > 0
                assert report.termination in ("deadline",)
                last = report.stages[-1]
                assert not last.completed_in_time
                # The overspending stage is excluded from the "within
                # quota" aggregates.
                assert report.blocks_within_quota < report.total_blocks
        assert saw_overspend

    def test_utilization_excludes_overspent_stage(self, catalog):
        expr = select(rel("r1"), cmp("a", "<", 3))
        for seed in range(30):
            report = build_executor(
                catalog, expr, seed=seed, noise=0.3,
                strategy=OneAtATimeInterval(d_beta=0.0),
                cost_model=calibrated_cost_model(0.01),
            ).run(quota=1.0)
            if report.overspent:
                useful = sum(
                    s.duration for s in report.stages if s.completed_in_time
                )
                assert report.utilization == pytest.approx(
                    min(useful / 1.0, 1.0)
                )
                return
        pytest.skip("no overspending run found")


class TestHardInterrupt:
    def test_live_hard_mode_aborts_mid_stage(self, catalog):
        """With measure_overspend=False and a hard criterion, an
        overspending stage is killed by the timer interrupt and the previous
        estimate is returned."""
        expr = select(rel("r1"), cmp("a", "<", 3))
        saw_interrupt = False
        for seed in range(40):
            executor = build_executor(
                catalog,
                expr,
                seed=seed,
                noise=0.3,
                strategy=OneAtATimeInterval(d_beta=0.0),
                stopping=HardDeadline(),
                measure_overspend=False,
                cost_model=calibrated_cost_model(0.01),
            )
            report = executor.run(quota=1.0)
            if report.termination == "interrupted":
                saw_interrupt = True
                assert report.stages[-1].aborted_mid_stage
                # Clock may only be marginally past the deadline (the
                # in-flight charge completes, nothing more runs).
                clock = executor.plan.charger.clock.now()
                assert clock >= report.started_at + 1.0
        assert saw_interrupt

    def test_interrupted_first_stage_has_no_estimate(self, catalog):
        expr = select(rel("r1"), cmp("a", "<", 3))
        executor = build_executor(
            catalog,
            expr,
            noise=0.0,
            profile=MachineProfile.uniform(10.0, noise_sigma=0.0),
            stopping=HardDeadline(),
            measure_overspend=False,
        )
        report = executor.run(quota=15.0)  # stage 1 cannot finish
        if report.termination == "interrupted":
            assert report.estimate is None


class TestStoppingIntegration:
    def test_error_constrained_stops_early(self, catalog):
        expr = select(rel("r1"), cmp("a", "<", 3))
        executor = build_executor(
            catalog,
            expr,
            noise=0.0,
            stopping=ErrorConstrained(target_relative_halfwidth=0.8),
        )
        report = executor.run(quota=1e6)
        assert report.termination in ("stopping_criterion", "exhausted")
        if report.termination == "stopping_criterion":
            assert report.estimate.relative_error_bound(0.95) <= 0.8

    def test_max_stages_cap(self, catalog, monkeypatch):
        monkeypatch.setattr(executor_module, "MAX_STAGES", 2)
        executor = build_executor(catalog, rel("r1"), noise=0.0)
        report = executor.run(quota=2.0)  # affords more than two stages
        assert len(report.stages) <= 2
        assert report.termination == "max_stages"

    def test_estimate_history_is_the_reports_stage_estimates(self, catalog):
        class Recording(StoppingCriterion):
            def __init__(self):
                self.histories = []

            def should_stop(self, state):
                self.histories.append(list(state.estimate_history))
                return False

        stopping = Recording()
        executor = build_executor(
            catalog,
            join(rel("r1"), rel("r2"), on=["a"]),
            strategy=FixedFractionHeuristic(gamma=0.3, probe_fraction=0.05),
            stopping=stopping,
        )
        report = executor.run(quota=3.0)
        assert len(stopping.histories) >= 2
        for stage, history in enumerate(stopping.histories, start=1):
            assert history == [s.estimate for s in report.stages[:stage]]


class TestHeuristicStrategy:
    def test_heuristic_runs_to_completion(self, catalog):
        expr = join(rel("r1"), rel("r2"), on=["a"])
        executor = build_executor(
            catalog, expr, strategy=FixedFractionHeuristic(gamma=0.5)
        )
        report = executor.run(quota=3.0)
        assert report.estimate is not None
        assert report.stages_completed_in_time >= 1


class TestMultiTermQueries:
    def test_union_estimate_under_quota(self, catalog):
        from repro.relational.expression import union

        expr = union(rel("r1"), rel("r2"))
        executor = build_executor(catalog, expr, noise=0.0)
        report = executor.run(quota=1e9)
        assert report.termination == "exhausted"
        assert report.estimate.value == pytest.approx(
            count_exact(expr, catalog)
        )
