"""Tests for the time-control strategies (Section 3.3)."""

import numpy as np
import pytest

from repro.catalog.catalog import Catalog
from repro.costmodel.model import CostModel
from repro.engine.plan import StagedPlan
from repro.errors import TimeControlError
from repro.relational.expression import join, rel, select
from repro.relational.predicate import cmp
from repro.timecontrol.executor import StageReport
from repro.timecontrol.strategies import (
    FixedFractionHeuristic,
    OneAtATimeInterval,
    SingleInterval,
    seconds_per_block,
)
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation


@pytest.fixture
def catalog(int_schema):
    catalog = Catalog()
    catalog.register(
        "r1",
        make_relation(
            "r1", int_schema, [(i, i % 10) for i in range(400)], block_size=16
        ),
    )
    catalog.register(
        "r2",
        make_relation(
            "r2", int_schema, [(i, i % 10) for i in range(200, 600)], block_size=16
        ),
    )
    return catalog


def fresh_plan(catalog, expr, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    charger = CostCharger(MachineProfile.uniform(0.01, noise_sigma=noise), rng=rng)
    return StagedPlan(expr, catalog, charger, CostModel(), rng)


def reports(*stages):
    """A run's completed stages, one per ``(seconds, blocks)`` pair — what
    ``choose_fraction`` is given (the statistical strategies read only how
    many there are)."""
    return [
        StageReport(
            index=i,
            fraction=0.0,
            started_at=0.0,
            duration=seconds,
            blocks_read=blocks,
            new_points=0,
            new_outputs=0,
            completed_in_time=True,
            aborted_mid_stage=False,
            estimate=None,
        )
        for i, (seconds, blocks) in enumerate(stages, start=1)
    ]


class TestOneAtATimeInterval:
    def test_invalid_d_beta_rejected(self):
        with pytest.raises(TimeControlError):
            OneAtATimeInterval(d_beta=-1.0)

    @pytest.mark.parametrize("epsilon_ratio", [0.0, -1.0])
    def test_invalid_epsilon_ratio_rejected_at_construction(self, epsilon_ratio):
        # No longer an option: Figure 3.4's ε is the constant EPSILON_RATIO.
        with pytest.raises(TypeError, match="epsilon_ratio"):
            OneAtATimeInterval(epsilon_ratio=epsilon_ratio)

    def test_infeasible_budget_returns_none(self, catalog):
        plan = fresh_plan(catalog, rel("r1"))
        strategy = OneAtATimeInterval(d_beta=12.0)
        assert strategy.choose_fraction(plan, 1e-9, []) is None

    def test_generous_budget_takes_everything(self, catalog):
        plan = fresh_plan(catalog, rel("r1"))
        strategy = OneAtATimeInterval(d_beta=12.0)
        f = strategy.choose_fraction(plan, 1e9, [])
        assert f == pytest.approx(plan.max_remaining_fraction())

    def test_larger_d_beta_never_larger_fraction(self, catalog):
        expr = select(rel("r1"), cmp("a", "<", 3))
        # Warm two identical plans with the same first stage, then compare
        # the second stage fractions chosen at different d_beta.
        fractions = {}
        for d_beta in (0.0, 48.0):
            plan = fresh_plan(catalog, expr, seed=1)
            plan.advance_stage(0.05)
            f = OneAtATimeInterval(d_beta=d_beta).choose_fraction(
                plan, 1.2, reports((1.0, 10))
            )
            assert f is not None
            fractions[d_beta] = f
        assert fractions[48.0] <= fractions[0.0]

    def test_sel_provider_uses_sel_plus(self):
        strategy = OneAtATimeInterval(d_beta=24.0)
        provider = strategy.sel_provider()
        from repro.estimation.selectivity import SelectivityTracker

        tracker = SelectivityTracker("x", initial=1.0)
        tracker.record_stage(10, 100)
        sel = provider.per_tracker(tracker, 100_000)
        assert sel(100) > 0.1  # margin added

    def test_describe(self):
        assert "24" in OneAtATimeInterval(d_beta=24.0).describe()


class TestSingleInterval:
    def test_invalid_d_alpha_rejected(self):
        with pytest.raises(TimeControlError):
            SingleInterval(d_alpha=-0.5)

    @pytest.mark.parametrize("epsilon_ratio", [0.0, -1.0])
    def test_invalid_epsilon_ratio_rejected_at_construction(self, epsilon_ratio):
        # No longer an option: Figure 3.4's ε is the constant EPSILON_RATIO.
        with pytest.raises(TypeError, match="epsilon_ratio"):
            SingleInterval(epsilon_ratio=epsilon_ratio)

    def test_chooses_feasible_fraction(self, catalog):
        expr = join(rel("r1"), rel("r2"), on=["a"])
        plan = fresh_plan(catalog, expr, seed=2)
        plan.advance_stage(0.05)
        f = SingleInterval(d_alpha=2.0).choose_fraction(
            plan, 2.0, reports((1.0, 10))
        )
        assert f is not None and 0 < f <= 1

    def test_reservation_shrinks_fraction(self, catalog):
        """A positive d_alpha reserves time, so the chosen fraction can
        only shrink relative to d_alpha = 0."""
        expr = select(rel("r1"), cmp("a", "<", 3))
        fractions = {}
        for d_alpha in (0.0, 4.0):
            plan = fresh_plan(catalog, expr, seed=3)
            plan.advance_stage(0.05)
            plan.advance_stage(0.05)  # two stages → covariance data exists
            f = SingleInterval(d_alpha=d_alpha).choose_fraction(
                plan, 1.5, reports((1.0, 10), (1.0, 10))
            )
            assert f is not None
            fractions[d_alpha] = f
        assert fractions[4.0] <= fractions[0.0]

    def test_describe(self):
        assert "2" in SingleInterval(d_alpha=2.0).describe()


class TestFixedFractionHeuristic:
    def test_invalid_gamma_rejected(self):
        with pytest.raises(TimeControlError):
            FixedFractionHeuristic(gamma=0.0)
        with pytest.raises(TimeControlError):
            FixedFractionHeuristic(gamma=1.5)

    def test_first_stage_is_probe(self, catalog):
        plan = fresh_plan(catalog, rel("r1"))
        strategy = FixedFractionHeuristic(gamma=0.5, probe_fraction=0.02)
        f = strategy.choose_fraction(plan, 10.0, [])
        assert f == pytest.approx(0.02)

    def test_later_stages_sized_from_measured_rate(self, catalog):
        plan = fresh_plan(catalog, rel("r1"))
        strategy = FixedFractionHeuristic(gamma=0.5)
        stages = reports((1.0, 10))  # 0.1 s/block
        # remaining 4s → target 2s → 20 blocks of 200 total → f = 0.1
        f = strategy.choose_fraction(plan, 4.0, stages)
        assert f == pytest.approx(0.1, rel=0.01)

    def test_exhausted_plan_returns_none(self, catalog):
        plan = fresh_plan(catalog, rel("r1"))
        plan.advance_stage(1.0)
        strategy = FixedFractionHeuristic()
        assert strategy.choose_fraction(plan, 10.0, reports((1.0, 10))) is None

    def test_empty_stage_is_not_measured(self):
        assert seconds_per_block(reports((0.0, 0))) is None
        assert seconds_per_block(reports((0.0, 0), (1.0, 10))) == 0.1

    def test_rate_is_smoothed_towards_recent_stages(self):
        # 0.1 s/block, then 0.3 s/block: 0.5 · 0.1 + 0.5 · 0.3
        assert seconds_per_block(reports((1.0, 10), (3.0, 10))) == pytest.approx(0.2)
