"""Identity tests between predicted and realized cost-formula features.

Equation (4.4) is a counting argument: at stage ``s`` the full-fulfillment
merges read ``N_{1,s−1} + N_{2,s−1} + s·(n_{1s}+n_{2s})`` tuples across
``2s−1`` pairwise merges. These tests observe the *realized* features fed to
the cost model during execution and check them against the closed formulas
the predictor uses — i.e. the prediction machinery and the execution
machinery agree about the physics, so only selectivities and noise separate
prediction from actuality.
"""

import math

import numpy as np
import pytest

from repro.catalog.catalog import Catalog
from repro.costmodel import steps as step_names
from repro.core.options import QueryOptions
from repro.costmodel.model import CostModel
from repro.engine.plan import StagedPlan
from repro.errors import QuotaExpired, TimeControlError
from repro.relational.expression import intersect, join, rel, select
from repro.relational.predicate import cmp
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation

class SpyCostModel(CostModel):
    """Records every observed (step, features, seconds) triple."""

    def __init__(self) -> None:
        super().__init__()
        self.observed: list[tuple[str, list[float], float]] = []

    def observe(self, step, features, seconds):
        self.observed.append((step, [float(x) for x in features], seconds))
        super().observe(step, features, seconds)

    def of(self, step: str) -> list[list[float]]:
        return [f for s, f, _ in self.observed if s == step]


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


def run_stages(catalog, expr, fractions, seed=0, full=True):
    rng = np.random.default_rng(seed)
    charger = CostCharger(MachineProfile.uniform(0.0), rng=rng)
    spy = SpyCostModel()
    plan = StagedPlan(
        expr, catalog, charger, spy, rng,
        QueryOptions(full_fulfillment=full),
    )
    for fraction in fractions:
        plan.advance_stage(fraction)
    return plan, spy


class TestMergeReadFormula:
    def test_equation_4_4_reads(self, catalog):
        """Realized merge reads equal N_{1,s−1}+N_{2,s−1}+s(n1s+n2s)."""
        expr = join(rel("r1"), rel("r2"), on=["a"])
        _, spy = run_stages(catalog, expr, [0.1, 0.15, 0.2])
        merges = spy.of(step_names.JOIN_MERGE)
        assert len(merges) == 3
        for s, (_reads, _outputs, merge_count) in enumerate(merges, start=1):
            assert merge_count == 2 * s - 1

        # Both children are scans, so n_js is the stage's new tuples of
        # relation j. Re-run with the same seed to capture them per stage.
        rng = np.random.default_rng(0)
        charger = CostCharger(MachineProfile.uniform(0.0), rng=rng)
        spy2 = SpyCostModel()
        plan2 = StagedPlan(expr, catalog, charger, spy2, rng)
        cum1 = cum2 = 0
        for s, fraction in enumerate([0.1, 0.15, 0.2], start=1):
            before1 = plan2.scans[0].cum_tuples
            before2 = plan2.scans[1].cum_tuples
            assert plan2.advance_stage(fraction).stage == s
            n1s = plan2.scans[0].cum_tuples - before1
            n2s = plan2.scans[1].cum_tuples - before2
            reads = spy2.of(step_names.JOIN_MERGE)[s - 1][0]
            expected = cum1 + cum2 + s * (n1s + n2s)
            assert reads == expected, f"stage {s}"
            cum1 += n1s
            cum2 += n2s

    def test_partial_fulfillment_reads_new_only(self, catalog):
        expr = intersect(rel("r1"), rel("r2"))
        plan, spy = run_stages(
            catalog, expr, [0.1, 0.15], full=False
        )
        merges = spy.of(step_names.INTERSECT_MERGE)
        for s, features in enumerate(merges, start=1):
            _reads, _out, merge_count = features
            assert merge_count == 1  # new×new only


class TestSortFormula:
    def test_nlogn_features_match_input_sizes(self, catalog):
        expr = join(rel("r1"), rel("r2"), on=["a"])
        rng = np.random.default_rng(1)
        charger = CostCharger(MachineProfile.uniform(0.0), rng=rng)
        spy = SpyCostModel()
        plan = StagedPlan(expr, catalog, charger, spy, rng)
        before1 = plan.scans[0].cum_tuples
        before2 = plan.scans[1].cum_tuples
        plan.advance_stage(0.2)
        n1 = plan.scans[0].cum_tuples - before1
        n2 = plan.scans[1].cum_tuples - before2
        nlogn, linear, _one = spy.of(step_names.JOIN_SORT)[0]
        expected = sum(n * math.log2(n) for n in (n1, n2) if n > 1)
        assert nlogn == pytest.approx(expected)
        assert linear == n1 + n2


class TestSelectFeatureIdentity:
    def test_select_features_match_io(self, catalog):
        expr = select(rel("r1"), cmp("a", "<", 3))
        plan, spy = run_stages(catalog, expr, [0.25], seed=2)
        n, pages, one = spy.of(step_names.SELECT_OP)[0]
        scanned = plan.scans[0].cum_tuples
        out = plan.terms[0].root.cum_out_tuples
        bf = plan.scans[0].schema.blocking_factor(plan.block_size)
        assert n == scanned
        assert pages == -(-out // bf)
        assert one == 1.0


class TestFailureInjection:
    def test_interrupt_mid_stage_never_corrupts_counts(self, catalog):
        """A timer interrupt mid-stage either lets the stage be retried
        cleanly (when it died during block reads — the burned blocks are
        simply discarded sample) or fails loudly on reuse (when it died
        between node advances). It must never silently mis-combine stage
        bookkeeping: after any successful stage the evaluated points equal
        the cross product of the sampled tuples."""
        expr = join(rel("r1"), rel("r2"), on=["a"])
        rng = np.random.default_rng(3)
        charger = CostCharger(MachineProfile.uniform(0.01), rng=rng)
        plan = StagedPlan(expr, catalog, charger, CostModel(), rng)
        plan.advance_stage(0.1)  # healthy first stage
        charger.arm(charger.clock.now() + 0.05, hard=True)
        with pytest.raises(QuotaExpired):
            plan.advance_stage(0.3)
        charger.disarm()
        try:
            plan.advance_stage(0.1)
        except TimeControlError:
            return  # loud refusal is an acceptable outcome
        # Retry succeeded: the invariant must hold exactly.
        expected_points = 1
        for scan in plan.scans:
            expected_points *= scan.cum_tuples
        assert plan.terms[0].root.points_so_far == expected_points
        assert plan.estimate().variance >= 0.0

    def test_interrupted_executor_reports_cleanly(self, catalog):
        from repro.timecontrol.executor import TimeConstrainedExecutor
        from repro.timecontrol.stopping import HardDeadline
        from repro.timecontrol.strategies import OneAtATimeInterval

        expr = join(rel("r1"), rel("r2"), on=["a"])
        rng = np.random.default_rng(4)
        # A machine so slow stage 1 cannot finish inside the quota.
        charger = CostCharger(MachineProfile.uniform(5.0), rng=rng)
        plan = StagedPlan(expr, catalog, charger, CostModel(), rng)
        executor = TimeConstrainedExecutor(
            plan,
            OneAtATimeInterval(d_beta=12.0),
            QueryOptions(stopping=HardDeadline(), measure_overspend=False),
        )
        report = executor.run(quota=20.0)
        assert report.termination in ("interrupted", "no_feasible_stage")
        if report.termination == "interrupted":
            assert report.estimate is None
            assert report.stages[-1].aborted_mid_stage
