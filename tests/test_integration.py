"""Integration tests: the paper's end-to-end claims on scaled-down workloads.

These run the whole stack — workload generation, staged sampling, run-time
selectivity estimation, adaptive cost formulas, time control — and check the
*statistical* behaviours the paper reports, with run counts small enough for
CI (``tests/statistical/test_paper_claims.py`` checks the full-size tables).
"""

import numpy as np
import pytest

from repro.timecontrol.stopping import ErrorConstrained
from repro.timecontrol.strategies import (
    FixedFractionHeuristic,
    OneAtATimeInterval,
    SingleInterval,
)
from repro.workloads.paper import (
    make_intersection_setup,
    make_join_setup,
    make_selection_setup,
)


def batch(setup, strategy, runs=25, quota=None, **kwargs):
    kwargs.setdefault("initial_selectivities", setup.initial_selectivities)
    results = []
    for i in range(runs):
        results.append(
            setup.database.estimate(
                setup.query,
                quota=quota or setup.quota,
                strategy=strategy,
                seed=5000 + i,
                **kwargs,
            )
        )
    return results


@pytest.fixture(scope="module")
def selection_setup():
    return make_selection_setup(output_tuples=1_000, seed=3)


class TestRiskControl:
    def test_risk_decreases_with_d_beta(self, selection_setup):
        """The headline claim of Figure 5.1: larger d_β, lower risk."""
        risk = {}
        for d_beta in (0.0, 48.0):
            results = batch(selection_setup, OneAtATimeInterval(d_beta=d_beta))
            risk[d_beta] = sum(r.overspent for r in results) / len(results)
        assert risk[48.0] < risk[0.0]
        assert risk[0.0] > 0.2  # d_β = 0 gambles roughly even odds

    def test_stages_increase_with_d_beta(self, selection_setup):
        stages = {}
        for d_beta in (0.0, 48.0):
            results = batch(selection_setup, OneAtATimeInterval(d_beta=d_beta))
            stages[d_beta] = sum(r.stages for r in results) / len(results)
        assert stages[48.0] > stages[0.0]

    def test_overspend_is_small_when_it_happens(self, selection_setup):
        """Adaptive formulas keep ovsp well under the quota (paper: ~0.1 s
        of a 10 s quota)."""
        results = batch(selection_setup, OneAtATimeInterval(d_beta=0.0))
        overspends = [r.overspend_seconds for r in results if r.overspent]
        assert overspends, "expected some overspending at d_beta=0"
        assert np.mean(overspends) < 0.10 * selection_setup.quota
        assert max(overspends) < 0.25 * selection_setup.quota


class TestEstimateQuality:
    def test_selection_estimate_close(self, selection_setup):
        results = batch(selection_setup, OneAtATimeInterval(d_beta=24.0))
        errors = [
            r.relative_error(selection_setup.exact_count)
            for r in results
            if r.estimate is not None
        ]
        assert np.mean(errors) < 0.25

    def test_join_estimate_close(self):
        setup = make_join_setup(seed=3)
        results = batch(setup, OneAtATimeInterval(d_beta=24.0), runs=15)
        errors = [
            r.relative_error(setup.exact_count)
            for r in results
            if r.estimate is not None
        ]
        assert np.mean(errors) < 0.4

    def test_larger_quota_gives_smaller_error(self):
        setup = make_selection_setup(output_tuples=1_000, seed=4)
        mean_error = {}
        for quota in (2.0, 20.0):
            results = batch(
                setup, OneAtATimeInterval(d_beta=24.0),
                runs=20, quota=quota,
            )
            errs = [
                r.relative_error(setup.exact_count)
                for r in results
                if r.estimate is not None
            ]
            mean_error[quota] = np.mean(errs)
        assert mean_error[20.0] < mean_error[2.0]

    def test_ci_covers_truth_reasonably_often(self, selection_setup):
        results = batch(selection_setup, OneAtATimeInterval(d_beta=24.0))
        covered = 0
        usable = 0
        for r in results:
            if r.estimate is None:
                continue
            usable += 1
            lo, hi = r.confidence_interval(0.95)
            covered += lo <= selection_setup.exact_count <= hi
        # The SRS variance approximation plus cluster sampling undercovers a
        # little; require a sane floor rather than nominal 95%.
        assert covered / usable > 0.6


class TestStrategiesEndToEnd:
    def test_single_interval_controls_risk(self):
        setup = make_selection_setup(output_tuples=1_000, seed=5)
        risky = batch(setup, SingleInterval(d_alpha=0.0), runs=15)
        safe = batch(setup, SingleInterval(d_alpha=4.0), runs=15)
        risk_risky = sum(r.overspent for r in risky)
        risk_safe = sum(r.overspent for r in safe)
        assert risk_safe <= risk_risky

    def test_heuristic_is_usable_but_less_efficient(self):
        setup = make_selection_setup(output_tuples=1_000, seed=6)
        stat = batch(setup, OneAtATimeInterval(d_beta=24.0), runs=10)
        heur = batch(setup, FixedFractionHeuristic(gamma=0.5), runs=10)
        assert all(r.estimate is not None for r in heur)
        blocks_stat = np.mean([r.blocks for r in stat])
        blocks_heur = np.mean([r.blocks for r in heur])
        # γ=0.5 halves each stage: it cannot beat the statistical strategy
        # on evaluated sample size.
        assert blocks_heur < blocks_stat


class TestIntersectionPhenomena:
    def test_termination_for_lack_of_time_at_high_d_beta(self):
        """Section 5.B: at large d_β the time left is not enough for a
        further full-fulfillment stage."""
        setup = make_intersection_setup(seed=3)
        results = batch(setup, OneAtATimeInterval(d_beta=72.0), runs=10)
        assert all(not r.overspent for r in results)
        mean_stages = np.mean([r.stages for r in results])
        assert mean_stages < 2.5

    def test_partial_fulfillment_uses_leftover_time(self):
        """Section 5.B's remark: the partial plan 'may have its place here
        to use the small amount of time left' — cheaper stages mean it can
        keep going when full fulfillment stops."""
        setup = make_intersection_setup(seed=3)
        full = batch(
            setup, OneAtATimeInterval(d_beta=72.0), runs=10,
            full_fulfillment=True,
        )
        partial = batch(
            setup, OneAtATimeInterval(d_beta=72.0), runs=10,
            full_fulfillment=False,
        )
        assert np.mean([r.stages for r in partial]) >= np.mean(
            [r.stages for r in full]
        )


class TestErrorConstrainedEndToEnd:
    def test_stops_once_precise_enough(self):
        setup = make_selection_setup(output_tuples=5_000, seed=7)
        result = setup.database.estimate(
            setup.query,
            quota=60.0,
            strategy=OneAtATimeInterval(d_beta=24.0),
            stopping=ErrorConstrained(target_relative_halfwidth=0.25),
            seed=11,
        )
        assert result.termination in ("stopping_criterion", "exhausted")
        assert result.estimate.relative_error_bound(0.95) <= 0.25
