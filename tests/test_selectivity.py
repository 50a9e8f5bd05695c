"""Tests for run-time selectivity estimation (Figures 3.3/3.5)."""

import pytest

from repro.errors import EstimationError
from repro.estimation.selectivity import (
    SelectivityTracker,
    StageLedger,
    StageObservation,
)


@pytest.fixture
def tracker():
    return SelectivityTracker("join#1", initial=1.0)


class TestReviseSelectivities:
    def test_initial_before_any_stage(self, tracker):
        assert tracker.sel_prev == 1.0
        assert tracker.stages_observed == 0

    def test_pooled_over_stages(self, tracker):
        tracker.record_stage(tuples=10, points=100)
        tracker.record_stage(tuples=30, points=100)
        # Figure 3.3: sel^{i-1} = Σ tuples_j / Σ points_j = 40/200.
        assert tracker.sel_prev == pytest.approx(0.2)
        assert tracker.total_tuples == 40
        assert tracker.total_points == 200

    def test_running_totals_follow_record_snapshot_restore(self, tracker):
        def resummed():
            return (
                sum(o.tuples for o in tracker.observations),
                sum(o.points for o in tracker.observations),
            )

        tracker.record_stage(tuples=10, points=100)
        token = tracker.snapshot()
        tracker.record_stage(tuples=30, points=150)
        assert (tracker.total_tuples, tracker.total_points) == (40, 250)
        assert (tracker.total_tuples, tracker.total_points) == resummed()
        tracker.restore(token)
        assert (tracker.total_tuples, tracker.total_points) == (10, 100)
        assert tracker.sel_prev == 10 / 100
        tracker.record_stage(tuples=5, points=50)  # the salvage retry
        assert (tracker.total_tuples, tracker.total_points) == (15, 150)
        assert (tracker.total_tuples, tracker.total_points) == resummed()
        # A rejected observation leaves the totals where they were.
        with pytest.raises(EstimationError):
            tracker.record_stage(-1, 10)
        assert (tracker.total_tuples, tracker.total_points) == (15, 150)

    def test_the_counting_half_is_a_stage_ledger(self, tracker):
        """A scan's bare ledger counts exactly as an operator's tracker does."""
        assert isinstance(tracker, StageLedger)
        ledger = StageLedger()
        for counts in (ledger, tracker):
            counts.record_stage(tuples=10, points=100)
            token = counts.snapshot()
            counts.record_stage(tuples=30, points=150)
            assert counts.last == StageObservation(30, 150)
            assert (counts.total_tuples, counts.total_points) == (40, 250)
            counts.restore(token)
            assert counts.stages_observed == token == 1
            assert counts.last == StageObservation(10, 100)
            assert (counts.total_tuples, counts.total_points) == (10, 100)
            with pytest.raises(EstimationError):
                counts.restore(2)
        assert ledger.observations == tracker.observations
        seeded = SelectivityTracker("s", 1.0, observations=list(ledger.observations))
        assert (seeded.total_tuples, seeded.total_points) == (10, 100)

    def test_intersect_style_initial(self):
        t = SelectivityTracker("int#1", initial=1 / 10_000)
        assert t.sel_prev == pytest.approx(1e-4)

    def test_invalid_initial_rejected(self):
        with pytest.raises(EstimationError):
            SelectivityTracker("x", initial=0.0)
        with pytest.raises(EstimationError):
            SelectivityTracker("x", initial=1.5)

    def test_negative_observation_rejected(self, tracker):
        with pytest.raises(EstimationError):
            tracker.record_stage(-1, 10)


class TestZeroSelectivityFix:
    def test_zero_observations_yield_positive_bound(self, tracker):
        tracker.record_stage(tuples=0, points=900)
        assert tracker.sel_prev == 0.0
        assert tracker.effective_sel_prev() > 0.0

    def test_bound_shrinks_with_more_data(self, tracker):
        tracker.record_stage(0, 100)
        early = tracker.zero_selectivity_bound()
        tracker.record_stage(0, 10_000)
        late = tracker.zero_selectivity_bound()
        assert late < early

    def test_bound_formula(self):
        t = SelectivityTracker("x", initial=1.0, zero_fix_beta=0.05)
        t.record_stage(0, 100)
        assert t.zero_selectivity_bound() == pytest.approx(
            1 - 0.05 ** (1 / 100)
        )

    def test_positive_observations_bypass_fix(self, tracker):
        tracker.record_stage(5, 100)
        assert tracker.effective_sel_prev() == pytest.approx(0.05)


class TestComputeSelPlus:
    def test_stage_one_returns_initial(self, tracker):
        assert tracker.sel_plus(48.0, candidate_points=100, space_points=10_000) == 1.0

    def test_d_beta_zero_is_sel_prev(self, tracker):
        tracker.record_stage(10, 100)
        sel = tracker.sel_plus(0.0, candidate_points=200, space_points=10_000)
        assert sel == pytest.approx(0.1)

    def test_margin_grows_with_d_beta(self, tracker):
        tracker.record_stage(10, 100)
        s12 = tracker.sel_plus(12.0, 200, 10_000)
        s48 = tracker.sel_plus(48.0, 200, 10_000)
        assert 0.1 < s12 < s48

    def test_margin_shrinks_with_candidate_size(self, tracker):
        tracker.record_stage(10, 100)
        small_stage = tracker.sel_plus(12.0, 50, 10_000)
        large_stage = tracker.sel_plus(12.0, 5_000, 10_000)
        assert large_stage < small_stage

    def test_clamped_to_one(self, tracker):
        tracker.record_stage(90, 100)
        assert tracker.sel_plus(1000.0, 10, 10_000) == 1.0

    def test_never_zero_even_after_zero_stage(self, tracker):
        tracker.record_stage(0, 900)
        sel = tracker.sel_plus(0.0, 100, 10_000)
        assert sel > 0.0

    def test_negative_d_beta_rejected(self, tracker):
        tracker.record_stage(1, 10)
        with pytest.raises(EstimationError):
            tracker.sel_plus(-1.0, 10, 100)

    def test_variance_zero_when_space_exhausted(self, tracker):
        tracker.record_stage(10, 100)
        assert tracker.variance(candidate_points=50, space_points=100) == 0.0

    def test_variance_requires_candidate_points(self, tracker):
        tracker.record_stage(10, 100)
        with pytest.raises(EstimationError):
            tracker.variance(0, 10_000)


class TestSeries:
    def test_per_stage_selectivities(self, tracker):
        tracker.record_stage(10, 100)
        tracker.record_stage(0, 50)
        tracker.record_stage(5, 0)  # zero-point stage is skipped
        assert tracker.per_stage_selectivities() == [0.1, 0.0]
