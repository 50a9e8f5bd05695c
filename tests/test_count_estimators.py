"""Tests for the COUNT estimators (û, Ŷ_b) and their variances.

The unbiasedness claims of [HoOT 88] are verified by *exhaustive
enumeration*: over every possible without-replacement sample of a tiny
population, the expectation of the estimator equals the true count exactly.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EstimationError
from repro.estimation.count_estimators import (
    cluster_count_estimate,
    combine_term_estimates,
    srs_count_estimate,
    srs_selectivity_variance,
)
from repro.estimation.estimate import Estimate


class TestSrsEstimate:
    def test_point_estimate_scales_up(self):
        est = srs_count_estimate(population=100, sampled=10, ones=3)
        assert est.value == pytest.approx(30.0)

    def test_full_sample_is_exact(self):
        est = srs_count_estimate(population=10, sampled=10, ones=4)
        assert est.exact
        assert est.value == 4.0
        assert est.variance == 0.0

    def test_zero_ones_zero_variance(self):
        est = srs_count_estimate(population=100, sampled=10, ones=0)
        assert est.value == 0.0
        assert est.variance == 0.0

    def test_single_point_sample_is_conservative(self):
        est = srs_count_estimate(population=100, sampled=1, ones=1)
        assert est.value == 100.0
        assert est.variance > 0.0

    @pytest.mark.parametrize(
        "population,sampled,ones",
        [(0, 1, 0), (10, 0, 0), (10, 11, 0), (10, 5, 6), (10, 5, -1)],
    )
    def test_invalid_inputs_rejected(self, population, sampled, ones):
        with pytest.raises(EstimationError):
            srs_count_estimate(population, sampled, ones)

    def test_unbiased_by_exhaustive_enumeration(self):
        """E[û] over all C(N, m) samples equals the true count."""
        population = [1, 0, 1, 1, 0, 0, 1, 0]  # N=8, true count 4
        n = len(population)
        for m in (2, 3, 5):
            values = [
                srs_count_estimate(n, m, sum(s)).value
                for s in itertools.combinations(population, m)
            ]
            assert sum(values) / len(values) == pytest.approx(4.0)

    def test_variance_formula_matches_enumeration(self):
        """E[V̂] over all samples equals the true Var(û) (unbiased form)."""
        population = [1, 0, 1, 0, 0, 1]
        n = len(population)
        m = 3
        samples = list(itertools.combinations(population, m))
        estimates = [srs_count_estimate(n, m, sum(s)) for s in samples]
        values = [e.value for e in estimates]
        true_var = float(np.var(values))  # population variance over samples
        mean_estimated_var = sum(e.variance for e in estimates) / len(samples)
        assert mean_estimated_var == pytest.approx(true_var, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        population=st.integers(2, 10_000),
        data=st.data(),
    )
    def test_property_estimate_in_feasible_range(self, population, data):
        sampled = data.draw(st.integers(1, population))
        ones = data.draw(st.integers(0, sampled))
        est = srs_count_estimate(population, sampled, ones)
        assert 0.0 <= est.value <= population
        assert est.variance >= 0.0


class TestSelectivityVariance:
    def test_zero_when_population_exhausted(self):
        assert srs_selectivity_variance(0.5, 10, 10) == 0.0

    def test_decreases_with_sample_size(self):
        small = srs_selectivity_variance(0.3, 10, 1000)
        large = srs_selectivity_variance(0.3, 100, 1000)
        assert large < small

    def test_zero_at_extreme_selectivities(self):
        assert srs_selectivity_variance(0.0, 10, 1000) == 0.0
        assert srs_selectivity_variance(1.0, 10, 1000) == 0.0

    def test_requires_positive_sample(self):
        with pytest.raises(EstimationError):
            srs_selectivity_variance(0.5, 0, 100)


class TestClusterEstimate:
    def test_point_estimate(self):
        est = cluster_count_estimate(total_space_blocks=10, block_ones=[2, 4])
        assert est.value == pytest.approx(30.0)

    def test_full_census_exact(self):
        est = cluster_count_estimate(2, [3, 5])
        assert est.exact and est.value == 8.0 and est.variance == 0.0

    def test_unbiased_by_exhaustive_enumeration(self):
        """E[Ŷ_b] over all block samples equals the true total."""
        blocks = [3, 0, 2, 5, 1]  # B=5, total 11
        for b in (2, 3):
            values = [
                cluster_count_estimate(5, list(s)).value
                for s in itertools.combinations(blocks, b)
            ]
            assert sum(values) / len(values) == pytest.approx(11.0)

    def test_homogeneous_blocks_zero_variance(self):
        est = cluster_count_estimate(10, [4, 4, 4])
        assert est.variance == 0.0

    def test_single_block_flagged_uncertain(self):
        est = cluster_count_estimate(10, [4])
        assert est.variance > 0.0

    def test_invalid_inputs(self):
        with pytest.raises(EstimationError):
            cluster_count_estimate(1, [1, 2])
        with pytest.raises(EstimationError):
            cluster_count_estimate(5, [])
        with pytest.raises(EstimationError):
            cluster_count_estimate(5, [-1])


class TestCombineTerms:
    def test_signed_combination(self):
        a = Estimate(value=100.0, variance=4.0, sample_points=10, population_points=50)
        b = Estimate(value=30.0, variance=1.0, sample_points=10, population_points=50)
        combined = combine_term_estimates([(1, a), (-1, b)])
        assert combined.value == pytest.approx(70.0)
        assert combined.variance == pytest.approx(5.0)

    def test_coefficients_squared_in_variance(self):
        a = Estimate(value=10.0, variance=1.0)
        combined = combine_term_estimates([(2, a)])
        assert combined.value == 20.0
        assert combined.variance == 4.0

    def test_exact_only_when_all_exact(self):
        a = Estimate(value=1.0, variance=0.0, exact=True)
        b = Estimate(value=1.0, variance=0.5, exact=False)
        assert combine_term_estimates([(1, a)]).exact
        assert not combine_term_estimates([(1, a), (1, b)]).exact

    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            combine_term_estimates([])

