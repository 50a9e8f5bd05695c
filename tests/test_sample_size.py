"""Tests for the Sample-Size-Determine bisection (Figure 3.4) over whole
stage sizes ``k ∈ [1, max_size]``."""

import math

import pytest

from repro.errors import TimeControlError
from repro.timecontrol.sample_size import determine_stage_size


def linear_cost(rate: float):
    return lambda k: rate * k


def counted(cost):
    """``cost`` that records every size it prices."""
    asked: list[int] = []

    def price(k):
        asked.append(k)
        return cost(k)

    return price, asked


class TestBoundaries:
    def test_nonpositive_budget_infeasible(self):
        assert determine_stage_size(linear_cost(1.0), 0.0, 100, 0.02) == (None, 0)
        assert determine_stage_size(linear_cost(1.0), -1.0, 100, 0.02) == (None, 0)

    def test_empty_bounds_infeasible(self):
        # Every scan exhausted: no size to choose from.
        assert determine_stage_size(linear_cost(1.0), 1.0, 0, 0.02) == (None, 0)

    def test_min_fraction_too_expensive(self):
        # Even one block costs 10s against a 1s budget.
        assert determine_stage_size(linear_cost(10.0), 1.0, 100, 0.02) == (None, 0)

    def test_everything_affordable_takes_max(self):
        assert determine_stage_size(linear_cost(0.1), 10.0, 80, 0.02) == (80, 0)


class TestBisection:
    def test_converges_to_budget(self):
        cost = linear_cost(0.01)  # budget 5 → k = 500
        k, iterations = determine_stage_size(cost, 5.0, 1000, 0.02)
        assert cost(k) == pytest.approx(5.0, rel=0.02)
        assert 1 <= iterations <= math.ceil(math.log2(1000))

    def test_predicted_cost_within_epsilon_band(self):
        cost = lambda k: 0.02 * k + 1.0  # noqa: E731
        budget = 8.0
        k, _ = determine_stage_size(cost, budget, 1000, 0.02)
        assert abs(cost(k) - budget) <= 0.02 * budget + 1e-9

    def test_step_function_cost(self):
        """One block moves the cost past the whole ε window: the loop ends
        on adjacent sizes and takes the largest one under the budget."""
        price, asked = counted(linear_cost(1.0))
        k, iterations = determine_stage_size(price, 7.5, 20, 0.02)
        assert k == 7
        assert iterations <= math.ceil(math.log2(20))
        assert len(asked) == len(set(asked))  # no size priced twice

    def test_nonmonotone_tolerated(self):
        """Even a (mildly) non-monotone cost function yields some size."""

        def cost(k):
            return 0.01 * k + (0.5 if 400 < k < 500 else 0.0)

        k, _ = determine_stage_size(cost, 5.0, 1000, 0.02)
        assert k is not None and cost(k) <= 5.0 * 1.02

    def test_respects_min_fraction(self):
        # Size 1 fits, size 2 does not: the smallest stage is the answer.
        k, iterations = determine_stage_size(linear_cost(0.6), 1.0, 1000, 0.02)
        assert k == 1
        assert 1 <= iterations <= math.ceil(math.log2(1000))

    def test_iterations_bounded_by_log2_of_the_largest_size(self):
        for max_size in (2, 3, 7, 64, 65, 1000, 4097):
            for budget in (1.5, max_size / 3 + 0.5, max_size - 0.5):
                price, asked = counted(linear_cost(1.0))
                k, iterations = determine_stage_size(price, budget, max_size, 1e-9)
                assert k == math.floor(budget)
                assert iterations <= math.ceil(math.log2(max_size))
                assert len(asked) == len(set(asked)) == iterations + 2


class TestNanPrice:
    """A NaN price fails every comparison: the bisection would settle on one
    block after a full search instead of reporting the broken price."""

    @pytest.mark.parametrize("nan_at", [1, 100, 50, 25])
    def test_nan_price_raises_and_names_it(self, nan_at):
        def cost(k):
            return math.nan if k == nan_at else 0.01 * k

        with pytest.raises(TimeControlError, match=f"size {nan_at} is priced at nan"):
            determine_stage_size(cost, 0.3, 100, 1e-9)
