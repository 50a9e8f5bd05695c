"""Golden regression tests — pinned seeded outcomes.

A reproduction repository lives or dies by stable numbers: these tests pin
the exact outcomes of a handful of fully seeded runs so that accidental
behavioural changes (an operator charging differently, a strategy sizing
stages differently, an estimator formula drifting) show up as a diff, not
as a silent shift in the tables.

The pinned values depend only on this library's code and numpy's
``default_rng`` streams (stable across platforms for a given numpy major
version). If a change is *intentional*, update the constants here and
re-generate EXPERIMENTS.md.
"""

import pytest

from repro.timecontrol.strategies import OneAtATimeInterval
from repro.workloads.paper import (
    make_intersection_setup,
    make_join_setup,
    make_selection_setup,
)


class TestGoldenSelection:
    @pytest.fixture(scope="class")
    def result(self):
        setup = make_selection_setup(output_tuples=1_000, seed=3)
        return setup.database.estimate(
            setup.query,
            quota=setup.quota,
            strategy=OneAtATimeInterval(d_beta=24.0),
            seed=100,
        )

    def test_estimate_value(self, result):
        assert result.value == pytest.approx(1034.48, abs=0.5)

    def test_run_shape(self, result):
        assert result.stages == 4
        assert result.blocks == 87
        assert not result.overspent
        assert result.termination == "no_feasible_stage"

    def test_utilization(self, result):
        assert result.utilization == pytest.approx(0.9872, abs=0.01)


class TestGoldenJoin:
    @pytest.fixture(scope="class")
    def result(self):
        setup = make_join_setup(seed=3)
        return setup.database.estimate(
            setup.query,
            quota=setup.quota,
            strategy=OneAtATimeInterval(d_beta=24.0),
            initial_selectivities=setup.initial_selectivities,
            seed=100,
        )

    def test_estimate_value(self, result):
        assert result.value == pytest.approx(58769.51, abs=1.0)

    def test_run_shape(self, result):
        assert result.stages == 3
        assert result.blocks == 66
        assert not result.overspent
        assert result.termination == "no_feasible_stage" 


class TestGoldenIntersection:
    def test_deterministic_across_calls(self):
        """The same seeds give bit-identical runs (the whole premise of the
        200-run tables)."""
        outcomes = []
        for _ in range(2):
            setup = make_intersection_setup(seed=3)
            result = setup.database.estimate(
                setup.query,
                quota=setup.quota,
                strategy=OneAtATimeInterval(d_beta=12.0),
                seed=55,
            )
            outcomes.append(
                (
                    result.value if result.estimate else None,
                    result.stages,
                    result.blocks,
                    result.overspent,
                    result.termination,
                )
            )
        assert outcomes[0] == outcomes[1]
