"""Remaining coverage: QueryResult surfaces, runner edges, Database knobs."""

import math

import pytest

from repro.core.database import Database
from repro.experiments.runner import aggregate, run_cell
from repro.relational.expression import rel, select
from repro.relational.predicate import cmp
from repro.timecontrol import executor as executor_module
from repro.timecontrol.strategies import OneAtATimeInterval
from repro.timekeeping.profile import MachineProfile
from repro.workloads.paper import make_selection_setup


@pytest.fixture
def db():
    database = Database(
        profile=MachineProfile.sun3_60(noise_sigma=0.1).scaled(0.1), seed=77
    )
    database.create_relation(
        "r1",
        [("id", "int"), ("a", "int")],
        rows=[(i, i % 10) for i in range(400)],
        block_size=16,
    )
    return database


class TestQueryResultSurfaces:
    def test_quota_and_stages_attempted(self, db):
        result = db.estimate(
            select(rel("r1"), cmp("a", "<", 3)), quota=2.0, seed=1
        )
        assert result.quota == 2.0
        assert result.stages_attempted >= result.stages

    def test_estimate_with_overrun_defaults_to_estimate(self, db):
        result = db.estimate(
            select(rel("r1"), cmp("a", "<", 3)), quota=2.0, seed=1
        )
        if not result.overspent:
            assert (
                result.report.estimate_with_overrun is result.report.estimate
            )

    def test_relative_error_infinite_for_zero_truth_nonzero_estimate(self, db):
        result = db.estimate(
            select(rel("r1"), cmp("a", "<", 5)), quota=2.0, seed=1
        )
        assert math.isinf(result.relative_error(0))


class TestDatabaseKnobs:
    def test_max_stages_respected(self, db, monkeypatch):
        monkeypatch.setattr(executor_module, "MAX_STAGES", 2)
        # A quota that affords more than two stages.
        result = db.estimate(rel("r1"), quota=2.0, seed=1)
        assert result.stages_attempted <= 2
        assert result.termination == "max_stages"

    def test_custom_step_specs_accepted(self, db):
        from repro.costmodel.model import CostModel
        from repro.costmodel.steps import default_step_specs

        result = db.estimate(
            select(rel("r1"), cmp("a", "<", 3)),
            quota=2.0,
            seed=1,
            cost_model=CostModel(specs=default_step_specs(prior_scale=0.1)),
        )
        assert result.stages_attempted >= 1

    def test_prior_scale_validation(self):
        from repro.costmodel.steps import default_step_specs
        from repro.errors import CostModelError

        with pytest.raises(CostModelError):
            default_step_specs(prior_scale=0.0)

    def test_shared_cost_model_carries_learning(self, db):
        """Passing one CostModel across queries persists adaptation —
        query 2 starts with query 1's fitted coefficients."""
        from repro.costmodel.model import CostModel
        from repro.costmodel.steps import SCAN_READ

        model = CostModel()
        before = model.predict(SCAN_READ, [10.0, 1.0])
        db.estimate(
            select(rel("r1"), cmp("a", "<", 3)),
            quota=2.0,
            seed=1,
            cost_model=model,
        )
        after = model.predict(SCAN_READ, [10.0, 1.0])
        assert after != before
        assert model.observation_counts().get(SCAN_READ, 0) >= 1


class TestRunnerEdges:
    def test_aggregate_without_truth_has_no_error_column(self):
        setup = make_selection_setup(output_tuples=100, tuples=1_000, seed=1)
        results = run_cell(
            setup, OneAtATimeInterval(d_beta=12.0), runs=3, seed0=1
        )
        cell = aggregate("x", results, true_count=None)
        assert cell.mean_relative_error is None
        assert cell.row()[-1] == "-"

    def test_run_cell_uses_setup_initial_selectivities(self):
        from repro.workloads.paper import make_join_setup

        setup = make_join_setup(tuples=700, seed=1)
        results = run_cell(
            setup, OneAtATimeInterval(d_beta=12.0), runs=2, seed0=5
        )
        assert len(results) == 2

    def test_explicit_kwargs_override_setup(self):
        setup = make_selection_setup(output_tuples=100, tuples=1_000, seed=1)
        results = run_cell(
            setup,
            OneAtATimeInterval(d_beta=12.0),
            runs=2,
            seed0=5,
            full_fulfillment=False,
        )
        assert len(results) == 2
