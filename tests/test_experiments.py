"""Tests for the experiment harness (small run counts)."""

import pytest

from repro.experiments.ablations import (
    ablation_zero_fix,
    ablation_adaptive_cost,
    ablation_distinct_estimators,
    ablation_estimator_quality,
    ablation_fulfillment,
    ablation_stopping,
    ablation_strategies,
    ablation_variance_formula,
)
from repro.errors import CellRunError
from repro.experiments.formatting import PAPER_COLUMNS, Table
from repro.experiments.runner import aggregate, run_cell
from repro.experiments.tables import figure_5_1, figure_5_2, figure_5_3
from repro.observability import RecordingSink
from repro.timecontrol.strategies import OneAtATimeInterval
from repro.workloads.paper import make_selection_setup


class TestTableFormatting:
    def test_render_aligns_columns(self):
        table = Table(title="T", columns=["a", "bb"])
        table.add(["1", "2"])
        text = table.render()
        assert "T" in text and "bb" in text

    def test_wrong_row_width_rejected(self):
        table = Table(title="T", columns=["a"])
        with pytest.raises(ValueError):
            table.add(["1", "2"])

    def test_notes_rendered(self):
        table = Table(title="T", columns=["a"], notes=["hello"])
        assert "hello" in table.render()


class TestRunnerAggregation:
    def test_aggregate_columns(self):
        setup = make_selection_setup(output_tuples=100, tuples=1_000, seed=1)
        results = run_cell(
            setup, lambda: OneAtATimeInterval(d_beta=12.0), runs=5, seed0=1
        )
        cell = aggregate("x", results, true_count=setup.exact_count)
        assert cell.runs == 5
        assert cell.stages >= 1
        assert 0 <= cell.risk_pct <= 100
        assert cell.mean_relative_error is not None
        assert len(cell.row()) == len(PAPER_COLUMNS)

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate("x", [])


class ExplodingStrategy(OneAtATimeInterval):
    """Raises mid-run, deep inside the session."""

    def choose_fraction(self, *args, **kwargs):
        raise RuntimeError("boom: injected strategy failure")


class TestRunCell:
    SEED0 = 10_000

    @pytest.fixture(scope="class")
    def setup(self):
        return make_selection_setup(output_tuples=100, tuples=1_000)

    def test_serial_failure_names_the_seed(self, setup):
        with pytest.raises(CellRunError) as err:
            run_cell(
                setup, lambda: ExplodingStrategy(d_beta=24.0), 3, seed0=self.SEED0
            )
        assert err.value.seed == self.SEED0
        assert f"seed {self.SEED0}" in str(err.value)
        assert "boom" in str(err.value)
        assert "RuntimeError" in str(err.value)
        # The original exception rides along for debugging.
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_serial_mode_accepts_sink(self, setup):
        sink = RecordingSink()
        results = run_cell(
            setup,
            lambda: OneAtATimeInterval(d_beta=24.0),
            2,
            seed0=self.SEED0,
            sink=sink,
        )
        assert len(results) == 2
        assert sink.of_kind("query_start")


class TestFigureTables:
    @pytest.mark.parametrize(
        "figure", [figure_5_1, figure_5_2, figure_5_3], ids=["5.1", "5.2", "5.3"]
    )
    def test_figure_renders_with_five_rows(self, figure):
        table = figure(runs=3)
        assert len(table.rows) == 5
        assert table.columns == PAPER_COLUMNS
        assert "paper rows" in table.render() or "quota" in table.render()


class TestAblations:
    def test_strategies_table(self):
        table = ablation_strategies(runs=3)
        assert len(table.rows) == 6

    def test_fulfillment_table(self):
        table = ablation_fulfillment(runs=3)
        assert [r[0] for r in table.rows] == ["full", "partial"]

    def test_adaptive_cost_table(self):
        table = ablation_adaptive_cost(runs=3)
        assert [r[0] for r in table.rows] == ["adaptive", "fixed-form"]

    def test_variance_table_shows_underestimate_when_clustered(self):
        table = ablation_variance_formula(samples=120, blocks_per_draw=15)
        rows = {r[0]: r for r in table.rows}
        # Random layout (the paper's workload): SRS approximation is close.
        assert float(rows["random"][4]) == pytest.approx(1.0, abs=0.35)
        # Clustered layout: the approximation understates severely — the
        # paper's stated reason for its large d_beta values.
        assert float(rows["clustered"][4]) < 0.5

    def test_estimator_quality_errors_shrink(self):
        table = ablation_estimator_quality(
            fractions=(0.02, 0.2), runs=10
        )
        first = float(table.rows[0][1])
        last = float(table.rows[1][1])
        assert last <= first

    def test_distinct_estimators_table(self):
        table = ablation_distinct_estimators(fraction=0.2, runs=5)
        names = [r[0] for r in table.rows]
        assert names == ["observed", "goodman", "chao1", "jackknife1"]

    def test_zero_fix_table(self):
        table = ablation_zero_fix(runs=3)
        assert len(table.rows) == 5

    def test_stopping_table(self):
        table = ablation_stopping(runs=3)
        assert len(table.rows) == 5

    def test_hard_and_soft_deadline_rows_differ(self):
        # The hard row runs with the live interrupt armed, so an overspending
        # stage is cut at the deadline instead of running to its end.
        table = ablation_stopping(runs=50)
        hard, soft = table.rows[0], table.rows[1]
        assert (hard[0], soft[0]) == ("hard deadline", "soft deadline")
        assert float(soft[2]) > 0  # some run overspent
        assert float(hard[3]) < float(soft[3])  # ovsp: cut short
        assert hard[4:] == soft[4:]  # the in-time stages are the same
