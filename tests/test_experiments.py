"""Tests for the experiment harness (small run counts).

The tables' claims are checked in ``tests/statistical/test_paper_claims.py``.
"""

import pytest

from repro.errors import CellRunError
from repro.experiments.ablations import ablation_stopping
from repro.experiments.formatting import PAPER_COLUMNS, Table
from repro.experiments.runner import aggregate, run_cell
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
            setup, OneAtATimeInterval(d_beta=12.0), runs=5, seed0=1
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
                setup, ExplodingStrategy(d_beta=24.0), 3, seed0=self.SEED0
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
            OneAtATimeInterval(d_beta=24.0),
            2,
            seed0=self.SEED0,
            sink=sink,
        )
        assert len(results) == 2
        assert sink.of_kind("query_start")


class TestAblations:
    def test_hard_and_soft_deadline_rows_differ(self):
        # The hard row runs with the live interrupt armed, so an overspending
        # stage is cut at the deadline instead of running to its end.
        table = ablation_stopping(runs=50)
        hard, soft = table.rows[0], table.rows[1]
        assert (hard[0], soft[0]) == ("hard deadline", "soft deadline")
        assert float(soft[2]) > 0  # some run overspent
        assert float(hard[3]) < float(soft[3])  # ovsp: cut short
        assert hard[4:] == soft[4:]  # the in-time stages are the same
