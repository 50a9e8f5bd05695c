"""The paper's evaluation claims: Figures 5.1–5.3, ablations A1–A9.

Section 5 reports each table cell over 200 runs; here every cell runs 60
times from ``run_cell``'s seed 1000 on the simulated clock, so each claim is
a deterministic check of the shape the paper (or DESIGN.md §4, for the
ablations) argues for, not a measurement. Regenerate the tables themselves
with ``python -m repro.experiments --runs 200 --ablations``.
"""

from __future__ import annotations

from repro.experiments.ablations import (
    ablation_adaptive_cost,
    ablation_distinct_estimators,
    ablation_estimator_quality,
    ablation_fulfillment,
    ablation_memory_resident,
    ablation_selectivity_sources,
    ablation_stopping,
    ablation_strategies,
    ablation_variance_formula,
    ablation_zero_fix,
)
from repro.experiments.formatting import PAPER_COLUMNS
from repro.experiments.tables import figure_5_1, figure_5_2, figure_5_3

RUNS = 60


def column(table, name: str) -> list[float]:
    """A numeric column of an experiment table, one value per row."""
    idx = table.columns.index(name)
    return [float(row[idx]) for row in table.rows]


def paper_table(figure, **kwargs):
    """One of Figs. 5.1–5.3: the d_β sweep's five rows, the paper's columns."""
    table = figure(runs=RUNS, **kwargs)
    assert len(table.rows) == 5
    assert table.columns == PAPER_COLUMNS
    return table


def rows_by_label(table) -> dict:
    return {row[0]: row for row in table.rows}


# --- Figure 5.1 — Selection ---------------------------------------------------
# Quota 10 s, d_β ∈ {0, 12, 24, 48, 72}: risk falls from the d_β = 0 coin
# flip to (near) zero, stages and utilization rise, mean overspend stays a
# small fraction of the quota.


def test_figure_5_1_selection_1000():
    table = paper_table(figure_5_1, output_tuples=1_000)
    risk = column(table, "risk%")
    stages = column(table, "stages")
    util = column(table, "util%")
    ovsp = column(table, "ovsp")
    assert risk[0] > 25.0, "d_beta=0 should gamble near-even odds"
    assert risk[-1] < risk[0] / 2, "large d_beta must cut the risk"
    assert stages[-1] > stages[0], "conservative selectivities add stages"
    assert util[-1] > util[0], "less waste at larger d_beta"
    # Mean overspend stays a modest fraction of the 10 s quota (individual
    # cells can carry one rare large-noise outlier at small run counts).
    assert max(ovsp) < 0.15 * 10.0, "adaptive formulas keep overspend small"


def test_figure_5_1_selection_5000():
    table = paper_table(figure_5_1, output_tuples=5_000)
    risk = column(table, "risk%")
    assert risk[-1] < max(risk[0], 10.0)
    errors = column(table, "rel.err")
    assert max(errors) < 0.3, "selection estimates stay accurate"


# --- Figure 5.2 — Intersection ------------------------------------------------
# Two identical-content 10 000-tuple relations, quota 2.5 s: the evaluated
# blocks fall as the margins grow (the paper's 25.9 → 22.1), and at large d_β
# the run ends for lack of time before a further full-fulfillment stage.


def test_figure_5_2_intersection():
    table = paper_table(figure_5_2)
    risk = column(table, "risk%")
    blocks = column(table, "blocks")
    stages = column(table, "stages")
    assert risk[-1] <= risk[0], "risk must not grow with d_beta"
    assert risk[-1] < 5.0, "large d_beta nearly eliminates overspending"
    assert blocks[-1] < blocks[0], (
        "per the paper, growing margins shrink the evaluated sample"
    )
    # Section 5.B: at d_beta=72 the time left was not enough for a further
    # stage — stage counts at the top of the sweep stay low.
    assert stages[-1] <= stages[0] + 1.0


# --- Figure 5.3 — Join --------------------------------------------------------
# An equi-join of ≈70 000 output tuples, initial selectivity 0.1: risk falls
# to zero, stages grow, blocks decline with the cross-stage merge overhead.


def test_figure_5_3_join():
    table = paper_table(figure_5_3)
    risk = column(table, "risk%")
    stages = column(table, "stages")
    blocks = column(table, "blocks")
    errors = column(table, "rel.err")
    assert risk[-1] <= risk[0]
    assert risk[-1] < 5.0
    assert stages[-1] > stages[0]
    assert blocks[-1] < blocks[0], "cross-stage merge overhead costs blocks"
    assert max(errors) < 0.5, "join estimates stay in the right ballpark"


# --- Ablations A1–A4, A6–A9 (DESIGN.md §4) ------------------------------------


def test_ablation_a1_strategies():
    table = ablation_strategies(runs=RUNS)
    assert len(table.rows) == 6
    risk = {label: float(row[2]) for label, row in rows_by_label(table).items()}
    # Statistical strategies with margins beat their own zero-margin
    # variants on risk.
    assert risk["one-at-a-time d_b=24"] <= risk["one-at-a-time d_b=0"]
    # Single-Interval's reservation only has covariance data to work with
    # from stage 3 on, so allow small-sample noise around the comparison.
    assert risk["single-interval d_a=2"] <= risk["single-interval d_a=0"] + 5.0
    # Both statistical strategies beat the aggressive heuristic on risk.
    assert risk["one-at-a-time d_b=24"] < risk["heuristic g=0.9"]
    assert risk["single-interval d_a=2"] < risk["heuristic g=0.9"]


def test_ablation_a2_fulfillment():
    table = ablation_fulfillment(runs=RUNS)
    assert [row[0] for row in table.rows] == ["full", "partial"]
    rows = rows_by_label(table)
    # "The full fulfillment approach has the advantage of making the most
    # use of the sampled data" (Section 4): more points per drawn block —
    # visible as equal-or-better estimate error at similar block budgets,
    # and the partial plan squeezing in at least as many stages.
    assert float(rows["partial"][1]) >= float(rows["full"][1])  # stages


def test_ablation_a3_adaptive_cost():
    table = ablation_adaptive_cost(runs=RUNS)
    assert [row[0] for row in table.rows] == ["adaptive", "fixed-form"]
    rows = rows_by_label(table)
    # Frozen worst-case priors oversize the safety margins: the adaptive
    # model evaluates more of the sample in the same quota (Section 4's
    # motivation for adaptive formulas).
    assert float(rows["adaptive"][5]) > float(rows["fixed-form"][5])


def test_ablation_a4_variance():
    table = ablation_variance_formula(samples=300, blocks_per_draw=20)
    rows = rows_by_label(table)
    # Clustered layout: the SRS approximation understates severely — the
    # paper's stated reason for its large d_beta values. Random layout (the
    # paper's workload): the approximation is close.
    assert float(rows["clustered"][4]) < 0.5
    assert 0.65 <= float(rows["random"][4]) <= 1.35


def test_ablation_a6_stopping():
    table = ablation_stopping(runs=RUNS)
    assert len(table.rows) == 5
    rows = rows_by_label(table)
    # The error-constrained criterion stops before the quota is exhausted:
    # lower utilization and no more risk than the pure deadline criteria.
    assert float(rows["error<=35% @95"][4]) < float(rows["hard deadline"][4])
    assert float(rows["error<=35% @95"][2]) <= float(rows["hard deadline"][2])


def test_ablation_a7_selectivity_sources():
    rows = rows_by_label(ablation_selectivity_sources(runs=RUNS))
    # Hybrid's informed stage-1 sizing needs no extra probing stages
    # relative to the run-time maximum-selectivity start.
    assert float(rows["hybrid"][1]) <= float(rows["runtime"][1])
    # Pure prestored pins selectivities and never refines: mis-sized stages
    # evaluate fewer blocks and yield a worse estimate than the hybrid —
    # the inflexibility that made the paper reject the prestored approach.
    assert float(rows["prestored"][5]) < float(rows["hybrid"][5])
    assert float(rows["prestored"][6]) >= float(rows["hybrid"][6])


def test_ablation_a8_memory_resident():
    rows = rows_by_label(ablation_memory_resident(runs=RUNS))
    # Section 4's prediction: with sample processing in main memory, the
    # same quota buys a larger evaluated sample (and no extra risk).
    assert float(rows["main-memory"][5]) > float(rows["disk"][5])
    assert float(rows["main-memory"][2]) <= float(rows["disk"][2]) + 5.0


def test_ablation_a9_zero_fix():
    table = ablation_zero_fix(runs=RUNS)
    assert len(table.rows) == 5
    util = column(table, "util%")
    risk = column(table, "risk%")
    # Loosening the bound buys utilization and eventually re-admits risk:
    # the conservative end must not be riskier than the aggressive end.
    assert util[-1] >= util[0]
    assert risk[0] <= risk[-1] + 3.0


# --- A5 — estimators ----------------------------------------------------------
# The paper defers estimator accuracy to [HoOT 88]/[HouO 88]; these are the
# claims the time-control work rests on.


def test_estimator_consistency():
    table = ablation_estimator_quality(
        fractions=(0.01, 0.02, 0.05, 0.1, 0.2), runs=40
    )
    selection = [float(row[1]) for row in table.rows]
    join = [float(row[2]) for row in table.rows]
    # Consistency: the largest sample fraction must beat the smallest.
    assert selection[-1] < selection[0]
    assert join[-1] < join[0]
    assert selection[-1] < 0.1
    assert join[-1] < 0.2


def test_distinct_count_estimators():
    table = ablation_distinct_estimators(fraction=0.1, runs=40)
    assert [row[0] for row in table.rows] == [
        "observed",
        "goodman",
        "chao1",
        "jackknife1",
    ]
    bias = {row[0]: abs(float(row[3])) for row in table.rows}
    # Any real estimator must improve on "just report what you saw".
    assert bias["goodman"] < bias["observed"]
    assert bias["chao1"] < bias["observed"]
    assert bias["jackknife1"] < bias["observed"]
