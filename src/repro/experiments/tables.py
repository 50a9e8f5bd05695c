"""Regenerators for every evaluation table of the paper (Section 5).

Each ``figure_5_x`` function sweeps ``d_β ∈ {0, 12, 24, 48, 72}`` over the
corresponding workload and returns a :class:`Table` with the paper's columns
(plus the estimate's mean relative error, which the paper reports in its
companion papers). ``runs`` defaults to the paper's 200 independent
experiments per cell; pass a smaller number for quick looks.

The module also records the paper's published numbers
(:data:`PAPER_FIGURE_5_1` …) so harnesses can print measured-versus-paper
side by side; EXPERIMENTS.md discusses the comparison.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.formatting import PAPER_COLUMNS, Table
from repro.experiments.runner import aggregate, run_cell
from repro.timecontrol.strategies import OneAtATimeInterval
from repro.workloads.paper import (
    D_BETA_GRID,
    PaperSetup,
    make_intersection_setup,
    make_join_setup,
    make_selection_setup,
)

PAPER_RUNS = 200

# Published rows: d_beta -> (stages, risk%, ovsp, utilization%, blocks).
# Transcribed from the paper's Figures 5.1-5.3 (OCR gaps marked None).
PAPER_FIGURE_5_1 = {
    0: (1.56, 56, 0.11, 63, 54),
    12: (1.73, 43, 0.09, 71, 61),
    24: (2.62, 26, 0.05, 92, 81),
    48: (3.56, 4, 0.03, 98, 84),
    72: (4.12, 2, 0.02, 98, 83),
}
PAPER_FIGURE_5_2 = {
    0: (1.56, 44, 0.18, 41.8, 25.9),
    12: (1.74, 26, 0.17, 47.9, 28.4),
    24: (1.85, 15, 0.12, 51.2, 27.5),
    48: (1.97, 3.0, 0.11, 54.1, 24.1),
    72: (2.00, 0, 0.00, 51.9, 22.1),
}
PAPER_FIGURE_5_3 = {
    0: (1.59, 41, 0.19, 71, 63),
    12: (1.94, 5.3, 0.18, 91, None),
    24: (None, 0, 0.00, 90, None),
    48: (None, 0, 0.00, 83, None),
    72: (None, 0, 0.00, None, None),
}


def _sweep(
    setup: PaperSetup,
    runs: int,
    d_betas: Sequence[float],
    seed0: int,
    title: str,
    paper_rows: dict | None = None,
    **estimate_kwargs,
) -> Table:
    table = Table(title=title, columns=PAPER_COLUMNS)
    for d_beta in d_betas:
        results = run_cell(
            setup,
            OneAtATimeInterval(d_beta=d_beta),
            runs=runs,
            seed0=seed0,
            **estimate_kwargs,
        )
        cell = aggregate(f"{d_beta:g}", results, true_count=setup.exact_count)
        table.add(cell.row())
    table.notes.append(f"{runs} independent runs per row; quota {setup.quota:g}s")
    table.notes.append(f"exact COUNT = {setup.exact_count}")
    if paper_rows:
        table.notes.append(
            "paper rows (stages, risk%, ovsp, util%, blocks): "
            + "; ".join(
                f"d_beta={k}: {v}" for k, v in paper_rows.items()
            )
        )
    return table


def figure_5_1(
    runs: int = PAPER_RUNS,
    output_tuples: int = 1_000,
    d_betas: Sequence[float] = D_BETA_GRID,
    seed: int = 0,
) -> Table:
    """Figure 5.1 — time-control performance for the Selection operator.

    The paper shows sub-tables for different output cardinalities; pass
    ``output_tuples`` (1 000 and 5 000 reproduce both published panels).
    """
    setup = make_selection_setup(output_tuples=output_tuples, seed=seed)
    return _sweep(
        setup,
        runs,
        d_betas,
        seed0=10_000,
        title=(
            f"Figure 5.1 — Selection, {output_tuples} output tuples, "
            f"quota {setup.quota:g}s"
        ),
        paper_rows=PAPER_FIGURE_5_1 if output_tuples == 1_000 else None,
    )


def figure_5_2(
    runs: int = PAPER_RUNS,
    d_betas: Sequence[float] = D_BETA_GRID,
    seed: int = 0,
) -> Table:
    """Figure 5.2 — time-control performance for the Intersection operator."""
    setup = make_intersection_setup(seed=seed)
    return _sweep(
        setup,
        runs,
        d_betas,
        seed0=20_000,
        title=(
            f"Figure 5.2 — Intersection, {setup.exact_count} output tuples, "
            f"quota {setup.quota:g}s"
        ),
        paper_rows=PAPER_FIGURE_5_2,
    )


def figure_5_3(
    runs: int = PAPER_RUNS,
    d_betas: Sequence[float] = D_BETA_GRID,
    seed: int = 0,
) -> Table:
    """Figure 5.3 — time-control performance for the Join operator.

    As in the paper, the initial join selectivity is 0.1 rather than the
    maximum 1 (Section 5.C explains the clock-granularity motivation).
    """
    setup = make_join_setup(seed=seed)
    return _sweep(
        setup,
        runs,
        d_betas,
        seed0=30_000,
        title=(
            f"Figure 5.3 — Join, {setup.exact_count} output tuples, "
            f"quota {setup.quota:g}s"
        ),
        paper_rows=PAPER_FIGURE_5_3,
    )


def all_tables(runs: int = PAPER_RUNS) -> list[Table]:
    """Every reproduced evaluation table, in paper order."""
    return [
        figure_5_1(runs=runs, output_tuples=1_000),
        figure_5_1(runs=runs, output_tuples=5_000),
        figure_5_2(runs=runs),
        figure_5_3(runs=runs),
    ]
