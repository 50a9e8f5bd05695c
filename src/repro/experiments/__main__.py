"""Command-line experiment runner.

Regenerate the paper's tables and the ablations from a shell::

    python -m repro.experiments                 # every table, 60 runs/cell
    python -m repro.experiments --runs 200      # the paper's run count
    python -m repro.experiments --only 5.1 5.3  # a subset
    python -m repro.experiments --ablations     # the A1–A9 ablations too
"""

from __future__ import annotations

import argparse
import sys
import time

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
from repro.experiments.tables import figure_5_1, figure_5_2, figure_5_3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the SIGMOD'89 evaluation tables.",
    )
    parser.add_argument(
        "--runs", type=int, default=60, help="independent runs per cell"
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="ID",
        help="table ids to run (5.1, 5.1b, 5.2, 5.3)",
    )
    parser.add_argument(
        "--ablations",
        action="store_true",
        help="also run the ten ablation tables (A1-A9, A5 in two parts)",
    )
    args = parser.parse_args(argv)

    tables = {
        "5.1": lambda: figure_5_1(runs=args.runs, output_tuples=1_000),
        "5.1b": lambda: figure_5_1(runs=args.runs, output_tuples=5_000),
        "5.2": lambda: figure_5_2(runs=args.runs),
        "5.3": lambda: figure_5_3(runs=args.runs),
    }
    selected = args.only if args.only else list(tables)
    unknown = [i for i in selected if i not in tables]
    if unknown:
        parser.error(f"unknown table ids {unknown}; choose from {list(tables)}")

    for table_id in selected:
        start = time.perf_counter()
        table = tables[table_id]()
        print(table.render())
        print(f"  [{time.perf_counter() - start:.1f}s]\n")

    if args.ablations:
        runs = max(args.runs // 2, 10)
        for build in (
            lambda: ablation_strategies(runs=runs),
            lambda: ablation_fulfillment(runs=runs),
            lambda: ablation_adaptive_cost(runs=runs),
            lambda: ablation_variance_formula(),
            lambda: ablation_estimator_quality(runs=max(runs // 2, 10)),
            lambda: ablation_distinct_estimators(runs=max(runs // 2, 10)),
            lambda: ablation_selectivity_sources(runs=runs),
            lambda: ablation_memory_resident(runs=runs),
            lambda: ablation_zero_fix(runs=runs),
            lambda: ablation_stopping(runs=runs),
        ):
            start = time.perf_counter()
            print(build().render())
            print(f"  [{time.perf_counter() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
