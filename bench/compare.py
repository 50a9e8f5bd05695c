"""``python3 -m bench.compare A B`` — do two sets of runs agree?

``A`` (the base) and ``B`` are each a result file written by a timed run
(``<workload>-seed<S>-timed.json``) or a directory of them. For every
workload and end-to-end metric the tool prints both medians with their
quartiles, the ratio B/A with its base, how much worse B is in the metric's
own direction, the bound from ``BENCHMARK.json`` and a verdict:

``ok``          B is not worse than A by more than the bound;
``regressed``   it is;
``unresolved``  either set's own spread (quartile distance over median) is
                wider than the bound, so the sets cannot tell — unless
                every run of B reads better than every run of A.

The last column says whether the runs of equal seed read exactly the same
in A and B, which the simulated-clock metrics must.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench.protocol import spec


def load(path: Path) -> dict[str, dict[int, dict[str, float]]]:
    """``{workload: {seed: {metric: value}}}`` from a file or a directory."""
    files = sorted(path.glob("*-timed.json")) if path.is_dir() else [path]
    if not files:
        sys.exit(f"no *-timed.json result files in {path}")
    runs: dict[str, dict[int, dict[str, float]]] = {}
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if record.get("trace"):
            sys.exit(f"{file} is a traced run; compare takes timed runs")
        seed = record["environment"]["seed"]
        runs.setdefault(record["workload"], {})[seed] = {
            name: metric["value"] for name, metric in record["metrics"].items()
        }
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    base: list[float], new: list[float], better: str, bound: float
) -> tuple[str, float]:
    """``(verdict, worse)``: ``worse`` is the share of the base median by
    which the new median is worse (negative when it is better)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = quartiles(base)[1]
    new_median = quartiles(new)[1]
    worse = sign * (new_median - base_median) / abs(base_median)
    if max(spread(base), spread(new)) > bound:
        all_better = (
            max(new) < min(base) if better == "lower" else min(new) > max(base)
        )
        return ("ok" if all_better else "unresolved"), worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(base_path: Path, new_path: Path) -> int:
    declared = spec()["end_to_end"]
    base_runs, new_runs = load(base_path), load(new_path)
    header = (
        f"{'workload':<13} {'metric':<21} {'unit':<9} "
        f"{'A median [q1, q3]':<36} {'B median [q1, q3]':<36} "
        f"{'B/A (base A)':<24} {'worse':>8} {'bound':>6}  verdict     same"
    )
    print(header)
    regressed = 0
    for workload in base_runs:
        if workload not in new_runs:
            print(f"{workload:<13} missing from {new_path}")
            continue
        for metric in declared:
            name = metric["name"]
            a = base_runs[workload]
            b = new_runs[workload]
            base = [run[name] for run in a.values()]
            new = [run[name] for run in b.values()]
            word, worse = verdict(base, new, metric["better"], metric["bound"])
            regressed += word == "regressed"
            shared = a.keys() & b.keys()
            same = bool(shared) and all(a[s][name] == b[s][name] for s in shared)
            a_q1, a_median, a_q3 = quartiles(base)
            b_q1, b_median, b_q3 = quartiles(new)
            print(
                f"{workload:<13} {name:<21} {metric['unit']:<9} "
                f"{f'{a_median:.5g} [{a_q1:.5g}, {a_q3:.5g}]':<36} "
                f"{f'{b_median:.5g} [{b_q1:.5g}, {b_q3:.5g}]':<36} "
                f"{f'{b_median / a_median:.4f} (of {a_median:.5g})':<24} "
                f"{worse:>+8.2%} {metric['bound']:>6.0%}  {word:<11} "
                f"{'yes' if same else 'no'}"
            )
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench.compare", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("base", type=Path, help="result file or directory (A)")
    parser.add_argument("new", type=Path, help="result file or directory (B)")
    args = parser.parse_args(argv)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
