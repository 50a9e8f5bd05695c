"""Risk versus ``d_β``: the overspend frequency the risk margin promises.

Equation 3.3 inflates each operator's selectivity by ``d_β`` standard
deviations so that ``P(sel⁺ ≥ sel_i) ≈ 1 − β``: a larger ``d_β`` must buy a
lower risk of overspending the quota. This runs the paper's three
evaluation tables (Figures 5.1–5.3) at 400 seeded runs per cell and
asserts

* **the shape** — the ``d_β = 0`` cell has the highest risk, and where that
  risk is at least 10 %, every ``d_β ≥ 24`` cell is at most half of it;
* **the level** — every cell stays within 3 percentage points of the risk
  recorded in ``tests/data/risk_vs_dbeta.json``, together with the commit it
  was recorded at. A change to stage sizing, the cost model or the
  selectivity margin that moves the curve fails here, not in a prose table.

Re-record with ``PYTHONPATH=src python tests/statistical/test_risk_vs_dbeta.py``
only when a change of the curve is intended.
"""

from __future__ import annotations

import json
import subprocess
from functools import lru_cache
from pathlib import Path

import pytest

from repro.experiments.formatting import PAPER_COLUMNS
from repro.experiments.tables import figure_5_1, figure_5_2, figure_5_3

RUNS = 400
RECORDED = Path(__file__).resolve().parents[1] / "data" / "risk_vs_dbeta.json"
FIGURES = {"5.1": figure_5_1, "5.2": figure_5_2, "5.3": figure_5_3}
TOLERANCE_PP = 3.0


@lru_cache(maxsize=None)
def risk_curve(figure: str) -> dict[float, float]:
    """``d_β`` → risk % of one figure's table, as the table prints it."""
    table = FIGURES[figure](runs=RUNS)
    risk = PAPER_COLUMNS.index("risk%")
    return {float(row[0]): float(row[risk]) for row in table.rows}


@pytest.mark.parametrize("figure", FIGURES)
def test_risk_falls_as_d_beta_grows(figure):
    curve = risk_curve(figure)
    at_zero = curve[0.0]
    assert at_zero == max(curve.values()), curve
    if at_zero >= 10.0:
        for d_beta, risk in curve.items():
            if d_beta >= 24:
                assert risk <= at_zero / 2, (d_beta, curve)


@pytest.mark.parametrize("figure", FIGURES)
def test_risk_stays_at_the_recorded_level(figure):
    data = json.loads(RECORDED.read_text())
    assert data["runs"] == RUNS
    expected = {float(k): v for k, v in data["risk_pct"][figure].items()}
    curve = risk_curve(figure)
    assert curve.keys() == expected.keys()
    for d_beta, risk in curve.items():
        assert abs(risk - expected[d_beta]) <= TOLERANCE_PP, (
            f"Figure {figure}, d_beta={d_beta:g}: risk {risk:g}% vs "
            f"{expected[d_beta]:g}% recorded at {data['commit'][:10]}"
        )


def _record() -> None:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    data = {
        "commit": commit,
        "runs": RUNS,
        "risk_pct": {
            figure: {f"{d:g}": risk for d, risk in risk_curve(figure).items()}
            for figure in FIGURES
        },
    }
    RECORDED.write_text(json.dumps(data, indent=1) + "\n")
    print(f"recorded {RECORDED}")


if __name__ == "__main__":
    _record()
