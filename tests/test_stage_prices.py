"""Recorded stage prices, stage by stage, through whole runs.

Sample-Size-Determine prices candidate stage sizes with the adaptive cost
model. This module runs a fixed set of plans — the three paper shapes, a
three-term union, a projection, a plan with an exhausted scan, a run parked
and resumed at every stage boundary and a run salvaged after faults —
under both statistical strategies, and at every ``choose_fraction`` call
records:

* the price of a grid of stage sizes ``k`` under both strategies' costs
  (``QCOST(k / D_max, SEL⁺)`` for One-at-a-Time, ``μ_t + d_α·σ`` for
  Single-Interval);
* ``predicted_stage_costs`` of the plan, itemised per staged node;
* the stage budget and the size the strategy chose.

Prices must match ``tests/data/stage_prices.json`` to 1e-12 relative and
the chosen sizes exactly. Each case builds its own database, so a record
does not depend on which cases ran first.

Re-record (only when a behaviour change is intended and reviewed)::

    PYTHONPATH=src python tests/test_stage_prices.py
"""

from __future__ import annotations

import gc
import json
import math
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro import QueryOptions
from repro.engine.plan import StagedPlan
from repro.faults.plan import FaultPlan
from repro.planner.explain import predicted_stage_costs
from repro.relational.expression import intersect, join, project, rel, select, union
from repro.relational.predicate import cmp
from repro.server.workload import demo_database
from repro.timecontrol.strategies import OneAtATimeInterval, SingleInterval
from repro.workloads.generators import paper_schema
from repro.workloads.paper import (
    make_intersection_setup,
    make_join_setup,
    make_selection_setup,
)

RECORD = Path(__file__).parent / "data" / "stage_prices.json"
TUPLES = 2_000  # 400 blocks a relation
REL_TOL = 1e-12


def grid(k_max: int) -> list[int]:
    """Sizes 1, 2, 3, 5, 8, … (Fibonacci) up to ``k_max``, and ``k_max``."""
    sizes, a, b = [], 1, 2
    while a < k_max:
        sizes.append(a)
        a, b = b, a + b
    return sizes + [k_max] if k_max else []


def price_one_at_a_time(plan, fraction: float) -> float:
    return plan.predict_stage(fraction, OneAtATimeInterval(d_beta=24.0).sel_provider())


def price_single_interval(plan, fraction: float) -> float:
    return SingleInterval(d_alpha=2.0)._margin_curve(plan)(fraction)


@dataclass(frozen=True)
class _Recording:
    """Records the prices around each ``choose_fraction`` call in ``log``,
    a list beside the strategy's frozen parameters."""

    log: list[dict] = field(default_factory=list, compare=False, repr=False)

    def choose_fraction(self, plan, remaining_seconds, stages):
        unit = plan.max_block_count
        sizes = grid(plan.max_stage_size())
        costs = predicted_stage_costs(plan)
        entry = {
            "stage": len(stages) + 1,
            "sizes": sizes,
            "one_at_a_time": [price_one_at_a_time(plan, k / unit) for k in sizes],
            "single_interval": [
                price_single_interval(plan, k / unit) for k in sizes
            ],
            "cheapest": {
                "fraction": costs.fraction,
                "stage_overhead": costs.stage_overhead,
                "qcost": costs.qcost,
                "nodes": [[node.label, node.seconds] for node in costs.nodes],
            },
            "budget": self._budget(plan, remaining_seconds),
        }
        fraction = super().choose_fraction(plan, remaining_seconds, stages)
        entry["chosen"] = None if fraction is None else round(fraction * unit)
        self.log.append(entry)
        return fraction


@dataclass(frozen=True)
class RecordingOneAtATime(_Recording, OneAtATimeInterval):
    pass


@dataclass(frozen=True)
class RecordingSingleInterval(_Recording, SingleInterval):
    pass


STRATEGIES = {
    "one_at_a_time": lambda: RecordingOneAtATime(d_beta=24.0),
    "single_interval": lambda: RecordingSingleInterval(d_alpha=2.0),
}


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
def _demo():
    return demo_database(seed=5, tuples=TUPLES)


def _case(name: str):
    """``(database, query, options, suspend)`` of one named plan."""
    n = TUPLES
    paper = {
        "selection": (
            lambda: make_selection_setup(output_tuples=n // 10, tuples=n, seed=1)
        ),
        "intersection": (
            lambda: make_intersection_setup(common_tuples=n, tuples=n, seed=1)
        ),
        "join": lambda: make_join_setup(tuples=n, seed=1),
    }
    if name in paper:
        setup = paper[name]()
        options = {}
        if setup.initial_selectivities:
            options["initial_selectivities"] = setup.initial_selectivities
        return setup.database, setup.query, options, False
    if name == "union3":
        query = union(
            select(rel("r1"), cmp("a", "<", 900)),
            select(rel("r2"), cmp("a", "<", 400)),
        )
        return _demo(), query, {}, False
    if name == "project":
        query = project(select(rel("r1"), cmp("a", "<", 1_200)), ["b"])
        return _demo(), query, {}, False
    if name == "exhausted_scan":
        db = _demo()
        rows = [(i, i % 50, i, "x" * 8) for i in range(10)]
        db.create_relation("tiny", paper_schema(), rows)
        return db, join(rel("tiny"), rel("r1"), on=["a"]), {}, False
    if name == "resumed":
        return _demo(), intersect(rel("r1"), rel("r2")), {}, True
    if name == "salvaged":
        query = select(rel("r1"), cmp("a", "<", 600))
        faults = FaultPlan(fail_stages=(2, 3), read_error_prob=0.01)
        return _demo(), query, {"fault_plan": faults}, False
    raise KeyError(name)


# Plan -> quotas; 1e4 s affords every block left, so stage 1 takes it all.
PLANS = {
    "selection": (10.0, 1e4),
    "intersection": (2.5, 1e4),
    "join": (10.0,),
    "union3": (30.0,),
    "project": (20.0,),
    "exhausted_scan": (20.0,),
    "resumed": (8.0,),
    "salvaged": (20.0,),
}


def _suspend_at_every_boundary():
    last = [-1]

    def checkpoint(report):
        stages = len(report.stages)
        if stages != last[0]:
            last[0] = stages
            return True
        return False

    return checkpoint


def run(plan_name: str, quota: float, strategy_name: str) -> dict:
    """One run on a fresh database; its per-stage record."""
    database, query, options, suspend = _case(plan_name)
    strategy = STRATEGIES[strategy_name]()
    session = database.open_session(
        query,
        quota=quota,
        seed=7,
        options=QueryOptions(strategy=strategy, **options),
    )
    if suspend:
        checkpoint = _suspend_at_every_boundary()
        result = session.run(checkpoint=checkpoint)
        while result is None:
            result = session.resume(checkpoint=checkpoint)
    else:
        result = session.run()
    return {"stages": strategy.log, "termination": result.termination}


CASES = [
    f"{plan}-{quota}-{strategy}"
    for plan, quotas in PLANS.items()
    for quota in quotas
    for strategy in STRATEGIES
]


def _run_case(case: str) -> dict:
    plan_name, quota, strategy_name = case.split("-")
    return run(plan_name, float(quota), strategy_name)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), (
            where,
            got,
            want,
        )
    else:  # sizes, labels, stage numbers, chosen sizes: exactly
        assert got == want, where


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


def test_the_record_covers_every_exit(recorded):
    """Some stage takes everything left, some is infeasible, some bisects."""
    chosen = [
        (stage["chosen"], stage["sizes"][-1] if stage["sizes"] else 0)
        for case in recorded.values()
        for stage in case["stages"]
    ]
    assert any(k is None for k, _ in chosen)
    assert any(k is not None and k == k_max for k, k_max in chosen)
    assert any(k is not None and 1 <= k < k_max for k, k_max in chosen)


@pytest.mark.parametrize("case", CASES)
def test_prices_match_the_record(case, recorded):
    got = _run_case(case)
    want = recorded[case]
    # The chosen sizes first, and exactly: a flipped size is the finding.
    assert [s["chosen"] for s in got["stages"]] == [
        s["chosen"] for s in want["stages"]
    ]
    _close(got, want, case)


# ----------------------------------------------------------------------
# Freed by reference counting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy_name", STRATEGIES)
@pytest.mark.parametrize("plan_name", ["join", "union3", "project", "salvaged"])
def test_a_finished_run_frees_every_staged_node(plan_name, strategy_name, monkeypatch):
    """With the cyclic collector off, every staged node of a finished run —
    and the sorted runs and stage batches it holds — is freed as soon as
    the run's objects are dropped: stage pricing leaves no reference cycle
    behind."""
    nodes: list[weakref.ref] = []
    lower = StagedPlan.__init__

    def recording_lower(plan, *args, **kwargs):
        lower(plan, *args, **kwargs)
        nodes.extend(weakref.ref(node) for node in plan.nodes)

    monkeypatch.setattr(StagedPlan, "__init__", recording_lower)
    database, query, options, _ = _case(plan_name)
    gc.collect()
    gc.disable()
    try:
        result = database.estimate(
            query,
            quota=PLANS[plan_name][0],
            seed=7,
            options=QueryOptions(strategy=STRATEGIES[strategy_name](), **options),
        )
        assert result.report.stages and nodes
        del result
        alive = [ref() for ref in nodes if ref() is not None]
        assert not alive, [type(node).__name__ for node in alive]
    finally:
        gc.enable()


if __name__ == "__main__":
    RECORD.parent.mkdir(parents=True, exist_ok=True)
    data = {case: _run_case(case) for case in CASES}
    RECORD.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    stages = sum(len(record["stages"]) for record in data.values())
    print(f"{len(data)} runs recorded, {stages} stages")
