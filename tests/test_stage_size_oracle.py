"""Stage sizing against a brute-force oracle of Figure 3.4's rule.

``Sample-Size-Determine`` bisects the integer stage size ``k ∈ [1, k_max]``:
``k`` blocks of the plan's largest operand, handed to the engine as
``f = k / D_max``. The rule it applies to the sizes it visits is Figure
3.4's own:

* nothing left, or even ``k = 1`` over the budget → no stage;
* ``k_max`` (everything left) within the budget → take it;
* a size whose predicted cost is within ``ε`` of the budget, on either
  side → take it;
* otherwise the largest size under the budget.

The oracle prices *every* ``k ∈ [1, k_max]`` with the strategy's own cost
(``predict_stage`` for One-at-a-Time, ``μ_t + d_α·σ`` for Single-Interval)
at each stage of whole runs and asserts the answer exactly: a size inside
the ``ε`` window when one exists strictly between 1 and ``k_max``, else the
largest size under the budget; and at most ``⌈log₂ k_max⌉`` loop
iterations. For a cost that never falls as ``k`` grows the bisection cannot
miss the window — it holds the last size under the budget or the first one
over it, and the search visits both. The cost can fall near ``k_max``
(the finite-population factor takes ``Var(sel)`` to 0 as a stage takes all
that is left, and ``sel⁺`` with it), so the oracle does not assume it
never falls: it checks the rule itself. The runs cover selection /
intersection / join / three-term union plans, a plan with an exhausted
scan, a run parked and resumed at every stage boundary and a run salvaged
after faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, QueryOptions
from repro.engine.nodes import MEAN_SELECTIVITY
from repro.engine.plan import StagedPlan
from repro.faults.plan import FaultPlan
from repro.observability import RecordingSink
from repro.relational.expression import intersect, join, rel, select, union
from repro.relational.predicate import cmp
from repro.server.workload import demo_database
from repro.timecontrol.sample_size import EPSILON_RATIO
from repro.timecontrol.strategies import OneAtATimeInterval, SingleInterval
from repro.workloads.generators import paper_schema
from repro.workloads.paper import (
    make_intersection_setup,
    make_join_setup,
    make_selection_setup,
)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sizing:
    """One ``choose_fraction`` call: every size priced, and the choice."""

    stage: int
    costs: tuple[float, ...]  # costs[k - 1] = predicted cost of size k
    budget: float
    epsilon: float
    chosen: int | None
    iterations: int


def allowed(sizing: Sizing) -> tuple[str, set]:
    """``(exit, sizes)``: which way the rule decides, and the sizes it allows."""
    costs, budget = sizing.costs, sizing.budget
    k_max = len(costs)
    if k_max == 0 or budget <= 0 or costs[0] > budget:
        return "none", {None}
    if costs[-1] <= budget:
        return "all", {k_max}
    window = {
        k
        for k in range(2, k_max)
        if abs(costs[k - 1] - budget) <= sizing.epsilon
    }
    if window:
        return "window", window
    under = max(k for k in range(1, k_max + 1) if costs[k - 1] <= budget)
    return "largest", {under}


@dataclass(frozen=True)
class _Checked:
    """Records a :class:`Sizing` per stage in ``sizings``, a list beside the
    strategy's frozen parameters, pricing sizes 1 … ``k_max``."""

    sizings: list[Sizing] = field(default_factory=list, compare=False, repr=False)

    def choose_fraction(self, plan, remaining_seconds, stages):
        unit = max(scan.relation.block_count for scan in plan.scans)
        assert plan.max_block_count == unit
        k_max = plan.max_stage_size()
        if k_max:
            # At k_max every scan draws everything it has left.
            for scan in plan.scans:
                drawn = scan._blocks_for(k_max / unit)
                assert drawn == scan.sampler.remaining_blocks
        price = self._price(plan)
        costs = tuple(price(k / unit) for k in range(1, k_max + 1))
        budget = self._budget(plan, remaining_seconds)
        fraction = super().choose_fraction(plan, remaining_seconds, stages)
        choice = plan.sink.events[-1]
        assert choice.kind == "fraction_chosen" and choice.fraction == fraction
        chosen = None if fraction is None else round(fraction * unit)
        if fraction is not None:
            assert fraction == chosen / unit
        self.sizings.append(
            Sizing(
                len(stages) + 1,
                costs,
                budget,
                EPSILON_RATIO * budget,
                chosen,
                choice.bisection_iterations,
            )
        )
        return fraction


@dataclass(frozen=True)
class CheckedOneAtATime(_Checked, OneAtATimeInterval):
    def _price(self, plan):
        provider = self.sel_provider()
        return lambda f: plan.predict_stage(f, provider)


@dataclass(frozen=True)
class CheckedSingleInterval(_Checked, SingleInterval):
    def _price(self, plan):
        return self._margin_curve(plan)


STRATEGIES = {
    "d_beta=0": (CheckedOneAtATime, {"d_beta": 0.0}),
    "d_beta=12": (CheckedOneAtATime, {"d_beta": 12.0}),
    "d_beta=24": (CheckedOneAtATime, {"d_beta": 24.0}),
    "d_beta=72": (CheckedOneAtATime, {"d_beta": 72.0}),
    "d_alpha=0": (CheckedSingleInterval, {"d_alpha": 0.0}),
    "d_alpha=2": (CheckedSingleInterval, {"d_alpha": 2.0}),
}


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
TUPLES = 2_000  # 400 blocks a relation


@dataclass(frozen=True)
class Scenario:
    """A database, a query and the quotas to run it under."""

    database: Database
    query: object
    quotas: tuple[float, ...]
    options: dict = field(default_factory=dict)
    suspend: bool = False  # park at every stage boundary, resume at once


def _paper(setup, *quotas):
    options = {}
    if setup.initial_selectivities:
        options["initial_selectivities"] = setup.initial_selectivities
    return Scenario(setup.database, setup.query, quotas, options)


def _demo():
    return demo_database(seed=5, tuples=TUPLES)


def _lopsided():
    """``tiny`` (2 blocks) is exhausted after two stages; ``r1`` is not."""
    db = _demo()
    rows = [(i, i % 50, i, "x" * 8) for i in range(10)]
    db.create_relation("tiny", paper_schema(), rows)
    return db


@lru_cache(maxsize=None)
def scenario(name: str) -> Scenario:
    n = TUPLES
    if name == "selection":
        setup = make_selection_setup(output_tuples=n // 10, tuples=n, seed=1)
        return _paper(setup, 0.05, 10.0, 40.0, 1e4)
    if name == "intersection":
        setup = make_intersection_setup(common_tuples=n, tuples=n, seed=1)
        return _paper(setup, 0.05, 2.5, 60.0, 1e4)
    if name == "join":
        return _paper(make_join_setup(tuples=n, seed=1), 0.05, 10.0, 1e5)
    if name == "union3":
        # A ∪ B = A + B − A∩B: three terms over the two shared scans.
        query = union(
            select(rel("r1"), cmp("a", "<", 900)),
            select(rel("r2"), cmp("a", "<", 400)),
        )
        return Scenario(_demo(), query, (4.0, 30.0))
    if name == "exhausted_scan":
        query = join(rel("tiny"), rel("r1"), on=["a"])
        return Scenario(_lopsided(), query, (6.0, 20.0))
    if name == "resumed":
        query = intersect(rel("r1"), rel("r2"))
        return Scenario(_demo(), query, (8.0,), suspend=True)
    if name == "salvaged":
        query = select(rel("r1"), cmp("a", "<", 600))
        faults = FaultPlan(fail_stages=(2, 3), read_error_prob=0.01)
        return Scenario(_demo(), query, (6.0, 20.0), {"fault_plan": faults})
    raise KeyError(name)


SCENARIOS = (
    "selection",
    "intersection",
    "join",
    "union3",
    "exhausted_scan",
    "resumed",
    "salvaged",
)


def _suspend_at_every_boundary():
    last = [-1]

    def checkpoint(report):
        stages = len(report.stages)
        if stages != last[0]:
            last[0] = stages
            return True
        return False

    return checkpoint


def run(case: Scenario, quota: float, strategy, seed: int = 7):
    """One session; returns ``(report, resumes)``."""
    session = case.database.open_session(
        case.query,
        quota=quota,
        seed=seed,
        options=QueryOptions(strategy=strategy, sink=RecordingSink(), **case.options),
    )
    if not case.suspend:
        return session.run().report, 0
    checkpoint = _suspend_at_every_boundary()
    result = session.run(checkpoint=checkpoint)
    resumes = 0
    while result is None:
        resumes += 1
        result = session.resume(checkpoint=checkpoint)
    return result.report, resumes


# ----------------------------------------------------------------------
# The chosen size is the rule's
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy_name", STRATEGIES)
@pytest.mark.parametrize("name", SCENARIOS)
def test_chosen_size_is_the_rules(name, strategy_name):
    cls, kwargs = STRATEGIES[strategy_name]
    case = scenario(name)
    for quota in case.quotas:
        strategy = cls(**kwargs)
        report, resumes = run(case, quota, strategy)
        assert strategy.sizings, (name, quota)
        for sizing in strategy.sizings:
            exit_, sizes = allowed(sizing)
            assert sizing.chosen in sizes, (name, quota, sizing.stage, exit_)
            k_max = len(sizing.costs)
            bound = math.ceil(math.log2(k_max)) if k_max else 0
            assert sizing.iterations <= bound, (name, quota, sizing.stage)
        if case.suspend:
            assert resumes >= 1  # the run really was parked and resumed


def test_the_sweep_reaches_every_exit_and_every_plan_state():
    exits = set()
    for name in SCENARIOS:
        case = scenario(name)
        for quota in case.quotas:
            strategy = CheckedOneAtATime(d_beta=24.0)
            report, _ = run(case, quota, strategy)
            exits.update(allowed(sizing)[0] for sizing in strategy.sizings)
            if name == "salvaged":
                assert report.faults  # choose_fraction re-entered after restore
            if name == "exhausted_scan":
                # ``tiny`` has two blocks, one drawn per stage: stage 3 is
                # sized with that scan exhausted.
                assert len(report.stages) >= 3
    assert exits == {"none", "all", "window", "largest"}


# ----------------------------------------------------------------------
# The premise: QCOST is a function of the blocks each scan draws
# ----------------------------------------------------------------------
def _frozen(token):
    """A snapshot token as plain comparable data (objects by identity)."""
    if isinstance(token, dict):
        return tuple((key, _frozen(value)) for key, value in token.items())
    if isinstance(token, (list, tuple)):
        return tuple(_frozen(item) for item in token)
    if token is None or isinstance(token, (bool, int, float, str)):
        return token
    return id(token)  # nodes, column batches, arrays: replaced, never mutated


@lru_cache(maxsize=None)
def warmed_plan(name: str) -> StagedPlan:
    """A plan two stages in (``predict_stage`` must not move it)."""
    case = scenario(name)
    session = case.database.open_session(
        case.query, quota=1e6, seed=3, options=QueryOptions(**case.options)
    )
    for _ in range(2):
        session.plan.advance_stage(0.004)
    return session.plan


PROVIDERS = {
    "sel_plus": OneAtATimeInterval(d_beta=24.0).sel_provider(),
    "mean": MEAN_SELECTIVITY,
}


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("name", ["join", "union3", "exhausted_scan"])
@settings(max_examples=60, deadline=None)
@given(
    blocks=st.integers(min_value=1, max_value=400),
    nudge_1=st.floats(min_value=-0.49, max_value=0.49),
    nudge_2=st.floats(min_value=-0.49, max_value=0.49),
)
def test_equal_allotments_price_identically(
    name, provider, blocks, nudge_1, nudge_2
):
    """Two fractions that draw the same blocks from every scan get the same
    bits — which is why, where every scan has ``D_max`` blocks, the sizes
    ``k / D_max`` reach every stage a real-valued fraction could."""
    plan = warmed_plan(name)
    f_1 = max((blocks + nudge_1) / plan.max_block_count, 1e-9)
    f_2 = max((blocks + nudge_2) / plan.max_block_count, 1e-9)
    allotment = [scan._blocks_for(f_1) for scan in plan.scans]
    if allotment != [scan._blocks_for(f_2) for scan in plan.scans]:
        return  # a smaller relation rounded the other way
    before = _frozen(plan.snapshot())
    cost_1 = plan.predict_stage(f_1, PROVIDERS[provider])
    cost_2 = plan.predict_stage(f_2, PROVIDERS[provider])
    assert cost_1 == cost_2  # the very same float, not approximately
    assert _frozen(plan.snapshot()) == before
