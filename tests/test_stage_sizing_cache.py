"""Stage sizing prices each distinct block allotment once — and nothing moves.

``Sample-Size-Determine`` (Figure 3.4) bisects on the fraction ``f``, but
``f`` reaches ``QCOST`` only through the integer blocks each scan would
draw (:meth:`StagedPlan.stage_allotment`), so the strategies look a
candidate's allotment up in a per-bisection table before calling
:meth:`StagedPlan.predict_stage`. Three things are pinned here:

* **identity** — the engine's strategies against references that are not
  an engine branch (the style of ``tests/rowwise_oracle.py``):
  :class:`UncachedOneAtATime` / :class:`UncachedSingleInterval` override
  ``choose_fraction`` alone and hand :func:`determine_fraction` the bare
  ``plan.predict_stage`` closure, every iterate priced. Same fractions,
  same ``FractionChosen`` events, same ``RunReport``, bit for bit;
* **the premise** — fractions with equal allotments get identical bits from
  ``predict_stage``, which leaves the plan's logical state untouched;
* **the work** — on the paper's three setups at the benchmark's size a
  bisection makes one ``predict_stage`` pass per distinct allotment it
  visits, at most ⌈log₂ D⌉ + 3 of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, QueryOptions
from repro.engine.nodes import PredictContext
from repro.engine.plan import StagedPlan
from repro.faults.plan import FaultPlan
from repro.observability import RecordingSink
from repro.relational.expression import intersect, join, rel, select, union
from repro.relational.predicate import cmp
from repro.server.workload import demo_database
from repro.timecontrol import strategies as strategies_module
from repro.timecontrol.sample_size import determine_fraction
from repro.timecontrol.strategies import (
    OneAtATimeInterval,
    SingleInterval,
    _BisectionCounter,
)
from repro.workloads.generators import paper_schema
from repro.workloads.paper import (
    make_intersection_setup,
    make_join_setup,
    make_selection_setup,
)


# ----------------------------------------------------------------------
# The uncached references
# ----------------------------------------------------------------------
def _bisect_every_iterate(strategy, plan, remaining_seconds, stage, cost):
    """Figure 3.4 with every iterate priced, whatever blocks it would draw."""
    budget = strategy._budget(plan, remaining_seconds)
    counter = _BisectionCounter()
    fraction = determine_fraction(
        cost=cost,
        budget_seconds=budget,
        min_fraction=plan.min_feasible_fraction(),
        max_fraction=plan.max_remaining_fraction(),
        epsilon_ratio=strategy.epsilon_ratio,
        observer=counter,
    )
    return strategy._trace_choice(
        plan, stage, fraction, budget, counter.iterations
    )


class UncachedOneAtATime(OneAtATimeInterval):
    def choose_fraction(self, plan, remaining_seconds, stage):
        provider = self.sel_provider()
        return _bisect_every_iterate(
            self,
            plan,
            remaining_seconds,
            stage,
            lambda f: plan.predict_stage(f, provider),
        )


class UncachedSingleInterval(SingleInterval):
    """Prices every iterate, searching the plan for each tracker's node."""

    def choose_fraction(self, plan, remaining_seconds, stage):
        return _bisect_every_iterate(
            self,
            plan,
            remaining_seconds,
            stage,
            lambda f: self._margin_cost(plan, f),
        )

    def _margin_cost(self, plan, fraction):
        mu = plan.predict_stage(fraction, self._mean_provider())
        if self.d_alpha == 0:
            return mu
        trackers = plan.trackers()
        grads = [
            (plan.predict_stage(fraction, self._bumped_provider(t)) - mu)
            / self._gradient_step
            for t in trackers
        ]
        variance = 0.0
        for u, tu in enumerate(trackers):
            node = self._node_of(plan, tu)
            ctx = PredictContext(fraction, self._mean_provider())
            points = max(int(node._new_points_predicted(ctx)), 1)
            var_u = (
                tu.variance(points, node.space_points())
                if tu.stages_observed and points > 0
                else 0.0
            )
            variance += grads[u] * grads[u] * var_u
            for v in range(u + 1, len(trackers)):
                cov = self._covariance(tu, trackers[v])
                variance += 2.0 * grads[u] * grads[v] * cov
        return mu + self.d_alpha * math.sqrt(max(variance, 0.0))

    @staticmethod
    def _node_of(plan, tracker):
        for term in plan.terms:
            for node in term.root.iter_nodes():
                if node.tracker is tracker:
                    return node
        raise AssertionError(f"tracker {tracker.label!r} not in plan")


STRATEGIES = {
    "d_beta=0": (OneAtATimeInterval, UncachedOneAtATime, {"d_beta": 0.0}),
    "d_beta=12": (OneAtATimeInterval, UncachedOneAtATime, {"d_beta": 12.0}),
    "d_beta=24": (OneAtATimeInterval, UncachedOneAtATime, {"d_beta": 24.0}),
    "d_beta=72": (OneAtATimeInterval, UncachedOneAtATime, {"d_beta": 72.0}),
    "d_alpha=0": (SingleInterval, UncachedSingleInterval, {"d_alpha": 0.0}),
    "d_alpha=2": (SingleInterval, UncachedSingleInterval, {"d_alpha": 2.0}),
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
    """One session; returns ``(events, report, resumes)``."""
    sink = RecordingSink()
    session = case.database.open_session(
        case.query,
        quota=quota,
        seed=seed,
        options=QueryOptions(strategy=strategy, sink=sink, **case.options),
    )
    if not case.suspend:
        return sink.events, session.run().report, 0
    checkpoint = _suspend_at_every_boundary()
    result = session.run(checkpoint=checkpoint)
    resumes = 0
    while result is None:
        resumes += 1
        result = session.resume(checkpoint=checkpoint)
    return sink.events, result.report, resumes


def choices(events):
    return [e for e in events if e.kind == "fraction_chosen"]


def comparable(report):
    """``report`` with its fault records (no ``__eq__``) as plain tuples."""
    faults = [
        tuple(getattr(fault, slot) for slot in fault.__slots__)
        for fault in report.faults
    ]
    return replace(report, faults=faults)


# ----------------------------------------------------------------------
# Identity against the uncached reference
# ----------------------------------------------------------------------
def _exit_of(choice) -> str:
    """Which way ``determine_fraction`` returned (its four exits)."""
    if choice.fraction is None:
        return "none"
    if choice.bisection_iterations == 0:
        return "max_fraction"
    # 48 = determine_fraction's max_iterations; a hit on that very iterate is
    # indistinguishable from the cap in the event, and as rare as it sounds.
    return "cap" if choice.bisection_iterations == 48 else "within_epsilon"


@pytest.mark.parametrize("strategy_name", STRATEGIES)
@pytest.mark.parametrize("name", SCENARIOS)
def test_bit_identical_to_the_uncached_bisection(name, strategy_name):
    engine, reference, kwargs = STRATEGIES[strategy_name]
    case = scenario(name)
    for quota in case.quotas:
        events, report, resumes = run(case, quota, engine(**kwargs))
        ref_events, ref_report, ref_resumes = run(
            case, quota, reference(**kwargs)
        )
        # Stage by stage: fraction, budget_seconds, bisection_iterations.
        assert choices(events) == choices(ref_events), (name, quota)
        assert events == ref_events, (name, quota)
        assert comparable(report) == comparable(ref_report), (name, quota)
        assert resumes == ref_resumes
        if case.suspend:
            assert resumes >= 1  # the run really was parked and resumed


def test_the_sweep_reaches_every_exit_and_every_plan_state():
    exits = set()
    for name in SCENARIOS:
        case = scenario(name)
        for quota in case.quotas:
            events, report, _ = run(case, quota, OneAtATimeInterval(d_beta=24.0))
            exits.update(_exit_of(choice) for choice in choices(events))
            if name == "salvaged":
                assert report.faults  # choose_fraction re-entered after restore
            if name == "exhausted_scan":
                # ``tiny`` has two blocks, one drawn per stage: stage 3 is
                # sized with that scan exhausted.
                assert len(report.stages) >= 3
    assert exits == {"none", "max_fraction", "within_epsilon", "cap"}


# ----------------------------------------------------------------------
# The premise: QCOST is a function of the stage allotment
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
    "mean": SingleInterval._mean_provider(),
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
    plan = warmed_plan(name)
    largest = max(scan.relation.block_count for scan in plan.scans)
    f_1 = max((blocks + nudge_1) / largest, 1e-9)
    f_2 = max((blocks + nudge_2) / largest, 1e-9)
    allotment = plan.stage_allotment(f_1)
    assert allotment == tuple(scan._blocks_for(f_1) for scan in plan.scans)
    if allotment != plan.stage_allotment(f_2):
        return  # a smaller relation rounded the other way
    before = _frozen(plan.snapshot())
    cost_1 = plan.predict_stage(f_1, PROVIDERS[provider])
    cost_2 = plan.predict_stage(f_2, PROVIDERS[provider])
    assert cost_1 == cost_2  # the very same float, not approximately
    assert _frozen(plan.snapshot()) == before


# ----------------------------------------------------------------------
# The work: one predict_stage pass per distinct allotment
# ----------------------------------------------------------------------
BENCH_TUPLES = 4_000  # 800 blocks a relation, as bench/workloads.py
BENCH_QUERIES = 120
PASS_BOUND = math.ceil(math.log2(BENCH_TUPLES // 5)) + 3  # ⌈log₂ D⌉ + 3 = 13


def _bench_setup(name: str):
    n = BENCH_TUPLES
    if name == "selection":
        return make_selection_setup(output_tuples=n // 10, tuples=n, seed=1)
    if name == "intersection":
        return make_intersection_setup(common_tuples=n, tuples=n, seed=1)
    return make_join_setup(tuples=n, seed=1)


@pytest.mark.parametrize(
    "phase,name,least_saving",
    [(0, "selection", 1.5), (1, "intersection", 2.0), (2, "join", 2.0)],
)
def test_one_pass_per_distinct_allotment(monkeypatch, phase, name, least_saving):
    asked: list[float] = []  # fractions the current bisection evaluated
    passes = [0]  # StagedPlan.predict_stage calls, all bisections
    bisections: list[tuple[int, int, int]] = []

    def audited_determine_fraction(cost, **kwargs):
        def audited_cost(fraction):
            asked.append(fraction)
            return cost(fraction)

        return determine_fraction(cost=audited_cost, **kwargs)

    predict_stage = StagedPlan.predict_stage

    def counted_predict_stage(self, fraction, sel_provider):
        passes[0] += 1
        return predict_stage(self, fraction, sel_provider)

    class Audited(OneAtATimeInterval):
        def choose_fraction(self, plan, remaining_seconds, stage):
            del asked[:]
            before = passes[0]
            fraction = super().choose_fraction(plan, remaining_seconds, stage)
            distinct = {plan.stage_allotment(f) for f in asked}
            bisections.append((passes[0] - before, len(distinct), len(asked)))
            return fraction

    monkeypatch.setattr(
        strategies_module, "determine_fraction", audited_determine_fraction
    )
    monkeypatch.setattr(StagedPlan, "predict_stage", counted_predict_stage)

    setup = _bench_setup(name)
    options = QueryOptions(
        strategy=Audited(d_beta=24.0),
        initial_selectivities=setup.initial_selectivities,
    )
    for index in range(BENCH_QUERIES):
        # The benchmark's per-op session seed (bench.workloads._op_seed).
        seed = int(np.random.SeedSequence([1, phase, index]).generate_state(1)[0])
        setup.database.estimate(
            setup.query, quota=setup.quota, seed=seed, options=options
        )

    assert len(bisections) > BENCH_QUERIES
    for made, distinct, _ in bisections:
        assert made == distinct <= PASS_BOUND
    made = sum(b[0] for b in bisections)
    evaluations = sum(b[2] for b in bisections)
    assert made * least_saving <= evaluations, (made, evaluations)
