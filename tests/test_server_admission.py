"""Admission control and degraded answers (repro.server.admission/degrade).

The feasibility test is the paper's cost machinery pointed at a new
question: can the cheapest useful stage fit the budget this request will
have left at dispatch? These tests pin the pricing function, the three
policies, and the zero-sampling fallback built on prestored statistics.
"""

from __future__ import annotations

import pytest

from repro.core.database import Database
from repro.core.options import QueryOptions
from repro.errors import ReproError, TimeControlError
from repro.estimation.aggregates import avg_of, sum_of
from repro.faults.plan import FaultPlan
from repro.observability import RecordingSink
from repro.planner.explain import predicted_stage_costs
from repro.relational.expression import intersect, rel, select
from repro.relational.predicate import cmp
from repro.server.admission import (
    AdmissionAction,
    AdmitAll,
    DegradeInfeasible,
    FeasibilityReport,
    RejectInfeasible,
    minimum_stage_cost,
    projected_wait,
)
from repro.server.degrade import degraded_estimate
from repro.server.request import Outcome, QueryRequest
from repro.server.scheduler import QueryServer
from repro.server.workload import (
    demo_database,
    open_loop_requests,
    selection_mix,
)

TUPLES = 1_000


@pytest.fixture(scope="module")
def db():
    return demo_database(seed=11, tuples=TUPLES)


@pytest.fixture(scope="module")
def bare_db():
    """Same relations, never analyzed — no prestored statistics."""
    return demo_database(seed=11, tuples=TUPLES, analyze=False)


def query():
    return select(rel("r1"), cmp("a", "<", TUPLES // 2))


class TestMinimumStageCost:
    def test_positive_and_small_relative_to_a_generous_quota(self, db):
        cost = minimum_stage_cost(db.plan(query()))
        assert cost > 0
        assert cost < 10.0

    def test_probe_pricing_charges_nothing(self, db):
        plan = db.plan(query())
        minimum_stage_cost(plan)
        assert plan.charger is None  # nothing to charge, no clock to move
        assert plan.blocks_drawn() == 0

    def test_price_reflects_query_shape(self, bare_db):
        sel = minimum_stage_cost(bare_db.plan(query()))
        both = minimum_stage_cost(bare_db.plan(intersect(rel("r1"), rel("r2"))))
        assert both > sel  # two relations' minimum stage costs more than one


class TestFeasibilityReport:
    def test_budget_at_start_subtracts_projected_wait(self):
        report = FeasibilityReport(
            min_stage_cost=0.2, projected_wait=1.5, budget_now=2.0
        )
        assert report.budget_at_start == pytest.approx(0.5)

    def test_feasible_applies_safety_margin(self):
        report = FeasibilityReport(
            min_stage_cost=0.4, projected_wait=0.0, budget_now=0.5
        )
        assert report.feasible(safety_margin=1.0)
        assert not report.feasible(safety_margin=1.5)


class TestPolicies:
    def feasible_report(self):
        return FeasibilityReport(
            min_stage_cost=0.1, projected_wait=0.0, budget_now=2.0
        )

    def infeasible_report(self):
        return FeasibilityReport(
            min_stage_cost=1.0, projected_wait=1.8, budget_now=2.0
        )

    def request(self):
        return QueryRequest(expr=query(), quota=2.0)

    def test_reject_infeasible(self):
        policy = RejectInfeasible(safety_margin=1.5)
        assert (
            policy.decide(self.request(), self.feasible_report()).action
            is AdmissionAction.ADMIT
        )
        verdict = policy.decide(self.request(), self.infeasible_report())
        assert verdict.action is AdmissionAction.REJECT
        assert "infeasible" in verdict.reason

    def test_degrade_infeasible(self):
        policy = DegradeInfeasible()
        assert (
            policy.decide(self.request(), self.feasible_report()).action
            is AdmissionAction.ADMIT
        )
        verdict = policy.decide(self.request(), self.infeasible_report())
        assert verdict.action is AdmissionAction.DEGRADE
        assert "without sampling" in verdict.reason

    def test_admit_all_never_enforces(self):
        policy = AdmitAll()
        assert not policy.enforce_at_dispatch
        verdict = policy.decide(self.request(), self.infeasible_report())
        assert verdict.action is AdmissionAction.ADMIT

    def test_describe_names_the_margin(self):
        assert "1.5" in RejectInfeasible().describe()
        assert "AdmitAll" in AdmitAll().describe()


class TestDegradedEstimate:
    def test_count_from_prestored_hints(self, db):
        estimate = degraded_estimate(db, query())
        assert estimate is not None
        assert estimate.value > 0
        # The CI is deliberately wide: sized for ±100% at 95% confidence.
        assert estimate.relative_error_bound(0.95) == pytest.approx(1.0)

    def test_sum_and_avg_use_histogram_mean(self, db):
        total = degraded_estimate(db, rel("r1"), aggregate=sum_of("b"))
        mean = degraded_estimate(db, rel("r1"), aggregate=avg_of("b"))
        assert total is not None and mean is not None
        assert total.value == pytest.approx(mean.value * TUPLES, rel=1e-9)

    def test_unanalyzed_database_yields_none(self, bare_db):
        assert degraded_estimate(bare_db, query()) is None

    def test_narrower_halfwidth_respected(self, db):
        estimate = degraded_estimate(db, query(), relative_halfwidth=0.5)
        assert estimate.relative_error_bound(0.95) == pytest.approx(0.5)


class TestDegradePathThroughServer:
    def test_infeasible_request_degrades_on_analyzed_database(self, db):
        server = QueryServer(db, policy=DegradeInfeasible())
        outcome = server.serve(
            QueryRequest(expr=query(), quota=1e-4, seed=1)
        )
        assert outcome.outcome is Outcome.DEGRADED
        assert outcome.estimate is not None
        assert outcome.queue_wait == 0.0
        # Degraded answers are instant: no simulated time was consumed.
        assert server.clock.now() == 0.0

    def test_degrade_without_coverage_is_uncovered_not_rejected(self, bare_db):
        server = QueryServer(bare_db, policy=DegradeInfeasible())
        outcome = server.serve(
            QueryRequest(expr=query(), quota=1e-4, seed=1)
        )
        # A degrade decision with nothing to answer from is a coverage
        # gap — its own terminal state, distinct from admission rejection.
        assert outcome.outcome is Outcome.UNCOVERED
        assert not outcome.answered
        assert outcome.estimate is None
        assert "analyze" in outcome.reason
        assert server.metrics.count(Outcome.UNCOVERED) == 1
        assert server.metrics.count(Outcome.REJECTED) == 0


class TestQueryRequest:
    def test_validation(self):
        with pytest.raises(TimeControlError):
            QueryRequest(expr=query(), quota=0.0)
        with pytest.raises(TimeControlError):
            QueryRequest(expr=query(), quota=1.0, arrival=-1.0)

    def test_deadline_and_ids(self):
        first = QueryRequest(expr=query(), quota=2.0, arrival=3.0)
        second = QueryRequest(expr=query(), quota=2.0)
        assert first.deadline == pytest.approx(5.0)
        assert first.request_id != second.request_id
        assert first.request_id.startswith("client/")

    def test_explicit_request_id_is_kept(self):
        request = QueryRequest(expr=query(), quota=1.0, request_id="mine/1")
        assert request.request_id == "mine/1"


class TestProjectedWaitAccumulates:
    """Queue wait must be projected in dispatch order, pricing each
    ticket's spend at the clock position its turn starts — the same
    arithmetic overload shedding uses. (Regression: every spend was
    priced at a fixed ``now``, over-estimating wait and over-rejecting.)
    """

    def ticket(self, deadline, seq, quota, seed):
        from repro.server.scheduler import Ticket

        return Ticket(
            priority=0,
            deadline=deadline,
            seq=seq,
            request=QueryRequest(expr=query(), quota=quota, seed=seed),
            min_cost=0.1,
        )

    def test_two_queued_tickets_price_at_their_turns(self, db):
        # Both tickets' quotas exceed their remaining budgets, so each
        # runs to its own deadline: t1 occupies 0→2, after which t2 has
        # only 1s left to 3.0. True wait for work behind them: 3.0.
        t1 = self.ticket(deadline=2.0, seq=0, quota=5.0, seed=1)
        t2 = self.ticket(deadline=3.0, seq=1, quota=5.0, seed=2)
        arriving = QueryRequest(expr=query(), quota=3.5, seed=3)
        wait = projected_wait(arriving, [t1, t2], now=0.0)
        assert wait == pytest.approx(3.0)
        # The pre-fix formula summed both spends at now=0 — 2s + 3s = 5s
        # of phantom wait, 2s of which t2 can never actually use.
        stale = sum(t.planned_spend(0.0) for t in (t1, t2))
        assert stale == pytest.approx(5.0)

    def test_corrected_projection_admits_where_stale_rejected(self, db):
        t1 = self.ticket(deadline=2.0, seq=0, quota=5.0, seed=1)
        t2 = self.ticket(deadline=3.0, seq=1, quota=5.0, seed=2)
        arriving = QueryRequest(expr=query(), quota=3.5, seed=3)
        wait = projected_wait(arriving, [t1, t2], now=0.0)
        stale = sum(t.planned_spend(0.0) for t in (t1, t2))
        policy = RejectInfeasible()
        min_cost = 0.2  # far below the 0.5s budget the request keeps
        corrected = FeasibilityReport(
            min_stage_cost=min_cost, projected_wait=wait, budget_now=3.5
        )
        regressed = FeasibilityReport(
            min_stage_cost=min_cost, projected_wait=stale, budget_now=3.5
        )
        assert (
            policy.decide(arriving, corrected).action
            is AdmissionAction.ADMIT
        )
        assert (
            policy.decide(arriving, regressed).action
            is AdmissionAction.REJECT
        )

    def test_projection_includes_a_non_preemptable_runner(self, db):
        # At a preemption checkpoint the mid-flight ticket precedes any
        # arrival that cannot preempt it (no strictly-earlier key)...
        running = self.ticket(deadline=2.0, seq=0, quota=5.0, seed=1)
        arriving = QueryRequest(expr=query(), quota=3.5, seed=2)
        wait = projected_wait(arriving, [], now=0.0, running=running)
        assert wait == pytest.approx(2.0)

    def test_projection_excludes_a_preemptable_runner(self, db):
        # ...while an arrival whose key would preempt the runner does not
        # wait for it at all.
        running = self.ticket(deadline=9.0, seq=0, quota=5.0, seed=1)
        arriving = QueryRequest(expr=query(), quota=3.5, seed=2)
        wait = projected_wait(arriving, [], now=0.0, running=running)
        assert wait == pytest.approx(0.0)


class TestPricingPlan:
    """Admission and explain price a plan that holds no RNG; only a
    dispatch attempt opens a session."""

    def test_one_session_per_dispatch_attempt(self, monkeypatch):
        opened = []
        open_session = Database.open_session

        def counting(self, *args, **kwargs):
            opened.append(args[0])
            return open_session(self, *args, **kwargs)

        monkeypatch.setattr(Database, "open_session", counting)
        sink = RecordingSink()
        # Every first stage faults and salvage ends the run empty, so each
        # dispatched request is retried once.
        lethal = FaultPlan(fail_stages=(1,), salvage="finish")
        server = QueryServer(
            demo_database(seed=11, tuples=TUPLES),
            policy=DegradeInfeasible(),
            sink=sink,
            options=QueryOptions(fault_plan=lethal),
            max_fault_retries=1,
        )
        outcomes = server.process(
            [
                QueryRequest(expr=query(), quota=5.0, seed=1),
                QueryRequest(expr=query(), quota=1e-6, seed=2, arrival=0.1),
                QueryRequest(expr=rel("nope"), quota=5.0, seed=3, arrival=0.2),
                QueryRequest(
                    expr=intersect(rel("r1"), rel("r2")),
                    quota=5.0,
                    seed=4,
                    arrival=0.3,
                ),
            ]
        )
        assert len(outcomes) == 4
        attempts = len(sink.of_kind("request_started")) + len(
            sink.of_kind("request_retried")
        )
        assert len(sink.of_kind("request_retried")) == 2
        assert len(opened) == attempts == 4

    @pytest.mark.parametrize("pricing", ["plan", "explain"])
    def test_pricing_leaves_the_seed_sequence_untouched(self, pricing):
        priced = demo_database(seed=11, tuples=TUPLES)
        getattr(priced, pricing)(query())
        fresh = demo_database(seed=11, tuples=TUPLES)
        after = priced.open_session(query(), quota=2.0)
        expected = fresh.open_session(query(), quota=2.0)
        assert after.run().estimate == expected.run().estimate
        (scan,), (fresh_scan,) = after.plan.scans, expected.plan.scans
        assert scan.sampler.drawn_block_ids == fresh_scan.sampler.drawn_block_ids

    def test_a_priced_plan_cannot_run(self, db):
        plan = db.plan(query())
        with pytest.raises(ReproError, match="priced, not run"):
            plan.advance_stage(0.1)

    @pytest.mark.parametrize("synopses", [False, True])
    @pytest.mark.parametrize(
        "expr",
        [
            query(),
            select(intersect(rel("r1"), rel("r2")), cmp("a", "<", TUPLES // 2)),
        ],
        ids=["select", "select-over-intersect"],
    )
    def test_plan_prices_like_the_session_it_will_open(
        self, expr, synopses
    ):
        db = demo_database(seed=11, tuples=TUPLES)
        options = QueryOptions(synopses=synopses)
        db.estimate(expr, quota=5.0, seed=3, options=options)  # warm catalog
        cost_model = db.default_cost_model()
        plan = db.plan(expr, options, cost_model=cost_model)
        session = db.open_session(expr, 5.0, options, cost_model=cost_model)
        assert predicted_stage_costs(plan) == predicted_stage_costs(session.plan)
        assert minimum_stage_cost(plan) > 0


# ---------------------------------------------------------------------------
# The overload floor: admission on vs off
# ---------------------------------------------------------------------------
# One open-loop request stream at 2x the service capacity (simulated clock)
# served with admission on — infeasible work turned away at the door, doomed
# queued work shed — and off, where server time burns on requests whose
# budgets evaporated in the queue.
OVERLOAD_TUPLES = 2_000
OVERLOAD_REQUESTS = 60
OVERLOAD_SEED = 7


def serve_overload(policy) -> QueryServer:
    server = QueryServer(
        demo_database(seed=OVERLOAD_SEED, tuples=OVERLOAD_TUPLES), policy=policy
    )
    server.process(
        open_loop_requests(
            count=OVERLOAD_REQUESTS,
            quota=2.0,
            overload=2.0,
            make_query=selection_mix(OVERLOAD_TUPLES),
            tuples=OVERLOAD_TUPLES,
            seed=OVERLOAD_SEED,
        )
    )
    return server


def overload_summary(server: QueryServer) -> str:
    outcomes = {o.value: n for o, n in server.metrics.outcomes.items() if n}
    return (
        f"hit ratio among admitted {server.metrics.hit_ratio_admitted}, "
        f"outcomes {outcomes} in {server.clock.now():.1f} simulated s"
    )


def test_admission_control_protects_deadlines_under_overload():
    on = serve_overload(RejectInfeasible())
    off = serve_overload(AdmitAll())
    hit_on = on.metrics.hit_ratio_admitted
    hit_off = off.metrics.hit_ratio_admitted
    measured = f"admission on: {overload_summary(on)}; off: {overload_summary(off)}"
    # Admitted requests keep their deadlines...
    assert hit_on is not None and hit_on >= 0.95, measured
    # ...and the uncontrolled baseline measurably misses.
    assert hit_off is not None and hit_off < hit_on, measured
    # Every request ended in a typed outcome in both arms.
    assert on.metrics.completed == OVERLOAD_REQUESTS
    assert off.metrics.completed == OVERLOAD_REQUESTS
