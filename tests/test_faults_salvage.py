"""Per-stage salvage: a fault at any stage degrades, never destroys, a run.

The executor's contract when an injected fault escapes a stage: discard the
partial stage, keep the last consistent estimate, charge the wasted time,
and either retry (``salvage="continue"``) or finish with a ``degraded``
termination (``salvage="finish"``). The tests pin a scheduled fault at every
stage index of a three-operator plan and compare against a clean run with
the same seed — valid because scheduled faults draw nothing from the fault
RNG and the session stream is untouched, so all pre-fault stages are
bit-identical to the clean run's.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultPlan
from repro.observability import RecordingSink
from repro.relational.expression import rel
from repro.relational.predicate import cmp
from repro.server.workload import demo_database
from repro.timecontrol.strategies import FixedFractionHeuristic

SEED = 77
STRATEGY = FixedFractionHeuristic(gamma=0.25)

# Three operators: two selections under a join (ISSUE's 3-operator plan).
JOIN_EXPR = (
    rel("r1")
    .where(cmp("a", "<", 8_000))
    .join(rel("r2").where(cmp("a", "<", 9_000)), on="a")
)
# One-relation selection whose per-stage estimates are non-trivial, for
# asserting the *value* of the preserved estimate.
SEL_EXPR = rel("r1").where(cmp("a", "<", 6_000))


@pytest.fixture(scope="module")
def db():
    return demo_database(seed=11, tuples=600, analyze=False)


def run(db, expr, quota, fault_plan=None, sink=None, **kwargs):
    return db.estimate(
        expr,
        quota=quota,
        seed=SEED,
        strategy=STRATEGY,
        fault_plan=fault_plan,
        sink=sink,
        **kwargs,
    )


def stage_rows(sink):
    return [
        (e.stage, e.fraction, e.duration, e.blocks_read, e.estimate_value)
        for e in sink.of_kind("stage_end")
    ]


class TestFaultAtEveryStage:
    @pytest.mark.parametrize("fail_stage", [1, 2, 3])
    def test_finish_salvage_keeps_last_consistent_estimate(
        self, db, fail_stage
    ):
        clean_sink = RecordingSink()
        clean = run(db, JOIN_EXPR, quota=6.0, sink=clean_sink)
        assert clean.stages >= 3  # the parametrization covers real stages

        sink = RecordingSink()
        plan = FaultPlan(fail_stages=(fail_stage,), salvage="finish")
        result = run(db, JOIN_EXPR, quota=6.0, fault_plan=plan, sink=sink)

        # Degraded, not destroyed: the fault never reaches the caller.
        assert result.degraded
        assert result.report.termination == "degraded"
        assert result.faulted
        (fault,) = result.faults
        assert fault.stage == fail_stage
        assert fault.action == "finish"
        assert fault.fault_kind == "read_error"
        assert fault.relation in ("r1", "r2")
        assert fault.block_id is not None
        assert fault.wasted_seconds > 0
        assert result.report.wasted_seconds == pytest.approx(
            fault.wasted_seconds
        )

        # Every completed stage is bit-identical to the clean run's.
        assert result.stages == fail_stage - 1
        assert stage_rows(sink) == stage_rows(clean_sink)[: fail_stage - 1]

        # The last consistent estimate survives the fault.
        if fail_stage == 1:
            assert result.estimate is None
        else:
            previous = clean_sink.of_kind("stage_end")[fail_stage - 2]
            assert result.estimate.value == previous.estimate_value

        # One injected-fault event (scheduled), one salvage event.
        (injected,) = sink.of_kind("fault_injected")
        assert injected.scheduled and injected.stage == fail_stage
        (salvaged,) = sink.of_kind("fault_salvaged")
        assert salvaged.action == "finish"
        assert salvaged.wasted_seconds == pytest.approx(fault.wasted_seconds)

    @pytest.mark.parametrize("fail_stage", [1, 2, 3])
    def test_continue_salvage_retries_and_completes(self, db, fail_stage):
        plan = FaultPlan(fail_stages=(fail_stage,), salvage="continue")
        sink = RecordingSink()
        result = run(db, JOIN_EXPR, quota=6.0, fault_plan=plan, sink=sink)

        # Scheduled faults hit only a stage's first attempt, so one retry
        # clears it and the run completes normally.
        assert not result.degraded
        assert result.estimate is not None
        (fault,) = result.faults
        assert fault.stage == fail_stage
        assert fault.action == "retry"
        assert fault.wasted_seconds > 0
        (salvaged,) = sink.of_kind("fault_salvaged")
        assert salvaged.action == "retry"


class TestEstimatePreservation:
    def test_preserved_estimate_equals_prior_stage_value(self, db):
        clean_sink = RecordingSink()
        clean = run(db, SEL_EXPR, quota=3.0, sink=clean_sink)
        assert clean.stages >= 3
        ends = clean_sink.of_kind("stage_end")
        assert any(e.estimate_value for e in ends)  # non-trivial values

        plan = FaultPlan(fail_stages=(3,), salvage="finish")
        result = run(db, SEL_EXPR, quota=3.0, fault_plan=plan)
        assert result.degraded
        assert result.estimate is not None
        assert result.estimate.value == ends[1].estimate_value

    def test_pre_fault_stages_identical_on_continue(self, db):
        clean_sink = RecordingSink()
        run(db, SEL_EXPR, quota=3.0, sink=clean_sink)
        sink = RecordingSink()
        plan = FaultPlan(fail_stages=(2,), salvage="continue")
        result = run(db, SEL_EXPR, quota=3.0, fault_plan=plan, sink=sink)
        assert not result.degraded
        # Stage 1 ran before the fault: bit-identical to the clean run.
        assert stage_rows(sink)[0] == stage_rows(clean_sink)[0]


class TestRetryExhaustion:
    def test_persistent_fault_exhausts_retries_and_degrades(self, db):
        # p=1 read errors defeat every attempt; three consecutive failures
        # of the same stage end the run with what it has (here: nothing).
        plan = FaultPlan(read_error_prob=1.0, salvage="continue")
        result = run(db, SEL_EXPR, quota=3.0, fault_plan=plan)
        assert result.degraded
        assert result.estimate is None
        assert [f.action for f in result.faults] == [
            "retry",
            "retry",
            "finish",
        ]
        assert all(f.stage == 1 for f in result.faults)
        assert result.report.wasted_seconds == pytest.approx(
            sum(f.wasted_seconds for f in result.faults)
        )

    def test_wasted_time_is_charged_not_refunded(self, db):
        clean = run(db, SEL_EXPR, quota=3.0)
        plan = FaultPlan(fail_stages=(2,), salvage="continue")
        faulted = run(db, SEL_EXPR, quota=3.0, fault_plan=plan)
        # The retried stage's first attempt burned quota: the faulted run
        # cannot have done more within-quota work than the clean one.
        assert faulted.report.wasted_seconds > 0
        clean_spent = sum(s.duration for s in clean.report.stages)
        faulted_spent = (
            sum(s.duration for s in faulted.report.stages)
            + faulted.report.wasted_seconds
        )
        assert faulted.stages <= clean.stages
        assert faulted_spent <= clean_spent + faulted.report.wasted_seconds
