"""Server-side fault handling: retry within budget, degrade, never raise.

The scheduler's extension of the total contract under injected faults:
transient fault losses get one (configurable) deterministic re-execution
with a capped backoff charged to the request's own budget; runs that faults
defeat entirely fall back to the zero-sampling degraded answer when
prestored statistics allow it; and every retry is a registered trace event.
"""

from __future__ import annotations

import pytest

from repro.core.options import QueryOptions
from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.observability import RecordingSink
from repro.relational.expression import intersect, rel, select
from repro.relational.predicate import cmp
from repro.server.admission import AdmitAll
from repro.server.request import Outcome, QueryRequest
from repro.server.scheduler import QueryServer
from repro.server.workload import demo_database

TUPLES = 1_000

# Defeats every attempt outright: the first stage's first attempt always
# faults and salvage finishes immediately with nothing sampled yet.
LETHAL_PLAN = FaultPlan(fail_stages=(1,), salvage="finish")
NOISY_PLAN = FaultPlan(read_error_prob=0.04, slow_read_prob=0.05)


def query(threshold: int = TUPLES // 2):
    return select(rel("r1"), cmp("a", "<", threshold))


def request(quota=2.0, seed=1, expr=None, **kw):
    return QueryRequest(
        expr=expr if expr is not None else query(),
        quota=quota,
        seed=seed,
        **kw,
    )


@pytest.fixture()
def preempt():
    """The servers' ``preempt`` argument. Off here; the ``PreemptOn``
    subclasses at the bottom run every test again with it on."""
    return False


@pytest.fixture()
def make_server(preempt):
    def make(db, plan=None, sink=None, **kw):
        return QueryServer(
            db,
            policy=AdmitAll(),
            sink=sink,
            options=QueryOptions(fault_plan=plan),
            preempt=preempt,
            **kw,
        )

    return make


@pytest.fixture()
def db():
    return demo_database(seed=5, tuples=TUPLES)  # analyzed: degraded OK


@pytest.fixture()
def bare_db():
    return demo_database(seed=5, tuples=TUPLES, analyze=False)


class TestRetry:
    def test_lethal_faults_retry_then_degrade(self, db, make_server):
        sink = RecordingSink()
        server = make_server(db, LETHAL_PLAN, sink=sink)
        outcome = server.serve(request())
        assert outcome.outcome is Outcome.DEGRADED
        assert outcome.admitted
        assert outcome.estimate is not None  # the zero-sampling answer
        assert "2 attempt(s)" in outcome.reason
        (retry,) = sink.of_kind("request_retried")
        assert retry.attempt == 1
        assert retry.backoff_seconds >= 0
        assert "fault" in retry.reason

    def test_zero_retries_disables_the_retry_leg(self, db, make_server):
        sink = RecordingSink()
        server = make_server(db, LETHAL_PLAN, sink=sink, max_fault_retries=0)
        outcome = server.serve(request())
        assert outcome.outcome is Outcome.DEGRADED
        assert "1 attempt(s)" in outcome.reason
        assert sink.of_kind("request_retried") == []

    def test_backoff_is_charged_to_the_request_clock(self, db, make_server):
        sink = RecordingSink()
        server = make_server(db, LETHAL_PLAN, sink=sink, retry_backoff=0.1)
        outcome = server.serve(request())
        (retry,) = sink.of_kind("request_retried")
        assert retry.backoff_seconds == pytest.approx(0.1)
        # The stall happened on the shared clock inside the request window.
        assert outcome.finished_at - outcome.started_at >= 0.1

    def test_negative_retry_configuration_rejected(self, db):
        with pytest.raises(ValueError):
            QueryServer(db, max_fault_retries=-1)
        with pytest.raises(ValueError):
            QueryServer(db, retry_backoff=-0.1)

    @pytest.mark.parametrize("switch", ["synopses", "preempt"])
    @pytest.mark.parametrize("value", [None, "off", "0", 1])
    def test_non_bool_switch_rejected(self, db, switch, value):
        # "off" / "0" are truthy strings: taken at face value they would
        # turn the behaviour *on*. A server's ``synopses`` is its options
        # bundle's, refused when the bundle is built.
        if switch == "synopses":
            with pytest.raises(ReproError, match=switch):
                QueryServer(db, options=QueryOptions(synopses=value))
        else:
            with pytest.raises(ValueError, match=switch):
                QueryServer(db, preempt=value)


class TestDegradedFallback:
    def test_unanalyzed_database_misses_instead(self, bare_db, make_server):
        server = make_server(bare_db, LETHAL_PLAN)
        outcome = server.serve(request())
        assert outcome.outcome is Outcome.MISSED
        assert outcome.estimate is None

    def test_statistics_free_query_misses_instead(self, db, make_server):
        # Intersections are outside the prestored statistics' coverage, so
        # there is no degraded answer to fall back to.
        server = make_server(db, LETHAL_PLAN)
        outcome = server.serve(
            request(expr=intersect(rel("r1"), rel("r2")), quota=2.0)
        )
        assert outcome.outcome is Outcome.MISSED


class TestTotalContractUnderFaults:
    def test_faulted_stream_ends_in_typed_outcomes_only(self, db, make_server):
        server = make_server(db, NOISY_PLAN)
        requests = [
            request(quota=0.5 + 0.25 * (i % 4), seed=100 + i, arrival=0.3 * i)
            for i in range(12)
        ]
        outcomes = server.process(requests)
        assert len(outcomes) == len(requests)
        assert all(isinstance(o.outcome, Outcome) for o in outcomes)
        answered = [o for o in outcomes if o.outcome is Outcome.ANSWERED]
        assert answered, "faults at p=0.04 should not defeat every request"

    def test_fault_events_are_traced(self, db, make_server):
        sink = RecordingSink()
        server = make_server(
            db, FaultPlan(read_error_prob=0.10), sink=sink, trace_queries=True
        )
        server.process(
            [request(seed=50 + i, arrival=0.5 * i) for i in range(8)]
        )
        assert sink.of_kind("fault_injected")  # injections visible in trace

    def test_same_fault_seeds_reproduce_the_same_outcomes(self, db, make_server):
        def run():
            server = make_server(
                demo_database(seed=5, tuples=TUPLES), NOISY_PLAN
            )
            outcomes = server.process(
                [request(seed=70 + i, arrival=0.4 * i) for i in range(10)]
            )
            return [
                (
                    o.outcome,
                    None if o.estimate is None else o.estimate.value,
                    o.reason,
                )
                for o in outcomes
            ]

        assert run() == run()


class TestPersistentFailureFallback:
    """Retries exhausted with an exception in hand must still try the
    zero-sampling fallback — the same one fault-defeated runs get.
    (Regression: the failure branch used to go straight to MISSED.)"""

    @staticmethod
    def _crash_dispatch_sessions(db, monkeypatch):
        from repro.errors import StorageError

        def crashing(*args, **kwargs):
            # Every session the server opens is a dispatch: admission
            # prices through ``db.plan``, which this leaves working.
            raise StorageError("device failed mid-dispatch")

        monkeypatch.setattr(db, "open_session", crashing)

    def test_crashed_execution_degrades_when_coverage_exists(
        self, db, monkeypatch, make_server
    ):
        self._crash_dispatch_sessions(db, monkeypatch)
        server = make_server(db)
        outcome = server.serve(request())
        assert outcome.outcome is Outcome.DEGRADED
        assert outcome.estimate is not None
        assert "execution failed" in outcome.reason
        assert "zero-sampling" in outcome.reason

    def test_crashed_execution_misses_without_coverage(
        self, bare_db, monkeypatch, make_server
    ):
        self._crash_dispatch_sessions(bare_db, monkeypatch)
        server = make_server(bare_db)
        outcome = server.serve(request())
        assert outcome.outcome is Outcome.MISSED
        assert outcome.estimate is None
        assert "execution failed" in outcome.reason


class TestRetryBackoffAccounting:
    def test_final_backoff_not_charged_when_no_attempt_can_follow(self, db, make_server):
        # A backoff that would consume the whole remaining budget buys
        # nothing: no retry could start after it. The scheduler must not
        # emit the RequestRetried promise nor burn the clock.
        sink = RecordingSink()
        server = make_server(db, LETHAL_PLAN, sink=sink, retry_backoff=10.0)
        outcome = server.serve(request(quota=2.0))
        assert sink.of_kind("request_retried") == []
        assert outcome.outcome is Outcome.DEGRADED
        assert "1 attempt(s)" in outcome.reason  # only the one that ran
        # The clock stops where the failed attempt stopped, well before
        # the deadline the charged backoff would have dragged it to.
        assert outcome.finished_at < outcome.request.deadline

    def test_charged_backoff_still_precedes_a_real_retry(self, db, make_server):
        sink = RecordingSink()
        server = make_server(db, LETHAL_PLAN, sink=sink, retry_backoff=0.1)
        outcome = server.serve(request(quota=2.0))
        (retry,) = sink.of_kind("request_retried")
        assert retry.backoff_seconds == pytest.approx(0.1)
        assert "2 attempt(s)" in outcome.reason

    def test_queue_wait_is_pre_dispatch_wait_only(self, db, make_server):
        # RequestCompleted.queue_wait excludes inter-retry backoff: it is
        # the arrival → first-dispatch distance, nothing else.
        sink = RecordingSink()
        server = make_server(db, LETHAL_PLAN, sink=sink, retry_backoff=0.1)
        blocker = request(quota=1.0, seed=1, arrival=0.0)
        waiter = request(quota=2.0, seed=2, arrival=0.2)
        outcomes = {
            o.request.request_id: o
            for o in server.process([blocker, waiter])
        }
        waited = outcomes[waiter.request_id]
        assert waited.queue_wait == pytest.approx(
            waited.started_at - waiter.arrival
        )
        # The backoff happened (clock moved inside the dispatch window)
        # but is charged to execution, not to the reported wait.
        assert waited.finished_at - waited.started_at >= 0.1
        completed = {
            e.request_id: e for e in sink.of_kind("request_completed")
        }
        assert completed[waiter.request_id].queue_wait == pytest.approx(
            waited.queue_wait
        )


class PreemptOn:
    """Mixin: the same tests on ``preempt=True`` servers. A fault-defeated
    run, its retries and its fallback must not care that the dispatch was
    checkpointed at stage boundaries."""

    @pytest.fixture()
    def preempt(self):
        return True


class TestRetryPreemptOn(PreemptOn, TestRetry):
    pass


class TestDegradedFallbackPreemptOn(PreemptOn, TestDegradedFallback):
    pass


class TestTotalContractUnderFaultsPreemptOn(PreemptOn, TestTotalContractUnderFaults):
    pass


class TestPersistentFailureFallbackPreemptOn(
    PreemptOn, TestPersistentFailureFallback
):
    pass


class TestRetryBackoffAccountingPreemptOn(PreemptOn, TestRetryBackoffAccounting):
    pass
