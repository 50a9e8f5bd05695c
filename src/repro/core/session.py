"""Per-query sessions — one self-contained, observable unit of execution.

A :class:`QuerySession` owns everything one time-constrained query run
needs and *nothing* it shares with any other run: the spawned RNG stream,
the :class:`~repro.timekeeping.charger.CostCharger` with its clock, the
adaptive :class:`~repro.costmodel.model.CostModel`, the
:class:`~repro.engine.plan.StagedPlan`, the time-control strategy, the
stopping criterion, and the run's trace sink. Two sessions never share
mutable state, which is what makes runs independently replayable and
traceable. The session relays no configuration: the plan and the executor
read theirs from one :class:`~repro.core.options.QueryOptions`.

:class:`Database` opens sessions (:meth:`Database.open_session`) and its
``estimate`` entrypoint is a one-line wrapper over
``open_session(...).run()``. Use a session directly when you want to
inspect the machinery before or after the run::

    from repro.observability import RecordingSink

    sink = RecordingSink()
    session = db.open_session(expr, quota=10.0, sink=sink)
    result = session.run()
    stage_events = sink.of_kind("stage_end")
    session.plan.trackers()     # post-run selectivity state
"""

from __future__ import annotations

import itertools
from typing import overload

import numpy as np

from repro.core.result import QueryResult
from repro.engine.plan import StagedPlan
from repro.errors import ReproError
from repro.observability.trace import TraceSink
from repro.relational.expression import Expression
from repro.timecontrol.executor import (
    Checkpoint,
    RunReport,
    SuspendedRun,
    TimeConstrainedExecutor,
)
from repro.timekeeping.charger import CostCharger

_session_counter = itertools.count(1)


class QuerySession:
    """One time-constrained aggregate query, ready to run.

    Holds a built plan and the executor that drives it (composed by
    :meth:`Database.open_session`, or by hand); :meth:`run` executes it
    exactly once. All parts stay reachable afterwards for inspection:
    :attr:`plan`, :attr:`executor`, :attr:`result`. ``binder``, when given,
    receives the finished run's evidence (:mod:`repro.synopses`).
    """

    def __init__(
        self,
        expr: Expression,
        quota: float,
        plan: StagedPlan,
        executor: TimeConstrainedExecutor,
        binder=None,
    ) -> None:
        self.expr = expr
        self.quota = quota
        self.plan = plan
        self.executor = executor
        self.binder = binder
        self.label = f"session-{next(_session_counter)}"
        self._result: QueryResult | None = None
        self._suspended: SuspendedRun | None = None

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    @property
    def sink(self) -> TraceSink:
        return self.plan.sink

    @property
    def charger(self) -> CostCharger:
        return self.plan.charger

    @property
    def rng(self) -> np.random.Generator:
        return self.plan.rng

    @property
    def result(self) -> QueryResult | None:
        """The outcome, once :meth:`run` has been called."""
        return self._result

    @property
    def report(self) -> RunReport | None:
        return self._result.report if self._result is not None else None

    @property
    def finished(self) -> bool:
        return self._result is not None

    @property
    def suspended(self) -> bool:
        """True while the run is parked at a stage boundary."""
        return self._suspended is not None

    @property
    def suspended_state(self) -> SuspendedRun | None:
        """The checkpoint token, for inspection while parked."""
        return self._suspended

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @overload
    def run(self, checkpoint: None = None) -> QueryResult: ...

    @overload
    def run(self, checkpoint: Checkpoint) -> QueryResult | None: ...

    def run(
        self, checkpoint: Checkpoint | None = None
    ) -> QueryResult | None:
        """Execute the session's plan within its quota, exactly once.

        A session is one run: its sampler state, cost-model fit, and trace
        are that run's record. Re-running would silently continue the same
        sample — open a fresh session instead.

        With a ``checkpoint`` the run is suspendable at stage boundaries:
        when the callback answers ``True`` between stages the session
        parks instead of finishing — this returns ``None``,
        :attr:`suspended` flips on, and :meth:`resume` continues the run
        later, bit-identically, since suspension charges nothing and
        draws no randomness. Without one the result is never ``None``.
        """
        if self._result is not None:
            raise ReproError(
                "this QuerySession already ran; open a new session "
                "(sessions are single-use so runs stay independent)"
            )
        if self._suspended is not None:
            raise ReproError(
                "this QuerySession is suspended; continue it with "
                "resume() instead of starting a fresh run"
            )
        try:
            out = self.executor.run(self.quota, checkpoint=checkpoint)
        except ReproError as exc:
            # Anything that escapes the executor carries where it happened.
            raise exc.with_context(
                stage=self.plan.stages_completed + 1, session=self.label
            )
        return self._absorb(out)

    def resume(
        self, checkpoint: Checkpoint | None = None
    ) -> QueryResult | None:
        """Continue a suspended run; may suspend again.

        The executor restores the suspension snapshot and re-arms the
        original absolute deadline, so time spent parked has already been
        deducted from the budget — exactly like queue wait before the
        first dispatch.
        """
        if self._suspended is None:
            raise ReproError(
                "this QuerySession is not suspended; nothing to resume"
            )
        suspended, self._suspended = self._suspended, None
        try:
            out = self.executor.resume(suspended, checkpoint=checkpoint)
        except ReproError as exc:
            raise exc.with_context(
                stage=self.plan.stages_completed + 1, session=self.label
            )
        return self._absorb(out)

    def _absorb(self, out: RunReport | SuspendedRun) -> QueryResult | None:
        """File the executor's outcome: park, or finalize the result."""
        if isinstance(out, SuspendedRun):
            self._suspended = out
            return None
        self._result = QueryResult(report=out)
        if self.binder is not None:
            # Deposit the run's evidence into the synopsis catalog, keyed
            # by the query as written (pre-optimizer). Only terminal runs
            # deposit — a parked session's evidence is still in flight.
            self.binder.absorb_run(self.plan, out, self.expr)
        return self._result
