"""Per-query sessions — one self-contained, observable unit of execution.

A :class:`QuerySession` owns everything one time-constrained query run
needs and *nothing* it shares with any other run: the spawned RNG stream,
the :class:`~repro.timekeeping.charger.CostCharger` with its clock, the
adaptive :class:`~repro.costmodel.model.CostModel`, the
:class:`~repro.engine.plan.StagedPlan`, the time-control strategy, the
stopping criterion, and the run's trace sink. Two sessions never share
mutable state, which is what makes runs independently replayable,
traceable, and safe to fan out across processes (see
:mod:`repro.experiments.runner`).

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
from dataclasses import dataclass, field
from typing import overload

import numpy as np

from repro.catalog.catalog import Catalog
from repro.core.result import QueryResult
from repro.costmodel.model import CostModel
from repro.engine.plan import StagedPlan
from repro.errors import ReproError
from repro.estimation.aggregates import AggregateSpec
from repro.faults.injector import FaultInjector
from repro.observability.trace import NULL_SINK, TraceSink
from repro.relational.expression import Expression
from repro.storage.heapfile import DEFAULT_BLOCK_SIZE
from repro.timecontrol.executor import (
    Checkpoint,
    RunReport,
    SuspendedRun,
    TimeConstrainedExecutor,
)
from repro.timecontrol.stopping import StoppingCriterion
from repro.timecontrol.strategies import OneAtATimeInterval, TimeControlStrategy
from repro.timekeeping.charger import CostCharger

_session_counter = itertools.count(1)


@dataclass(frozen=True)
class ExecutionContext:
    """The per-run mutable machinery, bundled.

    Everything in here is owned by exactly one session: the RNG stream
    (sampling + cost jitter), the charger (clock + deadline + accounting),
    the cost model (refit during the run), and the trace sink.
    """

    rng: np.random.Generator
    charger: CostCharger
    cost_model: CostModel
    sink: TraceSink = field(default_factory=lambda: NULL_SINK)
    injector: FaultInjector | None = None


class QuerySession:
    """One time-constrained aggregate query, ready to run.

    Construction builds the full staged machinery (plan + executor) from an
    :class:`ExecutionContext`; :meth:`run` executes it exactly once. All
    parts stay reachable afterwards for inspection: :attr:`plan`,
    :attr:`executor`, :attr:`context`, :attr:`result`.
    """

    def __init__(
        self,
        expr: Expression,
        catalog: Catalog,
        quota: float,
        context: ExecutionContext,
        strategy: TimeControlStrategy | None = None,
        stopping: StoppingCriterion | None = None,
        measure_overspend: bool = True,
        max_stages: int = 64,
        aggregate: AggregateSpec | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        full_fulfillment: bool = True,
        initial_selectivities: dict[str, float] | None = None,
        zero_fix_beta: float | None = None,
        hint_provider=None,
        pin_selectivities: bool = False,
        optimize: bool = True,
        binder=None,
        bufferpool=None,
    ) -> None:
        from repro.estimation.aggregates import COUNT

        self.expr = expr
        self.quota = quota
        self.context = context
        self.label = f"session-{next(_session_counter)}"
        self.optimize = optimize
        self.strategy = (
            strategy if strategy is not None else OneAtATimeInterval(d_beta=24.0)
        )
        self.plan = StagedPlan(
            expr,
            catalog,
            context.charger,
            context.cost_model,
            context.rng,
            block_size=block_size,
            full_fulfillment=full_fulfillment,
            initial_selectivities=initial_selectivities,
            zero_fix_beta=zero_fix_beta,
            aggregate=aggregate if aggregate is not None else COUNT,
            hint_provider=hint_provider,
            pin_selectivities=pin_selectivities,
            sink=context.sink,
            injector=context.injector,
            optimize=self.optimize,
            binder=binder,
            bufferpool=bufferpool,
        )
        self.binder = binder
        self.bufferpool = self.plan.bufferpool
        self.executor = TimeConstrainedExecutor(
            self.plan,
            self.strategy,
            stopping=stopping,
            measure_overspend=measure_overspend,
            max_stages=max_stages,
            sink=context.sink,
        )
        self._result: QueryResult | None = None
        self._suspended: SuspendedRun | None = None

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    @property
    def sink(self) -> TraceSink:
        return self.context.sink

    @property
    def charger(self) -> CostCharger:
        return self.context.charger

    @property
    def rng(self) -> np.random.Generator:
        return self.context.rng

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
