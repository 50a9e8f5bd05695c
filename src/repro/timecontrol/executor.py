"""The time-constrained query evaluation algorithm (Figure 3.1).

The executor runs the paper's while-loop: revise selectivities (implicit in
the trackers), determine the stage's sample fraction, draw and evaluate the
new sample blocks, recompute the estimate, and repeat until the stopping
criterion fires. Two deadline behaviours:

* ``measure_overspend=True`` (default, the experiments' mode): like ERAM,
  "does not abort a query (stage) … when the query overspends", so the
  overspent time — "the time needed to complete the very last stage that was
  aborted" — can be measured and reported (Section 5). The overspending
  stage's results are *not* part of the reported estimate.
* ``measure_overspend=False`` with a hard criterion: the timer interrupt is
  armed and a stage crossing the deadline is killed mid-flight via
  :class:`~repro.errors.QuotaExpired`; the answer is whatever the last
  completed stage produced — the deployment behaviour of a hard real-time
  database.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.costmodel import steps as step_names
from repro.engine.plan import StagedPlan
from repro.errors import (
    QuotaExpired,
    SamplingExhausted,
    StorageError,
    TimeControlError,
)
from repro.estimation.estimate import Estimate
from repro.faults.events import FaultSalvaged
from repro.faults.injector import FaultRecord
from repro.observability.trace import (
    DeadlineAbort,
    QueryEnd,
    QueryStart,
    StageEnd,
    StageStart,
    TraceSink,
)
from repro.timecontrol.stopping import HardDeadline, StopState
from repro.timecontrol.strategies import TimeControlStrategy
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import CostKind

if TYPE_CHECKING:
    from repro.core.options import QueryOptions

#: Consecutive attempts a faulted stage gets before the run finishes
#: ``degraded`` (salvage policy ``"continue"``).
MAX_STAGE_RETRIES = 3

#: Stages one run may take before it finishes ``max_stages``.
MAX_STAGES = 64


@dataclass
class StageReport:
    """One attempted stage of a run."""

    index: int
    fraction: float
    started_at: float
    duration: float
    blocks_read: int
    new_points: int
    new_outputs: int
    completed_in_time: bool
    aborted_mid_stage: bool
    estimate: Estimate | None


@dataclass
class RunReport:
    """Full record of one time-constrained COUNT evaluation.

    ``estimate`` is the answer under hard-deadline semantics: the estimate
    after the last stage that finished within the quota (``None`` if not
    even stage 1 finished in time). ``estimate_with_overrun`` additionally
    incorporates an overspent final stage, which is what a soft-deadline
    client would receive.
    """

    quota: float
    started_at: float
    aggregate: str = "count"
    stages: list[StageReport] = field(default_factory=list)
    estimate: Estimate | None = None
    estimate_with_overrun: Estimate | None = None
    termination: str = ""
    peak_temp_tuples: int = 0
    faults: list[FaultRecord] = field(default_factory=list)

    # -- derived measures (the paper's table columns) -------------------
    @property
    def stages_completed_in_time(self) -> int:
        """The paper's "stages" column (completed within the quota)."""
        return sum(1 for s in self.stages if s.completed_in_time)

    @property
    def overspent(self) -> bool:
        """Did any stage run past the deadline ("risk" numerator)?"""
        return any(not s.completed_in_time for s in self.stages)

    @property
    def degraded(self) -> bool:
        """Did the run finish early because injected faults exhausted it?"""
        return self.termination == "degraded"

    @property
    def faulted(self) -> bool:
        """Were any faults injected and salvaged during the run?"""
        return bool(self.faults)

    @property
    def wasted_seconds(self) -> float:
        """Charged time spent on stage attempts discarded after a fault."""
        return sum(f.wasted_seconds for f in self.faults)

    @property
    def overspend_seconds(self) -> float:
        """Seconds past the quota spent finishing the aborted stage (ovsp)."""
        if math.isinf(self.quota):
            return 0.0
        end = (
            self.started_at
            + sum(s.duration for s in self.stages)
            + self.wasted_seconds
        )
        return max(end - (self.started_at + self.quota), 0.0)

    @property
    def utilization(self) -> float:
        """Share of the quota spent on stages that completed in time."""
        if math.isinf(self.quota) or self.quota <= 0:
            return 1.0
        useful = sum(s.duration for s in self.stages if s.completed_in_time)
        return min(useful / self.quota, 1.0)

    @property
    def blocks_within_quota(self) -> int:
        """Disk blocks evaluated by in-time stages (the "blocks" column)."""
        return sum(s.blocks_read for s in self.stages if s.completed_in_time)

    @property
    def total_blocks(self) -> int:
        return sum(s.blocks_read for s in self.stages)


Checkpoint = Callable[[RunReport], bool]
"""Stage-boundary hook: return ``True`` to suspend the run (see
:meth:`TimeConstrainedExecutor.run`). Called with the partial report
*between* stages only — never mid-stage — and only after at least one
stage has completed, so a suspended run always has a consistent
last-completed-stage estimate to fall back on."""


@dataclass
class SuspendedRun:
    """A run paused at a stage boundary, resumable bit-identically.

    Produced by :meth:`TimeConstrainedExecutor.run` when its ``checkpoint``
    callback asks to suspend. Everything the continuation needs is here:
    the partial :class:`RunReport` (stages completed so far, all still
    charged, with their estimates and salvaged faults — the run's whole
    history), the absolute ``deadline`` (queue wait while suspended keeps
    eating the budget — the paper's time-quota semantics applied to
    preemption), the estimator/tracker state as a plan snapshot ``token``
    (:meth:`~repro.engine.plan.StagedPlan.snapshot` — restored on resume so
    nothing that happened while parked can leak into the continuation), and
    the consumed-budget accounting. Suspension itself charges nothing and
    draws no randomness, which is what makes a suspended-then-resumed run
    bit-identical to an uninterrupted one when the clock did not move in
    between.
    """

    report: RunReport
    deadline: float
    token: dict
    consumed: float
    suspended_at: float

    @property
    def stages_completed(self) -> int:
        """Stages banked before suspension (the resumable prefix)."""
        return len(self.report.stages)

    def residual_budget(self, now: float) -> float:
        """Budget left if resumed at ``now`` (the deadline is absolute)."""
        return max(self.deadline - now, 0.0)


class TimeConstrainedExecutor:
    """Runs one staged plan under a quota with a strategy and a criterion."""

    def __init__(
        self,
        plan: StagedPlan,
        strategy: TimeControlStrategy,
        options: "QueryOptions | None" = None,
    ) -> None:
        if options is None:
            from repro.core.options import DEFAULT_OPTIONS as options
        self.plan = plan
        self.strategy = strategy
        self.stopping = (
            options.stopping if options.stopping is not None else HardDeadline()
        )
        self.measure_overspend = options.measure_overspend
        # The plan's sink, so one wiring point traces the whole run.
        self.sink: TraceSink = plan.sink

    def run(
        self, quota: float, checkpoint: Checkpoint | None = None
    ) -> RunReport | SuspendedRun:
        """Evaluate the plan's COUNT within ``quota`` seconds.

        Without ``checkpoint`` the return value is always a terminal
        :class:`RunReport` (the pre-existing contract, bit-for-bit).
        With a ``checkpoint`` callback the executor becomes preemptible:
        the callback is consulted at every stage boundary (after at least
        one stage completed) and a ``True`` answer suspends the run —
        the method then returns a :class:`SuspendedRun` instead of a
        report, to be continued later with :meth:`resume`. Suspension
        happens only between stages, charges nothing, and consumes no
        randomness, so it never perturbs the estimate.
        """
        if quota <= 0:
            raise TimeControlError(f"quota must be positive: {quota}")
        clock = self.plan.charger.clock
        start = clock.now()
        report = RunReport(
            quota=quota,
            started_at=start,
            aggregate=self.plan.aggregate.kind,
        )
        self.sink.emit(
            QueryStart(
                quota=quota,
                aggregate=self.plan.aggregate.kind,
                strategy=self.strategy.describe(),
                stopping=type(self.stopping).__name__,
                clock=start,
            )
        )
        return self._drive(
            report, deadline=start + quota, checkpoint=checkpoint, consumed=0.0
        )

    def resume(
        self,
        suspended: SuspendedRun,
        checkpoint: Checkpoint | None = None,
    ) -> RunReport | SuspendedRun:
        """Continue a :class:`SuspendedRun` against its original deadline.

        The plan is rolled back to the suspension snapshot first (a no-op
        when nothing touched it while parked — the normal case — but a
        hard guarantee that foreign state cannot leak in), the deadline is
        re-armed, and the stage loop picks up exactly where it stopped:
        same stage numbering, same estimator history, same RNG stream
        position. Time that passed while suspended is already gone from
        the budget (the deadline is absolute), mirroring how queue wait is
        charged before the first dispatch. May suspend again if
        ``checkpoint`` asks to.
        """
        self.plan.restore(suspended.token)
        return self._drive(
            suspended.report,
            deadline=suspended.deadline,
            checkpoint=checkpoint,
            consumed=suspended.consumed,
        )

    def _drive(
        self,
        report: RunReport,
        deadline: float,
        checkpoint: Checkpoint | None,
        consumed: float,
    ) -> RunReport | SuspendedRun:
        """Arm the deadline, run the stage loop, finalize or suspend."""
        charger: CostCharger = self.plan.charger
        clock = charger.clock
        segment_start = clock.now()
        live_hard = self.stopping.hard and not self.measure_overspend
        # A resumed run whose budget evaporated in the queue skips arming:
        # the loop terminates immediately with the banked estimate.
        if math.isfinite(deadline) and deadline >= segment_start:
            charger.arm(deadline, hard=live_hard)
        suspend = False
        try:
            suspend = self._loop(report, deadline, checkpoint)
        finally:
            charger.disarm()
        if suspend:
            return SuspendedRun(
                report=report,
                deadline=deadline,
                token=self.plan.snapshot(),
                consumed=consumed + (clock.now() - segment_start),
                suspended_at=clock.now(),
            )
        report.peak_temp_tuples = self.plan.spool.peak_tuples
        if report.estimate_with_overrun is None:
            report.estimate_with_overrun = report.estimate
        if not report.termination:
            report.termination = "deadline"
        self.sink.emit(
            QueryEnd(
                termination=report.termination,
                stages_completed=report.stages_completed_in_time,
                estimate_value=(
                    report.estimate.value if report.estimate else None
                ),
                estimate_variance=(
                    report.estimate.variance if report.estimate else None
                ),
                elapsed_seconds=consumed + (clock.now() - segment_start),
            )
        )
        return report

    def _loop(
        self,
        report: RunReport,
        deadline: float,
        checkpoint: Checkpoint | None,
    ) -> bool:
        """The Figure 3.1 while-loop; ``True`` = suspend."""
        clock = self.plan.charger.clock
        injector = self.plan.injector
        while len(report.stages) < MAX_STAGES:
            # The preemption point: between stages only, never before the
            # first stage has banked an estimate, and costing nothing.
            if (
                checkpoint is not None
                and report.stages
                and checkpoint(report)
            ):
                return True
            now = clock.now()
            remaining = deadline - now
            if remaining <= 0:
                report.termination = "deadline"
                break
            if self.plan.all_exhausted():
                report.termination = "exhausted"
                break
            fraction = self.strategy.choose_fraction(
                self.plan, remaining, report.stages
            )
            if fraction is None:
                report.termination = "no_feasible_stage"
                break
            self.sink.emit(
                StageStart(
                    stage=self.plan.stages_completed + 1,
                    fraction=fraction,
                    remaining_seconds=remaining,
                    clock=now,
                )
            )
            # Snapshots are taken only when faults can actually fire, so
            # unfaulted runs pay nothing and stay bit-identical.
            token = None
            if injector is not None:
                injector.begin_stage(self.plan.stages_completed + 1)
                token = self.plan.snapshot()
            attempt_started = clock.now()
            try:
                stage_report = self._run_stage(fraction, deadline)
            except (StorageError, SamplingExhausted) as fault:
                if token is None:
                    raise
                if not self._salvage(report, fault, token, attempt_started):
                    report.termination = "degraded"
                    break
                continue
            report.stages.append(stage_report)
            if stage_report.aborted_mid_stage:
                report.termination = "interrupted"
                self.sink.emit(
                    DeadlineAbort(
                        stage=stage_report.index,
                        deadline=deadline,
                        clock=clock.now(),
                    )
                )
                self._emit_stage_end(stage_report)
                break
            estimate = self.plan.estimate()
            stage_report.estimate = estimate
            self._emit_stage_end(stage_report)
            if stage_report.completed_in_time:
                report.estimate = estimate
            else:
                report.estimate_with_overrun = estimate
                report.termination = "deadline"
                break
            state = StopState(
                stage=stage_report.index,
                remaining_seconds=deadline - clock.now(),
                estimate=estimate,
                # Only a mid-stage abort leaves a stage without an
                # estimate, and it ends the loop before reaching here.
                estimate_history=[s.estimate for s in report.stages],
                elapsed_seconds=clock.now() - report.started_at,
                last_stage_seconds=next(
                    (s.duration for s in reversed(report.stages) if s.duration > 0),
                    0.0,
                ),
            )
            if self.stopping.should_stop(state):
                report.termination = (
                    "deadline"
                    if state.remaining_seconds <= 0
                    else "stopping_criterion"
                )
                break
        else:
            report.termination = "max_stages"
        return False

    def _salvage(
        self,
        report: RunReport,
        fault: Exception,
        token: dict,
        attempt_started: float,
    ) -> bool:
        """Discard the faulted stage attempt and decide whether to retry.

        The plan rolls back to its pre-stage logical state (samplers,
        trackers, runs, moments) while the clock keeps every second the
        wasted attempt charged — faults cost time but never corrupt the
        estimate. Returns ``True`` to retry the stage, ``False`` to finish
        the run with the last consistent estimate (``degraded``). The
        stage's earlier retries are the faults already recorded for it.
        """
        clock = self.plan.charger.clock
        wasted = clock.now() - attempt_started
        stage_index = self.plan.stages_completed + 1
        self.plan.restore(token)
        plan = self.plan.injector.plan
        retries = sum(1 for f in report.faults if f.stage == stage_index)
        retry = (
            plan.salvage == "continue" and retries + 1 < MAX_STAGE_RETRIES
        )
        record = FaultRecord(
            stage=stage_index,
            fault_kind=getattr(fault, "fault_kind", "storage_error"),
            message=str(fault),
            relation=getattr(fault, "relation", None),
            block_id=getattr(fault, "block_id", None),
            wasted_seconds=wasted,
            action="retry" if retry else "finish",
        )
        report.faults.append(record)
        self.sink.emit(
            FaultSalvaged(
                stage=stage_index,
                fault_kind=record.fault_kind,
                wasted_seconds=wasted,
                action=record.action,
                clock=clock.now(),
            )
        )
        return retry

    def _emit_stage_end(self, stage: StageReport) -> None:
        self.sink.emit(
            StageEnd(
                stage=stage.index,
                fraction=stage.fraction,
                duration=stage.duration,
                blocks_read=stage.blocks_read,
                new_points=stage.new_points,
                new_outputs=stage.new_outputs,
                completed_in_time=stage.completed_in_time,
                aborted_mid_stage=stage.aborted_mid_stage,
                estimate_value=(
                    stage.estimate.value if stage.estimate else None
                ),
                estimate_variance=(
                    stage.estimate.variance if stage.estimate else None
                ),
            )
        )

    def _run_stage(self, fraction: float, deadline: float) -> StageReport:
        charger = self.plan.charger
        clock = charger.clock
        stage_index = self.plan.stages_completed + 1
        started = clock.now()
        aborted = False
        blocks = 0
        new_points = 0
        new_outputs = 0
        try:
            with charger.measure() as overhead_meter:
                charger.charge(CostKind.STAGE_OVERHEAD, 1)
            self.plan.cost_model.observe(
                step_names.STAGE_OVERHEAD, [1.0], overhead_meter.elapsed
            )
            stats = self.plan.advance_stage(fraction)
            blocks = stats.blocks_read
            new_points = stats.new_points
            new_outputs = stats.new_outputs
            if self.plan.injector is not None:
                # An injected overrun lands after the stage's real work, so
                # the stage's results stay consistent; only its timing (and
                # thus completed_in_time below) absorbs the penalty.
                self.plan.injector.maybe_overrun(stage_index, charger)
        except QuotaExpired:
            aborted = True
        duration = clock.now() - started
        completed_in_time = (not aborted) and clock.now() <= deadline
        return StageReport(
            index=stage_index,
            fraction=fraction,
            started_at=started,
            duration=duration,
            blocks_read=blocks,
            new_points=new_points,
            new_outputs=new_outputs,
            completed_in_time=completed_in_time,
            aborted_mid_stage=aborted,
            estimate=None,
        )
