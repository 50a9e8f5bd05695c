"""Output check and determinism guard.

Three jobs: turn what the program returned into a comparable
:class:`OpResult`; decide per op whether the answer is right
(:func:`malformed`) and arrived in time (:func:`usable`); and refuse a run
whose deterministic quantities differ between passes
(:func:`first_difference`) — every op gets the same seed in every pass, so
any difference means tracing or a cache changed behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Sequence

CROSS_CHECK_EVERY = 50
GROSS_ERROR_SIGMAS = 10.0
SERVED_IN_TIME = ("answered", "degraded")


class BenchmarkError(Exception):
    """The benchmark's own inputs or invariants are broken; abort the run."""


def _estimate_fields(estimate) -> dict:
    if estimate is None:
        return dict(value=None, variance=None, sample_points=0, population_points=0)
    return dict(
        value=estimate.value,
        variance=estimate.variance,
        sample_points=estimate.sample_points,
        population_points=estimate.population_points,
    )


@dataclass(frozen=True)
class OpResult:
    """Everything deterministic about one op (equal across passes)."""

    outcome: str
    value: float | None
    variance: float | None
    sample_points: int
    population_points: int
    blocks_read: int
    blocks_in_quota: int
    stages: int
    charged_s: float
    late: bool
    utilization: float
    output_rows: int
    queue_wait: float = 0.0

    @classmethod
    def of_report(cls, report, outcome: str = "estimate", **extra) -> "OpResult":
        """From a ``RunReport`` (a direct ``Database.estimate`` call)."""
        fields = dict(
            outcome=outcome,
            **_estimate_fields(report.estimate),
            blocks_read=report.total_blocks,
            blocks_in_quota=report.blocks_within_quota,
            stages=len(report.stages),
            charged_s=sum(s.duration for s in report.stages)
            + report.wasted_seconds,
            late=report.overspent,
            utilization=report.utilization,
            output_rows=sum(s.new_outputs for s in report.stages),
        )
        fields.update(extra)
        return cls(**fields)

    @classmethod
    def of_outcome(cls, served) -> "OpResult":
        """From a server ``RequestOutcome``."""
        ran = served.started_at is not None and served.finished_at is not None
        extra = dict(
            late=served.lateness > 0,
            charged_s=served.finished_at - served.started_at if ran else 0.0,
            queue_wait=served.queue_wait,
        )
        estimate = served.estimate
        if served.result is not None:
            result = cls.of_report(
                served.result.report, served.outcome.value, **extra
            )
            if result.value is None and estimate is not None:
                # A zero-sampling fallback answer after a failed run.
                return replace(
                    result, value=estimate.value, variance=estimate.variance
                )
            return result
        return cls(
            outcome=served.outcome.value,
            **_estimate_fields(estimate),
            blocks_read=0,
            blocks_in_quota=0,
            stages=0,
            utilization=0.0,
            output_rows=0,
            **extra,
        )

    @property
    def has_estimate(self) -> bool:
        return self.value is not None

    def relative_error(self, exact: float) -> float:
        return abs(self.value - exact) / max(abs(exact), 1.0)

    def covers(self, exact: float, z: float = 1.959963984540054) -> bool:
        half = z * math.sqrt(self.variance)
        return self.value - half <= exact <= self.value + half


def malformed(result: OpResult, exact: float) -> str | None:
    """Why this answer is wrong, or ``None`` when it is acceptable.

    Wrong means: an estimate that is not a finite number with a
    non-negative variance, or one more than ten standard errors from the
    exact answer. A sample in which every point, or no point, qualified
    estimates all or nothing with zero variance; that is accepted while
    the sample was small enough to expect fewer than ten points of the
    other kind.
    """
    if result.value is None:
        return None
    if not math.isfinite(result.value):
        return f"estimate is not finite: {result.value}"
    if not (result.variance >= 0 and math.isfinite(result.variance)):
        return f"variance is not a finite non-negative number: {result.variance}"
    distance = abs(result.value - exact)
    if distance <= GROSS_ERROR_SIGMAS * math.sqrt(result.variance):
        return None
    population = result.population_points
    if result.variance == 0 and population and result.value in (0, population):
        unseen = exact if result.value == 0 else population - exact
        if unseen * result.sample_points / population < GROSS_ERROR_SIGMAS:
            return None
    return (
        f"estimate {result.value:.6g} is more than {GROSS_ERROR_SIGMAS:g} "
        f"standard errors ({math.sqrt(result.variance):.6g}) from the exact "
        f"answer {exact:.6g}"
    )


def usable(result: OpResult) -> bool:
    """Did the caller get an answer in time?

    A direct ``estimate`` call must return an estimate. A served request
    must end ``answered`` or ``degraded`` with no lateness; rejected, shed,
    missed and uncovered requests all count against the system.
    """
    if result.outcome == "estimate":
        return result.has_estimate
    return result.outcome in SERVED_IN_TIME and result.has_estimate and not result.late


def first_difference(
    reference: Sequence[OpResult], other: Sequence[OpResult]
) -> str | None:
    """Describe the first op whose deterministic record differs, if any."""
    if len(reference) != len(other):
        return f"{len(reference)} ops against {len(other)}"
    for index, (a, b) in enumerate(zip(reference, other)):
        if a != b:
            fields = [
                name
                for name in a.__dataclass_fields__
                if getattr(a, name) != getattr(b, name)
            ]
            detail = ", ".join(
                f"{name}: {getattr(a, name)!r} != {getattr(b, name)!r}"
                for name in fields
            )
            return f"op {index}: {detail}"
    return None


def _check_exact(label: str, ours: float, theirs: float) -> None:
    if not math.isclose(ours, theirs, rel_tol=1e-9, abs_tol=1e-9):
        raise BenchmarkError(
            f"exact answer mismatch on {label}: benchmark computed {ours!r}, "
            f"Database.aggregate says {theirs!r}"
        )


def cross_check(ops: Sequence[Any]) -> None:
    """Every 50th op: our exact answer against the program's evaluator."""
    from repro import count

    for index in range(0, len(ops), CROSS_CHECK_EVERY):
        op = ops[index]
        agg = op.agg if op.agg is not None else count()
        _check_exact(f"op {index}", op.exact, op.db.aggregate(op.expr, agg))


def cross_check_served(db, batch: Sequence[Any]) -> None:
    """The same for a batch of served requests, against ``db`` as it is now."""
    for index in range(0, len(batch), CROSS_CHECK_EVERY):
        served = batch[index]
        _check_exact(
            f"request {served.request.request_id}",
            served.exact,
            db.aggregate(served.request.expr, served.request.aggregate),
        )
