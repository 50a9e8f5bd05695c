"""Server observability — counters and histograms over the event stream.

:class:`ServerMetrics` is a :class:`~repro.observability.TraceSink`: it
consumes the serving layer's typed events (:mod:`repro.server.events`) and
keeps the numbers an operator of a time-constrained database watches —
admit/reject/degrade/shed counts, the deadline hit-ratio among admitted
requests, queue-wait totals, and histograms of lateness and of the achieved
confidence-interval half-widths. Because it is just a sink, it composes
with the rest of the tracing layer: tee it next to a
:class:`~repro.observability.JsonlSink` and the same stream both updates
the live counters and lands on disk for replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.observability.trace import TraceEvent
from repro.server.events import (
    AdmissionDecided,
    QueryPreempted,
    QueryResumed,
    RequestArrived,
    RequestCompleted,
)
from repro.server.request import Outcome

LATENESS_EDGES = (0.001, 0.01, 0.1, 1.0, 10.0)
"""Default lateness histogram bucket edges (seconds past the deadline)."""

CI_EDGES = (0.05, 0.1, 0.25, 0.5, 1.0)
"""Default bucket edges for achieved relative 95% CI half-widths."""


@dataclass
class BucketHistogram:
    """A fixed-edge histogram: ``len(edges) + 1`` buckets, last = overflow."""

    edges: Sequence[float]
    counts: list[int] = field(default_factory=list)
    observed: int = 0
    total: float = 0.0

    def __post_init__(self) -> None:
        if list(self.edges) != sorted(self.edges):
            raise ValueError(f"histogram edges must ascend: {self.edges}")
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)

    def observe(self, value: float) -> None:
        self.observed += 1
        if math.isfinite(value):
            self.total += value
        index = len(self.edges)
        for i, edge in enumerate(self.edges):
            if value <= edge:
                index = i
                break
        self.counts[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.observed if self.observed else 0.0

    def as_dict(self) -> dict:
        labels = [f"<={e:g}" for e in self.edges] + [
            f">{self.edges[-1]:g}" if self.edges else "all"
        ]
        return {
            "buckets": dict(zip(labels, self.counts)),
            "observed": self.observed,
            "mean": self.mean,
        }


class ServerMetrics:
    """Live counters over the server's event stream (a ``TraceSink``).

    Unknown event kinds (e.g. per-query ``stage_end`` events when query
    tracing is threaded through the same sink) are ignored, so one sink can
    watch the whole tee'd stream.
    """

    def __init__(self) -> None:
        self.arrived = 0
        self.admitted = 0
        self.rejected_at_admission = 0
        self.degraded_at_admission = 0
        self.outcomes: dict[Outcome, int] = {o: 0 for o in Outcome}
        self.queue_wait_total = 0.0
        self.lateness = BucketHistogram(LATENESS_EDGES)
        self.achieved_ci = BucketHistogram(CI_EDGES)
        # Stage-boundary EDF preemption (QueryServer(preempt=True); zero when off).
        self.preempted = 0
        self.resumed = 0

    # ------------------------------------------------------------------
    # TraceSink
    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        if isinstance(event, RequestArrived):
            self.arrived += 1
        elif isinstance(event, AdmissionDecided):
            if event.action == "admit":
                self.admitted += 1
            elif event.action == "reject":
                self.rejected_at_admission += 1
            elif event.action == "degrade":
                self.degraded_at_admission += 1
        elif isinstance(event, QueryPreempted):
            self.preempted += 1
        elif isinstance(event, QueryResumed):
            self.resumed += 1
        elif isinstance(event, RequestCompleted):
            self.outcomes[Outcome(event.outcome)] += 1
            self.queue_wait_total += event.queue_wait
            if event.outcome in (Outcome.ANSWERED.value, Outcome.MISSED.value):
                self.lateness.observe(event.lateness)
            if event.relative_ci_halfwidth is not None:
                self.achieved_ci.observe(event.relative_ci_halfwidth)

    # ------------------------------------------------------------------
    # Derived measures
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return sum(self.outcomes.values())

    def count(self, outcome: Outcome) -> int:
        return self.outcomes[outcome]

    @property
    def hit_ratio_admitted(self) -> float | None:
        """ANSWERED / admitted — the benchmark's headline number.

        Shed and missed requests count against it (they were admitted and
        failed to produce an in-time estimate); ``None`` before any request
        was admitted.
        """
        if self.admitted == 0:
            return None
        return self.outcomes[Outcome.ANSWERED] / self.admitted

    @property
    def answered_ratio(self) -> float | None:
        """Requests that got *any* usable answer (sampled or degraded)."""
        if self.completed == 0:
            return None
        usable = (
            self.outcomes[Outcome.ANSWERED] + self.outcomes[Outcome.DEGRADED]
        )
        return usable / self.completed

    @property
    def mean_queue_wait(self) -> float:
        return self.queue_wait_total / self.completed if self.completed else 0.0

    def as_dict(self) -> dict:
        return {
            "arrived": self.arrived,
            "admitted": self.admitted,
            "rejected_at_admission": self.rejected_at_admission,
            "degraded_at_admission": self.degraded_at_admission,
            "outcomes": {o.value: n for o, n in self.outcomes.items()},
            "hit_ratio_admitted": self.hit_ratio_admitted,
            "answered_ratio": self.answered_ratio,
            "mean_queue_wait": self.mean_queue_wait,
            "lateness": self.lateness.as_dict(),
            "achieved_ci": self.achieved_ci.as_dict(),
            "preempted": self.preempted,
            "resumed": self.resumed,
        }

    def render(self) -> str:
        """A small operator-facing text panel."""
        hit = self.hit_ratio_admitted
        usable = self.answered_ratio
        lines = [
            "server metrics:",
            f"  arrived {self.arrived}  admitted {self.admitted}  "
            f"rejected {self.rejected_at_admission}  "
            f"degraded {self.degraded_at_admission}",
            "  outcomes: "
            + "  ".join(
                f"{o.value} {n}" for o, n in self.outcomes.items() if n
            ),
            "  deadline hit-ratio (admitted): "
            + (f"{hit:.3f}" if hit is not None else "n/a"),
            "  answered ratio (all): "
            + (f"{usable:.3f}" if usable is not None else "n/a"),
            f"  mean queue wait: {self.mean_queue_wait:.4f}s",
            f"  mean lateness: {self.lateness.mean:.4f}s "
            f"over {self.lateness.observed} runs",
            f"  mean achieved CI half-width: {self.achieved_ci.mean:.3f} "
            f"over {self.achieved_ci.observed} answers",
        ]
        if self.preempted or self.resumed:
            lines.append(
                f"  preemption: {self.preempted} suspended, "
                f"{self.resumed} resumed"
            )
        return "\n".join(lines)
