"""The cross-query synopsis catalog.

The paper observes that prestored selectivities are "free at run time" but
suit only fixed query mixes; the run-time approach needs no statistics but
starts every query from the maximum-selectivity assumption. A server that
executes the same query shapes over and over (the serving layer's whole
premise) can have both: *remember what sampling already measured*. The
:class:`SynopsisCatalog` retains, per process:

* **selectivity posteriors** — pooled ``(output tuples, sampled points)``
  evidence per operator subtree, keyed by the planner's structural hash and
  a size fingerprint of the subtree's base relations. A later query whose
  plan contains the same subtree warm-starts Revise-Selectivities
  (Figure 3.3) from this evidence instead of the assumed maximum, so
  ``sel⁺ = sel^{i−1} + d_β·sqrt(Var)`` starts near the truth and the
  Figure 3.4 bisection buys more useful blocks per quota;
* **answer synopses** — each completed run's final estimate (value,
  variance, sample/population points), keyed by the whole query's
  structural hash and aggregate. The serving layer's degraded answers are
  backed by these: the confidence interval comes from *recorded sample
  variance*, not a flat made-up half-width.

Consistency: every key embeds a base-relation size fingerprint, and
:meth:`SynopsisCatalog.invalidate_relation` (called by
:meth:`Database.append_rows` / :meth:`Database.drop_relation`, i.e. by
committed :mod:`repro.realtime` write transactions) *drops* answer synopses
and *ages* selectivity posteriors touching the mutated relation — aged
evidence decays geometrically and is dropped below a floor. Dropped answers
join a refresh queue that :meth:`repro.server.QueryServer.refresh_synopses`
re-derives in idle capacity, charged to an explicit time budget.

Determinism: the catalog holds no randomness and never touches a clock.
With the switch off nothing is read or written — runs are bit-identical to
an engine without this module. With it on, a run is a deterministic
function of (seed, catalog state), so snapshotting the state and replaying
the seed replays the run bit for bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import ReproError
from repro.estimation.aggregates import AggregateSpec
from repro.estimation.estimate import Estimate
from repro.observability.trace import NULL_SINK, TraceSink
from repro.synopses.events import SynopsisInvalidated

if TYPE_CHECKING:
    from repro.relational.expression import Expression

DEFAULT_DECAY = 0.5
"""Geometric factor applied to a posterior's evidence per invalidation."""

MIN_PRIOR_POINTS = 1.0
"""Posteriors aged below this many points are dropped, not kept."""

MAX_PRIOR_POINTS = 250_000.0
"""Pooled evidence is capped here so one hot query shape cannot accumulate
an unbounded prior that would drown a whole fresh run's observations."""


def aggregate_key(aggregate: AggregateSpec) -> str:
    """Stable string identity of an aggregate: ``count`` / ``sum:qty`` …"""
    if aggregate.attribute is None:
        return aggregate.kind
    return f"{aggregate.kind}:{aggregate.attribute}"


SynopsisKey = tuple[str, str]
"""(structural hash, base-relation size fingerprint)."""

AnswerKey = tuple[str, str, str]
"""(structural hash, aggregate key, base-relation size fingerprint)."""


@dataclass(frozen=True)
class SelectivityPosterior:
    """Pooled stage evidence for one operator subtree.

    ``tuples`` / ``points`` are cumulative Revise-Selectivities counts
    (floats: aging scales them); ``runs`` counts the absorbed sessions;
    ``relations`` are the subtree's base relations, which an invalidation
    of any of them ages.
    """

    tuples: float
    points: float
    runs: int = 1
    relations: tuple[str, ...] = field(default=(), compare=False, repr=False)

    @property
    def mean(self) -> float:
        """Posterior selectivity, clamped to the tracker's (0, 1] domain."""
        if self.points <= 0:
            return 1.0
        return min(max(self.tuples / self.points, 1e-12), 1.0)

    def absorbed(self, tuples: int, points: int) -> "SelectivityPosterior":
        """This posterior plus one more run's observed counts (capped)."""
        new_tuples = self.tuples + tuples
        new_points = self.points + points
        if new_points > MAX_PRIOR_POINTS:
            scale = MAX_PRIOR_POINTS / new_points
            new_tuples *= scale
            new_points = MAX_PRIOR_POINTS
        return replace(
            self, tuples=new_tuples, points=new_points, runs=self.runs + 1
        )

    def aged(self, decay: float) -> "SelectivityPosterior":
        """Evidence decayed by one mutation epoch."""
        return replace(self, tuples=self.tuples * decay, points=self.points * decay)


@dataclass(frozen=True)
class AnswerSynopsis:
    """One completed run's final answer, kept for degraded serving.

    ``expr`` / ``aggregate`` are retained so the refresh hook can re-derive
    the entry after an invalidation; the estimate fields are exactly what
    the recorded run reported, so a degraded answer built from them carries
    the *recorded sample variance* — an honest interval, unlike the flat
    prestored fallback.
    """

    expr: "Expression"
    aggregate: AggregateSpec
    value: float
    variance: float
    sample_points: int
    population_points: int
    blocks: int
    runs: int = 1

    def estimate(self) -> Estimate:
        return Estimate(
            value=self.value,
            variance=self.variance,
            sample_points=self.sample_points,
            population_points=self.population_points,
        )


@dataclass(frozen=True)
class SynopsisCatalogInfo:
    """Introspection counters (in the style of ``plan_cache_info``)."""

    posteriors: int
    answers: int
    refresh_pending: int
    hits: int
    misses: int
    invalidations: int


class SynopsisCatalog:
    """Process-wide synopsis store (one per :class:`Database` by default).

    A catalog may be shared across databases by passing it to
    ``Database(synopsis_catalog=...)`` — sharing is sound exactly because
    keys embed relation size fingerprints, but the default is one catalog
    per database so independent test databases cannot see each other's
    evidence. All methods are thread-safe.
    """

    def __init__(
        self,
        decay: float = DEFAULT_DECAY,
        sink: TraceSink | None = None,
    ) -> None:
        if not 0.0 <= decay < 1.0:
            raise ReproError(f"synopsis decay must be in [0,1): {decay}")
        self.decay = decay
        self.sink: TraceSink = sink if sink is not None else NULL_SINK
        self._lock = threading.Lock()
        self._posteriors: dict[SynopsisKey, SelectivityPosterior] = {}
        self._answers: dict[AnswerKey, AnswerSynopsis] = {}
        self._refresh: "dict[tuple[str, str], AnswerSynopsis]" = {}
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    # Selectivity posteriors
    # ------------------------------------------------------------------
    def posterior(
        self, key: SynopsisKey, counted: bool = True
    ) -> SelectivityPosterior | None:
        """The pooled posterior for one operator subtree, if retained.

        ``counted=False`` (a plan that is only priced) leaves the hit and
        miss counters alone: they count lookups made by runs.
        """
        with self._lock:
            post = self._posteriors.get(key)
            if post is None or post.points < MIN_PRIOR_POINTS:
                self._misses += counted
                return None
            self._hits += counted
            return post

    def record_selectivity(
        self,
        key: SynopsisKey,
        relations: Iterable[str],
        tuples: int,
        points: int,
    ) -> None:
        """Absorb one run's observed (tuples, points) for one subtree."""
        if points <= 0:
            return
        with self._lock:
            existing = self._posteriors.get(key)
            if existing is None:
                self._posteriors[key] = SelectivityPosterior(
                    float(tuples), float(points), relations=tuple(relations)
                )
            else:
                self._posteriors[key] = existing.absorbed(tuples, points)

    # ------------------------------------------------------------------
    # Answer synopses
    # ------------------------------------------------------------------
    def answer(
        self, expr_hash: str, aggregate: AggregateSpec, fingerprint: str
    ) -> AnswerSynopsis | None:
        """The recorded answer for a whole query shape, if retained."""
        key = (expr_hash, aggregate_key(aggregate), fingerprint)
        with self._lock:
            entry = self._answers.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._hits += 1
            return entry

    def record_answer(
        self,
        expr: "Expression",
        aggregate: AggregateSpec,
        fingerprint: str,
        estimate: Estimate,
        blocks: int,
    ) -> None:
        """Retain a completed run's final estimate for degraded serving.

        When an entry already exists the one backed by more sampled points
        wins — the catalog keeps the best evidence it has ever seen for the
        shape, not merely the latest.
        """
        key = (expr.structural_hash(), aggregate_key(aggregate), fingerprint)
        with self._lock:
            existing = self._answers.get(key)
            runs = 1 if existing is None else existing.runs + 1
            if (
                existing is not None
                and existing.sample_points > estimate.sample_points
            ):
                self._answers[key] = replace(existing, runs=runs)
                return
            self._answers[key] = AnswerSynopsis(
                expr=expr,
                aggregate=aggregate,
                value=estimate.value,
                variance=estimate.variance,
                sample_points=estimate.sample_points,
                population_points=estimate.population_points,
                blocks=blocks,
                runs=runs,
            )
            self._refresh.pop((key[0], key[1]), None)

    # ------------------------------------------------------------------
    # Invalidation, aging, refresh
    # ------------------------------------------------------------------
    def invalidate_relation(self, name: str) -> SynopsisInvalidated:
        """A committed mutation touched ``name``: drop answers, age priors.

        Answer synopses over the relation are dropped outright (their
        recorded value measured data that no longer exists) and queued for
        refresh; selectivity posteriors are *aged* — selectivities often
        survive appends approximately, so their evidence is decayed by
        ``decay`` per mutation and dropped only once it falls below
        ``MIN_PRIOR_POINTS``. Emits and returns a
        :class:`~repro.synopses.events.SynopsisInvalidated` event.
        """
        with self._lock:
            aged = dropped_posteriors = 0
            for key, posterior in list(self._posteriors.items()):
                if name not in posterior.relations:
                    continue
                decayed = posterior.aged(self.decay)
                if decayed.points < MIN_PRIOR_POINTS:
                    del self._posteriors[key]
                    dropped_posteriors += 1
                else:
                    self._posteriors[key] = decayed
                    aged += 1
            dropped_answers = 0
            for key, entry in list(self._answers.items()):
                if name not in entry.expr.base_relations():
                    continue
                del self._answers[key]
                self._refresh[(key[0], key[1])] = entry
                dropped_answers += 1
            self._invalidations += 1
            event = SynopsisInvalidated(
                relation=name,
                posteriors_aged=aged,
                posteriors_dropped=dropped_posteriors,
                answers_dropped=dropped_answers,
            )
        self.sink.emit(event)
        return event

    def pending_refresh(self) -> list[AnswerSynopsis]:
        """Entries dropped by invalidation, awaiting re-derivation."""
        with self._lock:
            return list(self._refresh.values())

    def pop_refresh(self) -> AnswerSynopsis | None:
        """Claim the oldest refresh-queue entry (None when drained)."""
        with self._lock:
            if not self._refresh:
                return None
            key = next(iter(self._refresh))
            return self._refresh.pop(key)

    def requeue_refresh(self, entry: AnswerSynopsis) -> None:
        """Return a claimed entry to the queue (a refresh run failed).

        A later real run of the same shape still supersedes it — the queue
        is keyed by shape, so ``record_answer`` pops the stale entry.
        """
        key = (entry.expr.structural_hash(), aggregate_key(entry.aggregate))
        with self._lock:
            self._refresh.setdefault(key, entry)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def info(self) -> SynopsisCatalogInfo:
        with self._lock:
            return SynopsisCatalogInfo(
                posteriors=len(self._posteriors),
                answers=len(self._answers),
                refresh_pending=len(self._refresh),
                hits=self._hits,
                misses=self._misses,
                invalidations=self._invalidations,
            )

    def posteriors(self) -> Mapping[SynopsisKey, SelectivityPosterior]:
        """A snapshot of the posterior store (tests, introspection)."""
        with self._lock:
            return dict(self._posteriors)

    def snapshot(self) -> dict:
        """A deep-enough copy of the whole state for replay experiments."""
        with self._lock:
            return {
                "posteriors": dict(self._posteriors),
                "answers": dict(self._answers),
                "refresh": dict(self._refresh),
            }

    def restore(self, token: dict) -> None:
        """Reset the state to a :meth:`snapshot` token (replay runs)."""
        with self._lock:
            self._posteriors = dict(token["posteriors"])
            self._answers = dict(token["answers"])
            self._refresh = dict(token["refresh"])

    def clear(self) -> None:
        """Drop everything and reset counters."""
        with self._lock:
            self._posteriors.clear()
            self._answers.clear()
            self._refresh.clear()
            self._hits = self._misses = self._invalidations = 0
