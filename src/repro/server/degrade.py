"""Zero-sampling degraded answers — synopsis-backed, then prestored.

When a request cannot afford even one sampling stage, the server can still
answer it *instantly* instead of failing. Two sources exist, in precedence
order:

1. **Answer synopses** (:func:`synopsis_degraded_estimate`): if the
   synopsis catalog retains a completed run of the *same query shape over
   the same data sizes*, its recorded estimate is returned with the
   confidence interval derived from the recorded sample variance — an
   honest interval earned by real past sampling, usually far tighter than
   any made-up width.
2. **Prestored statistics** (:func:`degraded_estimate`): the
   prestored-selectivity machinery (:mod:`repro.statistics.prestored` —
   Figure 3.2's "prestored" implementation decision) prices the query's
   output fraction from analyzed histograms, and multiplying by the
   point-space size gives a COUNT guess with zero I/O inside the quota.
   The price of paying nothing is precision: the answer carries a
   deliberately wide confidence interval (``relative_halfwidth`` of the
   estimate, 100% by default) so downstream consumers cannot mistake it
   for a sampled estimate. SUM adds the histogram attribute mean
   (``COUNT × mean``); AVG is the mean itself.

Queries neither source covers return ``None`` and the scheduler records
the distinct ``UNCOVERED`` outcome.
"""

from __future__ import annotations

import math

from repro.catalog.catalog import relation_fingerprint
from repro.core.database import Database
from repro.estimation.aggregates import COUNT, AggregateSpec
from repro.estimation.estimate import Estimate, normal_quantile
from repro.observability.trace import NULL_SINK, NullSink, TraceSink
from repro.relational.expression import Expression
from repro.statistics.prestored import SelectivityHinter
from repro.synopses.events import SynopsisHit

DEGRADED_RELATIVE_HALFWIDTH = 1.0
"""Default relative 95% CI half-width attached to degraded answers."""


def _point_space(database: Database, expr: Expression) -> int:
    """Cross-product cardinality of the expression's base relations."""
    return math.prod(
        database.catalog.get(name).tuple_count
        for name in expr.base_relations()
    )


def _attribute_mean(
    database: Database, expr: Expression, attribute: str
) -> float | None:
    """Histogram mean of ``attribute``, resolvable only over one relation."""
    bases = set(expr.base_relations())
    carriers = [
        name
        for name in bases
        if name in database.statistics
        and database.statistics[name].has(attribute)
    ]
    if len(carriers) != 1:
        return None
    return database.statistics[carriers[0]].histogram(attribute).mean()


def synopsis_degraded_estimate(
    database: Database,
    expr: Expression,
    aggregate: AggregateSpec = COUNT,
    sink: TraceSink | None = None,
) -> Estimate | None:
    """A zero-sampling estimate from the synopsis catalog, or ``None``.

    Covers exactly the queries the catalog holds an answer synopsis for:
    the same structural hash, aggregate, and base-relation sizes as a
    completed earlier run (mutations since then dropped the entry, so a hit
    is never stale). The returned estimate carries the recorded run's value
    and sample variance verbatim — the interval a consumer computes from it
    is the one that run actually earned.
    """
    fingerprint = relation_fingerprint(database.catalog, expr.base_relations())
    entry = database.synopses.answer(
        expr.structural_hash(), aggregate, fingerprint
    )
    if entry is None:
        return None
    resolved = sink if sink is not None else NULL_SINK
    if not isinstance(resolved, NullSink):
        resolved.emit(
            SynopsisHit(
                scope="degraded_answer",
                key=expr.structural_hash()[:16],
                relations=",".join(sorted(set(expr.base_relations()))),
                prior_points=float(entry.sample_points),
                prior_mean=entry.value,
                runs=entry.runs,
            )
        )
    return entry.estimate()


def degraded_estimate(
    database: Database,
    expr: Expression,
    aggregate: AggregateSpec = COUNT,
    relative_halfwidth: float = DEGRADED_RELATIVE_HALFWIDTH,
    confidence: float = 0.95,
) -> Estimate | None:
    """A zero-sampling estimate of ``aggregate`` over ``expr``, or ``None``.

    Requires :meth:`Database.analyze` to have been run on the involved
    relations. The returned estimate's variance is sized so that its
    ``confidence``-level interval half-width equals ``relative_halfwidth``
    of the value — wide by construction, honest about knowing little.
    """
    hinter = SelectivityHinter(database.statistics, database.catalog)
    missing = [
        name
        for name in set(expr.base_relations())
        if name not in database.statistics
    ]
    if missing:
        return None
    hint = hinter.hint(expr)
    if hint is None:
        return None
    count = hint * _point_space(database, expr)

    if aggregate.kind == "count":
        value = count
    else:
        mean = _attribute_mean(database, expr, aggregate.attribute)
        if mean is None:
            return None
        value = count * mean if aggregate.kind == "sum" else mean

    z = normal_quantile(0.5 + confidence / 2.0)
    # Half-width relative to the value; a floor of 1.0 keeps zero-valued
    # answers from claiming a zero-width (i.e. exact) interval.
    halfwidth = relative_halfwidth * max(abs(value), 1.0)
    return Estimate(value=value, variance=(halfwidth / z) ** 2)
