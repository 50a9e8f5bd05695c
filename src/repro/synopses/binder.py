"""Binding the synopsis catalog to one session's plan.

A :class:`SynopsisBinder` is the per-session adapter between the shared
:class:`~repro.synopses.catalog.SynopsisCatalog` and one
:class:`~repro.engine.plan.StagedPlan`:

* during physical lowering, :meth:`bind` is called once per operator node
  with the node's *logical subtree* and its
  :class:`~repro.estimation.selectivity.SelectivityTracker` — a retained
  posterior for that subtree (same structural hash, same base-relation
  sizes) warm-starts the tracker with prior pseudo-counts and emits a
  :class:`~repro.synopses.events.SynopsisHit`;
* after a successful run, :meth:`absorb_run` feeds the run's *observed*
  stage counts (never the prior — no evidence is counted twice), its
  per-relation scan totals, and its final estimate back into the catalog.

Plans lowered only to be priced (``Database.plan``: admission, explain)
bind but never run, so they absorb nothing and their lookups do not count
as catalog hits or misses; pinned trackers (pure
prestored mode) are skipped entirely — "prestored" means the operator
neither learns nor borrows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.observability.trace import NULL_SINK, NullSink, TraceSink
from repro.catalog.catalog import relation_fingerprint
from repro.synopses.catalog import SynopsisCatalog
from repro.synopses.events import SynopsisHit

if TYPE_CHECKING:
    from repro.catalog.catalog import Catalog
    from repro.engine.plan import StagedPlan
    from repro.estimation.selectivity import SelectivityTracker
    from repro.relational.expression import Expression
    from repro.timecontrol.executor import RunReport


class SynopsisBinder:
    """Per-session bridge between the catalog and a staged plan."""

    def __init__(
        self,
        synopses: SynopsisCatalog,
        catalog: "Catalog",
        sink: TraceSink | None = None,
        counted: bool = True,
    ) -> None:
        self.synopses = synopses
        self.catalog = catalog
        self.sink: TraceSink = sink if sink is not None else NULL_SINK
        self.counted = counted  # False for a plan that is only priced
        # (key, tracker) per bound operator, in lowering order.
        self._bindings: list[tuple[tuple[str, str], tuple[str, ...], object]] = []
        self.hits = 0

    # ------------------------------------------------------------------
    # Lowering-time: warm-start
    # ------------------------------------------------------------------
    def bind(self, expr: "Expression", tracker: "SelectivityTracker") -> bool:
        """Attach one operator; warm-start it if the catalog has evidence.

        Returns whether a posterior was applied. Always records the
        binding so :meth:`absorb_run` can write this run's observations
        back under the same key.
        """
        if tracker.pinned:
            return False
        relations = tuple(sorted(set(expr.base_relations())))
        key = (
            expr.structural_hash(),
            relation_fingerprint(self.catalog, relations),
        )
        self._bindings.append((key, relations, tracker))
        posterior = self.synopses.posterior(key, self.counted)
        if posterior is None:
            return False
        tracker.warm_start(posterior.tuples, posterior.points)
        self.hits += 1
        if not isinstance(self.sink, NullSink):
            self.sink.emit(
                SynopsisHit(
                    scope="warm_start",
                    key=key[0][:16],
                    relations=",".join(relations),
                    prior_points=posterior.points,
                    prior_mean=posterior.mean,
                    runs=posterior.runs,
                )
            )
        return True

    # ------------------------------------------------------------------
    # Run-end: absorb
    # ------------------------------------------------------------------
    def absorb_run(
        self,
        plan: "StagedPlan",
        report: "RunReport",
        expr: "Expression",
    ) -> None:
        """Feed one completed run's evidence back into the catalog.

        Selectivity posteriors pool the run's *observed* stage counts
        (warm-start priors excluded, so borrowed evidence is never
        re-deposited). The final in-quota estimate, when one exists, is
        retained as an answer synopsis keyed by the query *as written*
        (``expr``, pre-optimizer) so a later degrade decision for the same
        text hits regardless of rewriting.
        """
        for key, relations, tracker in self._bindings:
            points = tracker.total_points  # observed stages only
            if points > 0:
                self.synopses.record_selectivity(
                    key, relations, tracker.total_tuples, points
                )
        if report.estimate is None or report.degraded:
            return
        fingerprint = relation_fingerprint(self.catalog, expr.base_relations())
        self.synopses.record_answer(
            expr,
            plan.aggregate,
            fingerprint,
            report.estimate,
            report.blocks_within_quota,
        )
