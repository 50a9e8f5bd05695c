"""``Database.explain`` takes the same options bundle as ``estimate``.

Mirrors ``test_options_api.py`` for the explain entrypoint: a
:class:`QueryOptions` bundle configures the plans, per-call
keyword overrides beat the bundle, and unknown names are rejected with the
valid list.
"""

from __future__ import annotations

import pytest

from repro import QueryOptions
from repro.errors import ReproError
from repro.relational.expression import join, rel
from repro.relational.predicate import cmp
from repro.server.workload import demo_database

EXPR = join(rel("r1").where(cmp("a", "<", 5_000)), rel("r2"), on=["a"])


@pytest.fixture(scope="module")
def db():
    return demo_database(seed=23, tuples=400, analyze=True)


def sig(explanation):
    return (
        explanation.optimized,
        [a.rule for a in explanation.applications],
        explanation.before_costs.total,
        explanation.after_costs.total,
    )


class TestExplainOptions:
    def test_options_bundle_accepted(self, db):
        plain = db.explain(EXPR)
        bundled = db.explain(EXPR, options=QueryOptions())
        assert sig(bundled) == sig(plain)

    def test_options_configure_the_probes(self, db):
        hybrid = db.explain(
            EXPR, options=QueryOptions(selectivity_source="hybrid")
        )
        runtime = db.explain(EXPR)
        # Prestored hints change the predicted stage prices.
        assert sig(hybrid) != sig(runtime) or (
            hybrid.before_costs.total != runtime.before_costs.total
        )

    def test_keyword_override_beats_the_bundle(self, db):
        via_bundle = db.explain(
            EXPR, options=QueryOptions(selectivity_source="hybrid")
        )
        overridden = db.explain(
            EXPR,
            options=QueryOptions(selectivity_source="hybrid"),
            selectivity_source="runtime",
        )
        plain = db.explain(EXPR)
        assert sig(overridden) == sig(plain)
        assert sig(overridden) != sig(via_bundle) or (
            overridden.before_costs.total != via_bundle.before_costs.total
        )

    def test_options_equal_keywords(self, db):
        via_options = db.explain(
            EXPR, options=QueryOptions(selectivity_source="hybrid")
        )
        via_keyword = db.explain(EXPR, selectivity_source="hybrid")
        assert sig(via_options) == sig(via_keyword)

    def test_unknown_keyword_rejected_with_valid_names(self, db):
        with pytest.raises(ReproError, match="valid options"):
            db.explain(EXPR, strategee=None)

    def test_explain_charges_nothing(self, db):
        baseline = db.count(EXPR)  # free oracle for comparison
        db.explain(EXPR)
        assert db.count(EXPR) == baseline
