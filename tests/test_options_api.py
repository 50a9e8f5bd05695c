"""The estimate/QueryOptions entrypoint: one method, one frozen bundle.

Covers the redesigned public API: ``db.estimate(expr, agg, quota=...)`` as
the single entrypoint, :class:`QueryOptions` as reusable immutable
configuration, per-call keyword overrides beating the bundle, and the
``count()`` aggregate factory.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro import DEFAULT_OPTIONS, QueryOptions
from repro.core.session import QuerySession
from repro.engine.physical import PhysicalPlanBuilder
from repro.engine.plan import StagedPlan
from repro.errors import ReproError
from repro.estimation.aggregates import COUNT, avg_of, count, sum_of
from repro.observability import RecordingSink
from repro.relational.expression import join, rel
from repro.relational.predicate import cmp
from repro.server.workload import demo_database
from repro.timecontrol.executor import TimeConstrainedExecutor
from repro.timecontrol.strategies import (
    FixedFractionHeuristic,
    OneAtATimeInterval,
)

EXPR = rel("r1").where(cmp("a", "<", 5_000))


@pytest.fixture(scope="module")
def db():
    return demo_database(seed=21, tuples=400, analyze=True)


def sig(result):
    report = result.report
    return (
        None if result.estimate is None else result.estimate.value,
        report.termination,
        len(report.stages),
        report.total_blocks,
    )


class TestQueryOptionsValue:
    def test_frozen(self):
        options = QueryOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.max_stages = 2

    def test_default_options_shared_instance(self):
        assert DEFAULT_OPTIONS == QueryOptions()

    def test_replace_returns_modified_copy(self):
        base = QueryOptions()
        changed = base.replace(max_stages=5, trace_costs=True)
        assert changed.max_stages == 5
        assert changed.trace_costs is True
        assert base.max_stages == 64  # original untouched

    def test_replace_rejects_unknown_options(self):
        with pytest.raises(ReproError, match="unknown query option"):
            QueryOptions().replace(strategee=None)

    def test_bad_selectivity_source_rejected(self):
        with pytest.raises(ReproError, match="selectivity_source"):
            QueryOptions(selectivity_source="psychic")

    def test_bad_max_stages_rejected(self):
        with pytest.raises(ReproError, match="max_stages"):
            QueryOptions(max_stages=0)

    def test_bad_block_size_rejected(self):
        # Any block size: a plan uses the database's, no option overrides it.
        with pytest.raises(TypeError):
            QueryOptions(block_size=400)

    def test_fourteen_fields(self):
        assert len(dataclasses.fields(QueryOptions)) == 14

    def test_optimize_is_no_longer_an_option(self):
        # Every session lowers the optimizer's rewrite; a plan of the tree
        # as written is a StagedPlan built over it by hand.
        with pytest.raises(TypeError, match="optimize"):
            QueryOptions(optimize=False)

    @pytest.mark.parametrize("value", [5.0, 0.0, -1.0, float("nan")])
    def test_zero_fix_beta_outside_the_open_unit_interval_rejected(self, value):
        with pytest.raises(ReproError, match=r"zero_fix_beta must be in \(0, 1\)"):
            QueryOptions(zero_fix_beta=value)

    @pytest.mark.parametrize("beta", [0.01, 0.05, 0.25, 0.5, 0.9])
    def test_zero_fix_beta_reaches_every_tracker(self, db, beta):
        # A9's sweep, on a query with one tracker per operator kind it runs.
        expr = join(rel("r1").where(cmp("a", "<", 50)), rel("r2"), on=["a"])
        plan = db.plan(expr, zero_fix_beta=beta)
        assert len(plan.trackers()) == 2
        assert all(t.zero_fix_beta == beta for t in plan.trackers())

    def test_misspelt_initial_selectivity_kind_rejected(self):
        with pytest.raises(
            ReproError,
            match="unknown operator kind 'selct'; "
            "valid kinds: select, join, intersect, project",
        ):
            QueryOptions(initial_selectivities={"selct": 0.1})

    @pytest.mark.parametrize("value", [0.0, -0.5, 1.5, float("nan")])
    def test_initial_selectivity_outside_its_range_rejected(self, value):
        with pytest.raises(
            ReproError, match=r"initial_selectivities\['join'\] must be in \(0, 1\]"
        ):
            QueryOptions(initial_selectivities={"join": value})

    @pytest.mark.parametrize(
        "options, field",
        [
            (dict(initial_selectivities=[("join", 0.1)]), "initial_selectivities"),
            (dict(initial_selectivities="join=0.1"), "initial_selectivities"),
            (dict(initial_selectivities={"join": "0.1"}), r"initial_selectivities\['join'\]"),
            (dict(initial_selectivities={"select": None}), r"initial_selectivities\['select'\]"),
            (dict(initial_selectivities={"join": True}), r"initial_selectivities\['join'\]"),
            (dict(zero_fix_beta="0.5"), "zero_fix_beta"),
            (dict(zero_fix_beta=[0.5]), "zero_fix_beta"),
        ],
        ids=[
            "selectivities-list", "selectivities-str", "selectivity-str",
            "selectivity-none", "selectivity-bool", "beta-str", "beta-list",
        ],
    )
    def test_wrongly_typed_value_names_its_field(self, options, field):
        with pytest.raises(ReproError, match=f"^{field} must be"):
            QueryOptions(**options)

    def test_paper_initial_selectivities_accepted(self):
        from repro.workloads.paper import make_join_setup

        setup = make_join_setup(seed=0, tuples=400)
        options = QueryOptions(initial_selectivities=setup.initial_selectivities)
        (join_node,) = setup.database.plan(setup.query, options).tracked_nodes()
        assert join_node.tracker.initial == setup.initial_selectivities["join"]

    @pytest.mark.parametrize("name", ["synopses"])
    @pytest.mark.parametrize("value", [None, "0", "off", 0, 1])
    def test_non_bool_switch_rejected(self, name, value):
        # The spellings the removed env parser read as "off" are truthy
        # strings; None used to mean "ask the environment".
        with pytest.raises(ReproError, match=f"{name} must be True or False"):
            QueryOptions(**{name: value})
        with pytest.raises(ReproError, match=f"{name} must be True or False"):
            QueryOptions().replace(**{name: value})

    @pytest.mark.parametrize("value", [True, False, 0, 4])
    def test_replace_rejects_removed_partitions_option(self, value):
        # A shard is a label on a block; there is no shard worker count.
        with pytest.raises(ReproError, match="unknown query option.*partitions"):
            QueryOptions().replace(partitions=value)

    @pytest.mark.parametrize("value", [True, False])
    def test_bufferpool_on_off_forms_removed(self, value):
        # No read goes through a pool, so the option is gone in every form.
        with pytest.raises(ReproError, match="unknown query option.*bufferpool"):
            QueryOptions().replace(bufferpool=value)
        with pytest.raises(TypeError, match="bufferpool"):
            QueryOptions(bufferpool=value)


class TestEstimateEntrypoint:
    def test_default_aggregate_is_count(self, db):
        explicit = db.estimate(EXPR, count(), quota=1.0, seed=5)
        implicit = db.estimate(EXPR, quota=1.0, seed=5)
        assert sig(explicit) == sig(implicit)

    def test_count_factory_returns_the_count_spec(self):
        assert count() is COUNT

    def test_equals_open_session_run(self, db):
        one_shot = db.estimate(EXPR, quota=1.0, seed=9)
        session = db.open_session(EXPR, 1.0, seed=9)
        assert sig(session.run()) == sig(one_shot)

    def test_options_bundle_is_reusable(self, db):
        options = QueryOptions(strategy=None, max_stages=3)
        a = db.estimate(EXPR, quota=1.0, seed=3, options=options)
        b = db.estimate(EXPR, quota=1.0, seed=3, options=options)
        assert sig(a) == sig(b)
        assert a.stages <= 3

    def test_keyword_override_beats_the_bundle(self, db):
        def options():
            # Fresh bundle per run: the heuristic strategy is stateful.
            return QueryOptions(
                strategy=FixedFractionHeuristic(gamma=0.3), max_stages=1
            )

        bundled = db.estimate(EXPR, quota=2.0, seed=3, options=options())
        overridden = db.estimate(
            EXPR, quota=2.0, seed=3, options=options(), max_stages=4
        )
        assert bundled.stages == 1
        assert overridden.stages > 1

    def test_options_equal_keywords(self, db):
        via_options = db.estimate(
            EXPR,
            quota=1.0,
            seed=4,
            options=QueryOptions(strategy=FixedFractionHeuristic(gamma=0.4)),
        )
        via_keyword = db.estimate(
            EXPR,
            quota=1.0,
            seed=4,
            strategy=FixedFractionHeuristic(gamma=0.4),
        )
        assert sig(via_options) == sig(via_keyword)

    def test_unknown_keyword_rejected_with_valid_names(self, db):
        with pytest.raises(ReproError, match="valid options"):
            db.estimate(EXPR, quota=1.0, strategee=OneAtATimeInterval())

    def test_aggregate_keyword_compatibility(self, db):
        positional = db.estimate(EXPR, sum_of("b"), quota=1.0, seed=6)
        keyword = db.estimate(EXPR, quota=1.0, seed=6, aggregate=sum_of("b"))
        assert sig(positional) == sig(keyword)

    def test_conflicting_aggregates_rejected(self, db):
        with pytest.raises(ReproError, match="once"):
            db.estimate(
                EXPR, sum_of("b"), quota=1.0, aggregate=avg_of("b")
            )

    def test_plan_uses_the_database_block_size(self, db):
        assert db.open_session(EXPR, 1.0).plan.block_size == db.block_size

    def test_sink_option_receives_events(self, db):
        sink = RecordingSink()
        db.estimate(EXPR, quota=1.0, seed=8, options=QueryOptions(sink=sink))
        assert sink.of_kind("stage_end")

    def test_selectivity_sources_accepted(self, db):
        for source in ("runtime", "hybrid", "prestored"):
            result = db.estimate(
                EXPR, quota=1.0, seed=2, selectivity_source=source
            )
            assert result.report.termination

    def test_open_session_accepts_options_positionally(self, db):
        session = db.open_session(EXPR, 1.0, QueryOptions(max_stages=2))
        result = session.run()
        assert result.stages <= 2

    def test_partitions_is_no_longer_an_option(self, db):
        with pytest.raises(ReproError, match="unknown query option.*partitions"):
            db.open_session(EXPR, 1.0, partitions=2)

    def test_vectorized_is_no_longer_an_option(self, db):
        with pytest.raises(ReproError, match="unknown query option.*vectorized"):
            db.open_session(EXPR, 1.0, vectorized=True)

    @pytest.mark.parametrize(
        "name, value",
        [("step_specs", {}), ("block_size", 400), ("optimize", False)],
    )
    def test_removed_keywords_rejected(self, db, name, value):
        # Custom priors have one spelling: cost_model=CostModel(specs=…).
        with pytest.raises(ReproError, match=f"unknown query option.*{name}"):
            db.open_session(EXPR, 1.0, **{name: value})
        with pytest.raises(ReproError, match=f"unknown query option.*{name}"):
            QueryOptions().replace(**{name: value})


class TestOneSignature:
    """Every per-query option has one default, in ``QueryOptions``: no
    constructor the facade composes re-declares one."""

    @pytest.mark.parametrize(
        "cls",
        [QuerySession, StagedPlan, PhysicalPlanBuilder, TimeConstrainedExecutor],
        ids=lambda cls: cls.__name__,
    )
    def test_no_option_default_is_redeclared(self, cls):
        fields = {f.name for f in dataclasses.fields(QueryOptions)}
        redeclared = [
            p.name
            for p in inspect.signature(cls.__init__).parameters.values()
            if p.name in fields and p.default is not inspect.Parameter.empty
        ]
        assert redeclared == []
