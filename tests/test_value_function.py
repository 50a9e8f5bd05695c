"""Tests for the value-function soft deadline and the memory profile."""

import pytest

from repro.errors import TimeControlError
from repro.estimation.estimate import Estimate
from repro.timecontrol.stopping import StopState, ValueFunction
from repro.timekeeping.profile import CostKind, MachineProfile


def plateau_then_decay(soft: float, grace: float):
    return lambda t: max(0.0, 1.0 - max(t - soft, 0.0) / grace)


def state(elapsed, estimate, stage=2, last_stage=0.0):
    return StopState(
        stage=stage,
        remaining_seconds=100.0,
        estimate=estimate,
        estimate_history=[estimate] if estimate else [],
        elapsed_seconds=elapsed,
        last_stage_seconds=last_stage,
    )


class TestValueFunctionCriterion:
    def test_requires_value_callable(self):
        with pytest.raises(TimeControlError):
            ValueFunction(value=None)
        with pytest.raises(TimeControlError):
            ValueFunction(value=lambda t: 1.0, confidence=2.0)

    def test_keeps_going_on_plateau_with_loose_estimate(self):
        criterion = ValueFunction(value=plateau_then_decay(soft=10.0, grace=5.0))
        loose = Estimate(value=100.0, variance=900.0)  # wide CI
        # Well inside the plateau: another stage costs no value, gains
        # precision → continue.
        assert not criterion.should_stop(
            state(elapsed=2.0, estimate=loose, last_stage=1.0)
        )

    def test_stops_deep_in_decay(self):
        criterion = ValueFunction(value=plateau_then_decay(soft=1.0, grace=2.0))
        tight = Estimate(value=100.0, variance=1.0)
        # Past the soft point, steep decay, already precise → stop.
        assert criterion.should_stop(
            state(elapsed=2.5, estimate=tight, last_stage=1.5)
        )

    def test_exact_estimate_stops(self):
        criterion = ValueFunction(value=lambda t: 1.0)
        exact = Estimate(value=5.0, variance=0.0, exact=True)
        assert criterion.should_stop(state(elapsed=1.0, estimate=exact))

    def test_no_estimate_continues(self):
        criterion = ValueFunction(value=lambda t: 1.0)
        assert not criterion.should_stop(state(elapsed=1.0, estimate=None))

    def test_constant_value_never_stops_while_imprecise(self):
        criterion = ValueFunction(value=lambda t: 1.0)
        loose = Estimate(value=100.0, variance=400.0)
        assert not criterion.should_stop(
            state(elapsed=3.0, estimate=loose, last_stage=1.0)
        )

    def test_end_to_end_stops_before_quota(self):
        """On a live database, a decaying value function ends the run while
        plenty of quota remains."""
        from repro.core.database import Database
        from repro.relational.expression import rel, select
        from repro.relational.predicate import cmp
        from repro.timecontrol.strategies import OneAtATimeInterval

        db = Database(
            profile=MachineProfile.sun3_60(noise_sigma=0.1).scaled(0.1),
            seed=5,
        )
        db.create_relation(
            "r1",
            [("id", "int"), ("a", "int")],
            rows=[(i, i % 10) for i in range(600)],
            block_size=16,
        )
        result = db.estimate(
            select(rel("r1"), cmp("a", "<", 4)),
            quota=60.0,
            strategy=OneAtATimeInterval(d_beta=24.0),
            stopping=ValueFunction(value=plateau_then_decay(soft=0.5, grace=1.0)),
            seed=3,
        )
        assert result.termination in ("stopping_criterion", "exhausted")
        elapsed = sum(s.duration for s in result.report.stages)
        assert elapsed < 10.0  # stopped long before the 60 s quota


class TestMainMemoryProfile:
    def test_disk_reads_unchanged(self):
        disk = MachineProfile.sun3_60()
        memory = MachineProfile.sun3_60_main_memory()
        assert memory.rate(CostKind.BLOCK_READ) == disk.rate(CostKind.BLOCK_READ)

    def test_processing_much_cheaper(self):
        disk = MachineProfile.sun3_60()
        memory = MachineProfile.sun3_60_main_memory()
        assert memory.rate(CostKind.TEMP_WRITE) < disk.rate(CostKind.TEMP_WRITE) / 10
        assert memory.rate(CostKind.SORT_TUPLE) < disk.rate(CostKind.SORT_TUPLE)
        assert memory.rate(CostKind.STAGE_OVERHEAD) == disk.rate(
            CostKind.STAGE_OVERHEAD
        )

    def test_memory_machine_evaluates_more_blocks(self):
        """The paper's prediction: with processing in memory, the same
        quota buys a larger sample."""
        from repro.workloads.paper import make_intersection_setup
        from repro.timecontrol.strategies import OneAtATimeInterval

        blocks = {}
        for label, profile in (
            ("disk", MachineProfile.sun3_60()),
            ("memory", MachineProfile.sun3_60_main_memory()),
        ):
            setup = make_intersection_setup(seed=3, profile=profile)
            total = 0
            for i in range(10):
                result = setup.database.estimate(
                    setup.query,
                    quota=setup.quota,
                    strategy=OneAtATimeInterval(d_beta=12.0),
                    seed=400 + i,
                )
                total += result.blocks
            blocks[label] = total / 10
        assert blocks["memory"] > blocks["disk"]
