"""The tracer: self-time arithmetic, leaf timers, restoration, span trees."""

from __future__ import annotations

import json

import pytest

from bench.protocol import spec
from bench.trace import ROOT_SPAN, SPAN_NAMES, TARGETS, Target, Tracer, _resolve


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def grandchild():
        clock.work(2.0)

    grandchild = tracer.wrap("grandchild", grandchild)

    def child():
        clock.work(1.0)
        grandchild()
        clock.work(1.0)

    child = tracer.wrap("child", child)

    def parent():
        clock.work(3.0)
        child()
        child()
        clock.work(0.5)

    parent = tracer.wrap("parent", parent)

    with tracer.op(7):
        clock.work(0.25)
        parent()

    # parent: 3 + 2 * (1 + 2 + 1) + 0.5 = 11.5 in all, 3.5 of its own
    assert tracer.totals["parent"] == [1, pytest.approx(3.5), pytest.approx(11.5)]
    assert tracer.totals["child"] == [2, pytest.approx(4.0), pytest.approx(8.0)]
    assert tracer.totals["grandchild"] == [2, pytest.approx(4.0), pytest.approx(4.0)]
    assert tracer.totals[ROOT_SPAN][1] == pytest.approx(0.25)
    assert tracer.op_wall == pytest.approx(11.75)
    # Self times of one op add up to the op's wall time.
    assert sum(total[1] for total in tracer.totals.values()) == pytest.approx(
        tracer.op_wall
    )


def test_leaf_timer_counts_without_span_records():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.work(0.5), record=False)

    def span():
        clock.work(1.0)
        for _ in range(4):
            leaf()

    span = tracer.wrap("span", span)
    with tracer.op(0):
        span()

    assert tracer.totals["leaf"][:2] == [4, pytest.approx(2.0)]
    # The leaf's time is taken out of the span that called it.
    assert tracer.totals["span"][:2] == [1, pytest.approx(1.0)]
    assert [record[3] for record in tracer.spans] == ["span", ROOT_SPAN]


def test_outermost_wrapper_times_a_nest_of_operators_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Operator:
        def __init__(self, child=None):
            self.child = child

        def advance(self):
            clock.work(1.0)
            if self.child is not None:
                self.child.advance()

    Operator.advance = tracer._wrap_outermost("operator", Operator.advance)
    with tracer.op(0):
        Operator(Operator(Operator())).advance()
        Operator().advance()

    assert tracer.totals["operator"][:2] == [2, pytest.approx(4.0)]


def _current(target: Target):
    owner, attr = _resolve(target.path)
    return vars(owner).get(attr, "inherited")


def test_every_wrapped_attribute_is_restored_even_when_an_op_raises():
    before = [_current(target) for target in TARGETS]
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="op failed"):
        with tracer.installed():
            during = [_current(target) for target in TARGETS]
            with tracer.op(0):
                raise RuntimeError("op failed")
    after = [_current(target) for target in TARGETS]

    assert all(now is not was for now, was in zip(during, before))
    assert all(now is was for now, was in zip(after, before))
    assert tracer._stack == []


def test_spans_of_one_op_share_its_id_and_form_a_single_tree(tmp_path):
    from repro import Database, cmp, rel

    db = Database(seed=3)
    db.create_relation(
        "t", [("id", "int"), ("a", "int")], [(i, i % 10) for i in range(2_000)]
    )
    tracer = Tracer()
    with tracer.installed():
        for op_id in (0, 1):
            with tracer.op(op_id):
                db.estimate(rel("t").where(cmp("a", "<", 5)), quota=5.0, seed=op_id)

    for op_id in (0, 1):
        spans = {s[0]: s for s in tracer.spans if s[2] == op_id}
        roots = [s for s in spans.values() if s[1] is None]
        assert len(roots) == 1 and roots[0][3] == ROOT_SPAN
        names = {s[3] for s in spans.values()}
        assert {
            "core.open_session",
            "engine.lower",
            "timecontrol.run",
            "timecontrol.choose_fraction",
            "engine.advance_stage",
            "storage.read_blocks",
            "kernels.mask",
        } <= names
        for span_id, parent, _, _, start, end in spans.values():
            assert start <= end
            if parent is not None:
                # The parent belongs to the same op and encloses the child.
                assert parent in spans
                assert spans[parent][4] <= start and end <= spans[parent][5]
    # Leaves are counted but leave no records.
    assert tracer.totals["timekeeping.charge"][0] > 0
    assert not any(s[3] == "timekeeping.charge" for s in tracer.spans)

    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == len(tracer.spans)
    assert set(lines[0]) == {"id", "parent", "op", "name", "start", "end"}


def test_tracing_is_invisible_to_the_program():
    from repro import Database, cmp, rel

    def run(tracer):
        db = Database(seed=3)
        db.create_relation(
            "t", [("id", "int"), ("a", "int")], [(i, i % 10) for i in range(2_000)]
        )
        if tracer is None:
            return db.estimate(rel("t").where(cmp("a", "<", 5)), quota=5.0, seed=1)
        with tracer.installed(), tracer.op(0):
            return db.estimate(rel("t").where(cmp("a", "<", 5)), quota=5.0, seed=1)

    plain, traced = run(None), run(Tracer())
    assert plain.estimate == traced.estimate
    assert plain.report.stages == traced.report.stages


def test_every_span_is_declared_with_its_three_columns():
    declared = {metric["name"] for metric in spec()["per_layer"]}
    for span in SPAN_NAMES:
        assert {f"{span}.calls", f"{span}.self_ms", f"{span}.share"} <= declared
