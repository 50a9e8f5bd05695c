"""Tracing — capture a run's structured event stream and replay it.

Every time-constrained run emits typed events from every layer — the
strategy's stage sizing, the executor's stage lifecycle, the plan's scan
and operator advances, the selectivity revisions — into whatever sink the
caller passes. This example records one run in memory, narrates its stages
from the events alone, then writes the same run to a JSONL file and parses
it back into typed events.

Run:  python examples/tracing.py
"""

from __future__ import annotations

import os
import tempfile

from repro import (
    Database,
    JsonlSink,
    MachineProfile,
    OneAtATimeInterval,
    RecordingSink,
    cmp,
    rel,
    select,
)
from repro.observability import (
    FractionChosen,
    QueryEnd,
    ScanAdvance,
    SelectivityRevision,
    StageEnd,
    read_jsonl_trace,
)


def build_database(seed: int = 7) -> Database:
    db = Database(profile=MachineProfile.sun3_60(), seed=seed)
    db.create_relation(
        "orders",
        [("order_id", "int"), ("qty", "int")],
        rows=((i, i % 100) for i in range(20_000)),
        block_size=256,
    )
    return db


def main() -> None:
    db = build_database()
    query = select(rel("orders"), cmp("qty", ">", 90))
    quota = 10.0

    # ------------------------------------------------------------------
    # 1. Record a run in memory and narrate it from the events alone.
    # ------------------------------------------------------------------
    sink = RecordingSink()
    result = db.estimate(query, quota=quota, seed=3, sink=sink)

    print(f"COUNT estimate {result.value:.0f} in {quota:g}s "
          f"({result.stages} stages, {len(sink)} trace events)\n")

    sizing = {e.stage: e for e in sink.of_kind(FractionChosen)}
    for end in sink.of_kind(StageEnd):
        chose = sizing[end.stage]
        flag = "" if end.completed_in_time else "  <-- overspent"
        print(
            f"stage {end.stage}: sized in {chose.bisection_iterations} "
            f"bisection steps to f={end.fraction:.4f}, read "
            f"{end.blocks_read} blocks in "
            f"{end.duration:.2f}s, estimate {end.estimate_value:.0f}{flag}"
        )

    print("\nselectivity revisions (Figure 3.3):")
    for rev in sink.of_kind(SelectivityRevision):
        print(
            f"  stage {rev.stage} {rev.operator}: {rev.tuples} tuples / "
            f"{rev.points} points  (sel was {rev.sel_prev:.3f})"
        )

    blocks = sum(e.new_blocks for e in sink.of_kind(ScanAdvance))
    terminated = sink.of_kind(QueryEnd)[0].termination
    print(f"\ntotal sampled blocks {blocks}, termination: {terminated}")

    # ------------------------------------------------------------------
    # 2. Same run to a JSONL file, then back into typed events.
    # ------------------------------------------------------------------
    path = os.path.join(tempfile.mkdtemp(), "trace.jsonl")
    with JsonlSink(path) as jsonl:
        db.estimate(query, quota=quota, seed=3, sink=jsonl)
        written = jsonl.events_written

    replayed = read_jsonl_trace(path)
    assert [e.to_dict() for e in replayed] == [e.to_dict() for e in sink]
    print(f"\n{written} events round-tripped through {path}")


if __name__ == "__main__":
    main()
