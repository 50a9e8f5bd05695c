"""Preemption benchmark — stage-granular EDF preemption on vs off.

The acceptance experiment for ``repro.server.preempt``: an open-loop
mixed-deadline stream — a loose intersection query (10s window) arriving
every period with a tight selection (4.5s window) landing half a second
behind it — is served twice on the same simulated clock:

* **preempt on** — ``QueryServer(preempt=True)``: when the tight request
  arrives, the scheduler checkpoints the loose runner at its next stage
  boundary, serves the tight request inside its own window, then resumes
  the loose run from its banked snapshot with its residual budget;
* **preempt off** — run-to-completion: the tight request queues behind
  the loose runner's whole budget and its deadline expires in the queue.

Every request in both arms gets an answer attempt (``AdmitAll``), so the
deadline hit-ratio differences are pure scheduling. Stages are sized by
``FixedFractionHeuristic`` so boundaries stay frequent (γ of the residual
budget per stage) no matter how the adaptive cost model calibrates — the
preemption point only exists at stage boundaries, which makes boundary
cadence the lever that decides whether a tight window is reachable at all.

The headline claim: preempt-on strictly improves the overall deadline
hit-ratio (floor asserted below) and rescues the tight class outright,
without costing the loose class its answers. Both arms' metrics land in
``BENCH_preempt.json`` at the repo root (uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import pathlib
import random

from repro.relational.expression import intersect, rel, select
from repro.relational.predicate import cmp
from repro.server.admission import AdmitAll
from repro.server.request import QueryRequest, RequestOutcome
from repro.server.scheduler import QueryServer
from repro.server.workload import demo_database
from repro.timecontrol.strategies import FixedFractionHeuristic

from .conftest import BENCH_RUNS

TUPLES = 1_000
DB_SEED = 5
WORKLOAD_SEED = 7
PERIOD = 12.0  # seconds between loose arrivals (one pair per period)
LOOSE_QUOTA = 10.0
TIGHT_QUOTA = 4.5
TIGHT_LAG = 0.5  # tight request lands this long after the loose one
PAIRS = max(6, BENCH_RUNS // 8)
REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_preempt.json"

# Asserted floors: the improvement must survive seed jitter with margin.
MIN_HIT_RATIO_GAIN = 0.3
MIN_TIGHT_CLASS_GAIN = 0.5


def mixed_deadline_stream() -> list[QueryRequest]:
    """One loose + one tight request per period, jittered per pair.

    Open-loop: every arrival time is fixed up front, independent of how
    the server is doing — pressure does not politely wait for the runner.
    """
    rng = random.Random(WORKLOAD_SEED)
    requests = []
    for i in range(PAIRS):
        base = PERIOD * i
        requests.append(
            QueryRequest(
                expr=intersect(rel("r1"), rel("r2")),
                quota=LOOSE_QUOTA,
                arrival=base,
                seed=rng.randrange(1, 10_000),
                client_id="loose",
                request_id=f"loose/{i}",
            )
        )
        requests.append(
            QueryRequest(
                expr=select(rel("r1"), cmp("a", "<", rng.randrange(450, 750))),
                quota=TIGHT_QUOTA,
                arrival=base + TIGHT_LAG,
                seed=rng.randrange(1, 10_000),
                client_id="tight",
                request_id=f"tight/{i}",
            )
        )
    return requests


def serve_stream(preempt: bool) -> QueryServer:
    """Serve the identical mixed-deadline stream with preemption on/off."""
    database = demo_database(seed=DB_SEED, tuples=TUPLES)
    server = QueryServer(
        database,
        policy=AdmitAll(),
        preempt=preempt,
        strategy_factory=lambda: FixedFractionHeuristic(),
    )
    server.process(mixed_deadline_stream())
    return server


def class_hit_ratio(outcomes: list[RequestOutcome], client_id: str) -> float:
    mine = [o for o in outcomes if o.request.client_id == client_id]
    return sum(1 for o in mine if o.answered) / len(mine)


def arm_report(server: QueryServer) -> dict:
    return {
        "metrics": server.metrics.as_dict(),
        "hit_ratio_admitted": server.metrics.hit_ratio_admitted,
        "tight_hit_ratio": class_hit_ratio(server.outcomes, "tight"),
        "loose_hit_ratio": class_hit_ratio(server.outcomes, "loose"),
        "simulated_span_seconds": server.clock.now(),
    }


def test_preemption_improves_deadline_hit_ratio():
    on = serve_stream(preempt=True)
    off = serve_stream(preempt=False)

    hit_on = on.metrics.hit_ratio_admitted
    hit_off = off.metrics.hit_ratio_admitted
    tight_on = class_hit_ratio(on.outcomes, "tight")
    tight_off = class_hit_ratio(off.outcomes, "tight")
    loose_on = class_hit_ratio(on.outcomes, "loose")
    loose_off = class_hit_ratio(off.outcomes, "loose")

    report = {
        "settings": {
            "pairs": PAIRS,
            "period_seconds": PERIOD,
            "loose_quota_seconds": LOOSE_QUOTA,
            "tight_quota_seconds": TIGHT_QUOTA,
            "tight_lag_seconds": TIGHT_LAG,
            "tuples": TUPLES,
            "db_seed": DB_SEED,
            "workload_seed": WORKLOAD_SEED,
            "strategy": FixedFractionHeuristic().describe(),
            "min_hit_ratio_gain": MIN_HIT_RATIO_GAIN,
            "min_tight_class_gain": MIN_TIGHT_CLASS_GAIN,
        },
        "preempt_on": arm_report(on),
        "preempt_off": arm_report(off),
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print()
    print(f"{PAIRS} loose/tight pairs, period {PERIOD:g}s:")
    print(
        f"  preempt on : hit-ratio {hit_on:.3f} "
        f"(tight {tight_on:.3f}, loose {loose_on:.3f}), "
        f"{on.metrics.preempted} preempted / {on.metrics.resumed} resumed"
    )
    print(
        f"  preempt off: hit-ratio {hit_off:.3f} "
        f"(tight {tight_off:.3f}, loose {loose_off:.3f})"
    )
    print(f"  report: {REPORT_PATH}")

    # The mechanism really fired: this is a preemption benchmark, not a
    # lucky schedule.
    assert on.metrics.preempted > 0
    assert on.metrics.resumed == on.metrics.preempted
    assert off.metrics.preempted == 0
    # The acceptance bar: preemption buys a real hit-ratio improvement...
    assert hit_on is not None and hit_off is not None
    assert hit_on - hit_off >= MIN_HIT_RATIO_GAIN, (
        f"preempt-on must beat run-to-completion by >= {MIN_HIT_RATIO_GAIN}; "
        f"measured on {hit_on:.3f} vs off {hit_off:.3f}"
    )
    # ...concentrated where it should be: the tight class is rescued...
    assert tight_on - tight_off >= MIN_TIGHT_CLASS_GAIN, (
        f"tight-deadline class must gain >= {MIN_TIGHT_CLASS_GAIN}; "
        f"measured on {tight_on:.3f} vs off {tight_off:.3f}"
    )
    # ...without sacrificing the loose class it suspends.
    assert loose_on >= loose_off
    # Every request ended in a typed outcome in both arms.
    assert on.metrics.completed == 2 * PAIRS
    assert off.metrics.completed == 2 * PAIRS
