"""The run protocol: set-up, timed passes, traced passes, metrics.

One run measures one workload. A timed run is :data:`SETUPS` *epochs*:
each sets the workload up from nothing and then runs the op list over and
over for its share of the requested seconds. Op ``i`` does identical work
in every pass of every epoch, so its latency is the *minimum* over all of
them and percentiles are taken over ops afterwards. The shared box this
runs on slows down by half for five to forty seconds at a time; a pass is
kept short and repeated often so that every op meets a quiet moment. Set-up
is repeated work too, so its time is the minimum over the epochs.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from bench.check import (
    BenchmarkError,
    OpResult,
    first_difference,
    malformed,
    usable,
)
from bench.trace import Tracer
from bench.workloads import Pass

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3

_clock = time.perf_counter


def spec() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_passes(
    workload, seconds: float, tracer: Tracer | None = None
) -> list[Pass]:
    """Whole passes until ``seconds`` are used up (at least one)."""
    passes: list[Pass] = []
    begin = _clock()
    while True:
        passes.append(workload.run_pass(tracer))
        if tracer is not None:
            # Totals keep adding up; the span file holds the first pass.
            tracer.keep_spans = False
        elapsed = _clock() - begin
        # Stop when the next pass would end further from the target than
        # this one did.
        if elapsed + 0.5 * elapsed / len(passes) > seconds:
            return passes


def require_identical(reference: Pass, others: Sequence[Pass], what: str) -> None:
    for number, other in enumerate(others, start=2):
        difference = first_difference(reference.results, other.results)
        if difference is not None:
            raise BenchmarkError(
                f"determinism guard: {what} {number} differs from the first "
                f"pass — {difference}"
            )


def judge(
    results: Sequence[OpResult], truths: Sequence[float]
) -> tuple[int, list[str]]:
    """``(failed, reasons)``: wrong answers, and direct calls with none."""
    reasons = []
    for index, (result, exact) in enumerate(zip(results, truths)):
        reason = malformed(result, exact)
        if reason is None and result.outcome == "estimate" and not result.has_estimate:
            reason = "estimate() returned no estimate"
        if reason is not None:
            reasons.append(f"op {index}: {reason}")
    return len(reasons), reasons


def end_to_end(
    passes: Sequence[Pass], truths: Sequence[float], setup_s: float
) -> dict[str, float]:
    results = passes[0].results
    ops = len(results)
    latency = np.min([p.latencies for p in passes], axis=0)
    latency_ms = 1e3 * latency
    # A pass with every op, and every stretch between ops, at its best:
    # steadier than the fastest whole pass, which one slow moment spoils.
    fastest = float(
        latency.sum() + np.min([p.between for p in passes], axis=0).sum()
    )
    answered = [(r, t) for r, t in zip(results, truths) if r.has_estimate]
    # A degraded answer is looked up, not sampled: its error is another
    # quantity, and a third of the server's answers are of that kind.
    sampled = [(r, t) for r, t in answered if r.blocks_read]
    good = sum(
        usable(r) and malformed(r, t) is None for r, t in zip(results, truths)
    )
    return {
        "setup_s": setup_s,
        "wall_ms_p50": float(np.percentile(latency_ms, 50)),
        "wall_ms_p95": float(np.percentile(latency_ms, 95)),
        "ops_per_s": ops / fastest,
        "blocks_per_wall_s": sum(r.blocks_read for r in results) / fastest,
        "wall_s_per_charged_s": fastest / sum(r.charged_s for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "blocks_in_quota_mean": sum(r.blocks_in_quota for r in results) / ops,
        "rel_error_p50": statistics.median(
            r.relative_error(t) for r, t in sampled
        ),
        "ci95_coverage": sum(r.covers(t) for r, t in answered) / len(answered),
        "in_quota_share": 1.0 - sum(r.late for r in results) / ops,
        "ok_share": good / ops,
    }


def _hit_ratio(passes: Sequence[Pass], cache: str) -> float:
    hits = sum(p.caches[cache][0] for p in passes)
    misses = sum(p.caches[cache][1] for p in passes)
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(
    tracer: Tracer, traced: Sequence[Pass], untraced_wall: float
) -> dict[str, float]:
    results = traced[0].results  # the same in every pass
    per_pass = len(results)
    ops = per_pass * len(traced)
    metrics = tracer.layer_metrics(ops)
    stages = sum(r.stages for r in results)
    blocks = sum(r.blocks_read for r in results)
    ran = [r for r in results if r.stages]
    metrics.update(
        {
            "timecontrol.stages_per_op": stages / per_pass,
            "timecontrol.predict_calls_per_stage": (
                tracer.totals["engine.predict_stage"][0] / len(traced) / stages
            ),
            "timecontrol.quota_utilization": sum(r.utilization for r in ran)
            / len(ran),
            "timecontrol.useful_block_ratio": sum(
                r.blocks_in_quota for r in results
            )
            / blocks,
            "engine.blocks_read_per_op": blocks / per_pass,
            "engine.output_rows_per_op": sum(r.output_rows for r in results)
            / per_pass,
            "storage.pool_hit_ratio": _hit_ratio(traced, "bufferpool"),
            "storage.pool_evictions_per_op": sum(
                p.caches["bufferpool"][2] for p in traced
            )
            / ops,
            "planner.plan_cache_hit_ratio": _hit_ratio(traced, "plans"),
            "kernels.cache_hit_ratio": _hit_ratio(traced, "kernels"),
            "core.sessions_per_op": tracer.totals["core.open_session"][0] / ops,
            "trace.overhead_ratio": min(p.wall for p in traced) / untraced_wall
            - 1.0,
        }
    )
    from repro.server import Outcome

    served = traced[0].server or {}
    outcomes = served.get("outcomes", {})
    submitted = sum(outcomes.values())
    metrics["server.queue_wait_sim_s_mean"] = served.get("mean_queue_wait", 0.0)
    metrics["server.hit_ratio_admitted"] = served.get("hit_ratio_admitted") or 0.0
    for outcome in Outcome:
        metrics[f"server.outcome.{outcome.value}"] = (
            outcomes.get(outcome.value, 0) / submitted if submitted else 0.0
        )
    return metrics


def timed_run(
    workload, seed: int, seconds: float, setups: int = SETUPS, gate=None
) -> dict[str, Any]:
    """``--trace 0``: the end-to-end metrics, tracer never installed.

    ``gate`` (a :class:`bench.host.QuietGate`) is asked before each epoch
    whether the host is fit to measure on.
    """
    setup_times = []
    passes: list[Pass] = []
    measured = 0.0
    for epoch in range(1, setups + 1):
        if gate is not None:
            gate.wait()
        begin = _clock()
        workload.setup(seed)
        ready = _clock()
        setup_times.append(ready - begin)
        # What the epochs before it left over or overran is this one's.
        passes += run_passes(workload, seconds * epoch / setups - measured)
        measured += _clock() - ready
    require_identical(passes[0], passes[1:], "timed pass")
    failed, reasons = judge(passes[0].results, workload.truths)
    return {
        "metrics": end_to_end(
            passes, workload.truths, min(setup_times)
        ),
        "attempted": len(passes[0].results) * len(passes),
        "failed": failed * len(passes),
        "failures": reasons[:10],
        "setup_s_all": setup_times,
        "pass_walls_s": [p.wall for p in passes],
    }


def traced_run(
    workload, seed: int, seconds: float, trace_path: Path, gate=None
) -> dict[str, Any]:
    """``--trace 1``: one untraced reference pass, then traced passes."""
    if gate is not None:
        gate.wait()
    workload.setup(seed)
    reference = workload.run_pass()
    tracer = Tracer()
    traced = run_passes(workload, seconds - reference.wall, tracer)
    require_identical(reference, traced, "traced pass")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(trace_path)
    failed, reasons = judge(traced[0].results, workload.truths)
    return {
        "metrics": per_layer(tracer, traced, reference.wall),
        "attempted": len(traced[0].results) * len(traced),
        "failed": failed * len(traced),
        "failures": reasons[:10],
        "pass_walls_s": [p.wall for p in traced],
        "untraced_pass_wall_s": reference.wall,
        "trace_file": str(trace_path),
        "spans": len(tracer.spans),
    }
