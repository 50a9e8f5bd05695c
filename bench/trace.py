"""Layer tracing from outside the program.

For the duration of a traced pass, :class:`Tracer` replaces each layer's
public callable (:data:`TARGETS`) with a timing wrapper and puts the
original back afterwards; nothing under ``src/`` knows it is being
measured. Every wrapper keeps the same arithmetic: a span's *self time* is
its duration minus the part its child spans cover, so the self times of
one op add up to the op's wall time and ``share`` columns add up to one.

Two kinds of wrapper exist. A *span* wrapper also appends a record
``(id, parent, op, name, start, end)`` that is written to
``bench/out/<workload>.trace.jsonl`` after the pass. A *leaf* wrapper, for
callables entered hundreds of times per op, only counts calls and
accumulates self time. Both subtract themselves from their parent.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from threading import get_ident
from typing import Any, Callable, Iterator

ROOT_SPAN = "op"


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``module:attr.path`` under a span name.

    ``kind`` is ``span``, ``leaf``, ``outermost`` (a span only when no span
    of the same name is already open, so a tree of operators is timed as
    one) or ``mask`` (the callable is a factory whose result's ``mask_fn``
    is what gets timed).
    """

    span: str
    path: str
    kind: str = "span"


TARGETS: tuple[Target, ...] = (
    Target("core.open_session", "repro.core.database:Database.open_session"),
    Target("core.append_rows", "repro.core.database:Database.append_rows"),
    Target("core.append_rows", "repro.core.database:Database.analyze"),
    Target("planner.plan_logical", "repro.planner.rewrite:plan_logical"),
    Target("engine.lower", "repro.engine.plan:StagedPlan.__init__"),
    Target("engine.predict_stage", "repro.engine.plan:StagedPlan.predict_stage"),
    Target("engine.advance_stage", "repro.engine.plan:StagedPlan.advance_stage"),
    Target("engine.scan_advance", "repro.engine.nodes:StagedScan.advance"),
    Target(
        "engine.operator_advance",
        "repro.engine.nodes:StagedSelect.advance",
        "outermost",
    ),
    Target(
        "engine.operator_advance",
        "repro.engine.nodes:StagedJoin.advance",
        "outermost",
    ),
    Target(
        "engine.operator_advance",
        "repro.engine.nodes:StagedIntersect.advance",
        "outermost",
    ),
    Target(
        "engine.operator_advance",
        "repro.engine.nodes:StagedProject.advance",
        "outermost",
    ),
    Target(
        "timecontrol.run",
        "repro.timecontrol.executor:TimeConstrainedExecutor.run",
    ),
    Target(
        "timecontrol.run",
        "repro.timecontrol.executor:TimeConstrainedExecutor.resume",
    ),
    Target(
        "timecontrol.choose_fraction",
        "repro.timecontrol.strategies:OneAtATimeInterval.choose_fraction",
    ),
    Target("sampling.draw", "repro.sampling.sampler:BlockSampler.draw"),
    Target("storage.read_blocks", "repro.storage.heapfile:HeapFile.read_blocks"),
    Target(
        "storage.read_blocks",
        "repro.storage.heapfile:HeapFile.read_blocks_decoded",
    ),
    Target(
        "storage.read_blocks",
        "repro.storage.partitioned:PartitionedHeapFile.read_sharded",
    ),
    Target(
        "storage.pool_get_or_admit",
        "repro.storage.bufferpool:BufferPool.get_or_admit",
        "leaf",
    ),
    # StagedSelect takes its mask from the compiled predicate it looks up
    # in engine.nodes, so that lookup is where the mask gets its wrapper.
    Target("kernels.mask", "repro.engine.nodes:compiled_predicate", "mask"),
    Target("kernels.runs", "repro.kernels.runs:encode_columns"),
    Target("kernels.runs", "repro.kernels.runs:SortedRun.merge_in"),
    Target("kernels.runs", "repro.kernels.runs:join_new_new"),
    Target("kernels.runs", "repro.kernels.runs:join_vs_run"),
    Target("kernels.runs", "repro.kernels.runs:intersect_new_new"),
    Target("kernels.runs", "repro.kernels.runs:intersect_vs_run"),
    Target("estimation.estimate", "repro.engine.plan:StagedPlan.estimate"),
    Target(
        "estimation.sel_plus",
        "repro.estimation.selectivity:SelectivityTracker.sel_plus",
        "leaf",
    ),
    Target("costmodel.predict", "repro.costmodel.model:CostModel.predict", "leaf"),
    Target("costmodel.observe", "repro.costmodel.model:CostModel.observe", "leaf"),
    Target(
        "timekeeping.charge", "repro.timekeeping.charger:CostCharger.charge", "leaf"
    ),
    Target("server.process", "repro.server.scheduler:QueryServer.process"),
    # The scheduler binds these three by name at import, so its own module
    # is where they are looked up.
    Target("server.admission", "repro.server.scheduler:minimum_stage_cost"),
    Target("server.degrade", "repro.server.scheduler:degraded_estimate"),
    Target("server.degrade", "repro.server.scheduler:synopsis_degraded_estimate"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(t.span for t in TARGETS))
"""Every layer span, in first-mention order (the metric-name prefixes)."""


def _resolve(path: str) -> tuple[Any, str]:
    module_name, _, attr_path = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span stack, per-name totals and the install/restore bookkeeping."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.thread = get_ident()
        # One frame per open wrapper: [seconds covered by children, span id].
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        # name -> [calls, self seconds, seconds including children]
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.op_id = -1
        self.op_wall = 0.0
        self.op_cpu = 0.0
        self._next_id = 0
        self._patches: list[tuple[Any, str, bool, Any]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, record: bool = True) -> Callable:
        """``fn`` timed under ``name``; a span record is kept if ``record``."""
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = self.clock
        thread = self.thread

        def traced(*args, **kwargs):
            if get_ident() != thread:
                # Worker threads have no place in a single span stack;
                # their time stays inside the span that waits for them.
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                total[0] += 1
                total[1] += duration - frame[0]
                total[2] += duration
                if parent is not None:
                    parent[0] += duration
                if record and self.keep_spans:
                    spans.append(
                        (
                            span_id,
                            parent[1] if parent is not None else None,
                            self.op_id,
                            name,
                            start,
                            end,
                        )
                    )

        return traced

    def _wrap_outermost(self, name: str, fn: Callable) -> Callable:
        traced = self.wrap(name, fn)
        open_spans = self._open

        def outermost(*args, **kwargs):
            if open_spans.get(name):
                return fn(*args, **kwargs)
            open_spans[name] = 1
            try:
                return traced(*args, **kwargs)
            finally:
                open_spans[name] = 0

        return outermost

    def _wrap_mask_factory(self, name: str, factory: Callable) -> Callable:
        def compiled(*args, **kwargs):
            result = factory(*args, **kwargs)
            # A copy, so the program's own compile cache keeps the original.
            return dataclasses.replace(
                result, mask_fn=self.wrap(name, result.mask_fn)
            )

        return compiled

    def _wrapper_for(self, target: Target, original: Callable) -> Callable:
        if target.kind == "leaf":
            return self.wrap(target.span, original, record=False)
        if target.kind == "outermost":
            return self._wrap_outermost(target.span, original)
        if target.kind == "mask":
            return self._wrap_mask_factory(target.span, original)
        return self.wrap(target.span, original)

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------
    def install(self) -> None:
        for target in TARGETS:
            owner, attr = _resolve(target.path)
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            setattr(owner, attr, self._wrapper_for(target, original))
            self._patches.append((owner, attr, own, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                # Inherited: the owner had no attribute of its own.
                delattr(owner, attr)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """The root span of one op; everything inside carries ``op_id``."""
        self.op_id = op_id
        total = self.totals.setdefault(ROOT_SPAN, [0, 0.0, 0.0])
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [0.0, span_id]
        self._stack.append(frame)
        cpu = time.thread_time()
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            total[0] += 1
            total[1] += (end - start) - frame[0]
            self.op_wall += end - start
            self.op_cpu += time.thread_time() - cpu
            if self.keep_spans:
                self.spans.append((span_id, None, op_id, ROOT_SPAN, start, end))

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def layer_metrics(self, ops: int) -> dict[str, float]:
        """``<span>.calls`` / ``.self_ms`` (per op) and ``.share`` per span."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            calls, self_s, _ = self.totals.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls / ops
            out[f"{name}.self_ms"] = 1e3 * self_s / ops
            out[f"{name}.share"] = self_s / self.op_wall if self.op_wall else 0.0
        root_self = self.totals.get(ROOT_SPAN, (0, 0.0, 0.0))[1]
        # Stage sizing as the paper times it: choosing the fraction with
        # every prediction made on its behalf.
        sizing = self.totals.get("timecontrol.choose_fraction", (0, 0.0, 0.0))[2]
        out["timecontrol.stage_sizing_share"] = (
            sizing / self.op_wall if self.op_wall else 0.0
        )
        out["op.cpu_ms"] = 1e3 * self.op_cpu / ops
        out["op.unattributed_share"] = (
            root_self / self.op_wall if self.op_wall else 0.0
        )
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op_id, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op_id,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
