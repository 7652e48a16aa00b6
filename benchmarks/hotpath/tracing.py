"""Span tracing from outside the program: run-time wrappers, self times.

The per-layer numbers of the hot-path benchmark come from one extra
*traced pass* per workload.  For that pass only, the public entry points
of every layer under ``src/repro/`` are replaced — as class (or module)
attributes — by wrappers that record one span per call: a label, start,
end, the span that caused it, and the number of stream elements the call
carried.  Nothing inside ``src/`` knows about it; :meth:`Tracer.restore`
puts every attribute back.

A label is ``<layer>/<entry point>`` (``operators.join/process_batch``);
the layer is the module family the callee lives in.  A span's *self time*
is its duration minus the durations of its direct children, so the self
times of all spans add up to the time covered by root spans, and the
share of the pass wall they cover is the trace's *coverage*.  Wrapper
cost lands in the *parent's* self time (the clock reads bracket only the
callee); ``trace.overhead_ratio`` states how much slower the traced pass
ran, which is why end-to-end metrics never come from it.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from typing import Callable, Dict, List, Tuple

_MISSING = object()

#: Module of an ``Operator`` subclass → layer label.  Classes from modules
#: not listed (a future operator file) fall under ``operators.other``.
OPERATOR_LAYERS = {
    "repro.operators.window": "operators.window",
    "repro.operators.filter": "operators.stateless",
    "repro.operators.project": "operators.stateless",
    "repro.operators.union": "operators.stateless",
    "repro.plans.fusion": "operators.stateless",
    "repro.operators.join": "operators.join",
    "repro.operators.aggregate": "operators.aggregate",
    "repro.operators.duplicate": "operators.distinct",
    "repro.engine.box": "engine.router",
    "repro.core.split": "core.split",
    "repro.core.coalesce": "core.coalesce",
    "repro.core.fluid": "core.router",
}


class Tracer:
    """Records spans into parallel arrays; installs and removes wrappers."""

    def __init__(self) -> None:
        self.labels: List[str] = []
        self._label_ids: Dict[str, int] = {}
        self.label = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.items = array("q")
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def _label_id(self, label: str) -> int:
        found = self._label_ids.get(label)
        if found is None:
            found = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return found

    def wrap(self, label: str, fn: Callable, size_arg: object = 0) -> Callable:
        """A wrapper around ``fn`` recording one span per call.

        ``size_arg`` says how many stream elements a call carries: an int
        is a constant (1 for ``process``, 0 for heartbeats), a tuple
        ``("len", k)`` takes ``len(args[k])`` (batches), and
        ``("name", k)`` keeps the count at 0 but appends ``args[k].name``
        to the label (``start_migration`` per strategy).
        """
        labels, starts, ends = self.label, self.start, self.end
        parents, items, stack = self.parent, self.items, self._stack
        clock = time.perf_counter_ns
        fixed_id = self._label_id(label)
        mode, position = size_arg if isinstance(size_arg, tuple) else ("fixed", 0)
        fixed_size = size_arg if mode == "fixed" else 0

        def traced(*args, **kwargs):
            index = len(starts)
            if mode == "name":
                labels.append(self._label_id(f"{label}:{args[position].name}"))
            else:
                labels.append(fixed_id)
            parents.append(stack[-1] if stack else -1)
            items.append(len(args[position]) if mode == "len" else fixed_size)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced, newest first."""
        while self._patched:
            owner, attribute, previous = self._patched.pop()
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    # ------------------------------------------------------------------ #
    # The patch table: every layer's public entry points
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Patch the entry points of service → engine → operators → core → streams.

        Raw callables are resolved for *all* targets before the first
        attribute is replaced, so a subclass that inherits an entry point
        wraps the original function, never its parent's wrapper.
        """
        from repro.core import strategy as strategy_module
        from repro.core.reference_point import _OldOutputMonitor, _ReferencePointFilter
        from repro.core.strategy import MigrationStrategy
        from repro.cql import translate
        from repro.engine.box import OutputGate
        from repro.engine.executor import QueryExecutor
        from repro.operators import base as operator_base
        from repro.optimizer.optimizer import ReOptimizer
        from repro.plans.physical import PhysicalBuilder
        from repro.service import controller, ingest, registry
        from repro.streams.sinks import CollectorSink

        targets: List[Tuple[object, str, str, object]] = [
            (translate, "compile_query", "cql/compile_query", 0),
            (registry, "compile_query", "cql/compile_query", 0),
            (PhysicalBuilder, "build", "plans/build", 0),
            (ReOptimizer, "decide", "optimizer/decide", 0),
            (strategy_module, "select_strategy", "core.select/select_strategy", 0),
            (ingest.IngestHub, "push", "service.hub/push", 1),
            (ingest.IngestHub, "finish", "service.hub/finish", 0),
            (controller.AutonomicController, "on_progress", "service.controller/on_progress", 0),
            (QueryExecutor, "push", "engine.executor/push", 1),
            (QueryExecutor, "push_batch", "engine.executor/push_batch", ("len", 2)),
            (QueryExecutor, "advance", "engine.executor/advance", 0),
            (QueryExecutor, "finish", "engine.executor/finish", 0),
            (QueryExecutor, "start_migration", "engine.executor/start_migration", ("name", 2)),
            (OutputGate, "process", "engine.gate/process", 1),
            (OutputGate, "process_batch", "engine.gate/process_batch", 0),
            (OutputGate, "process_heartbeat", "engine.gate/process_heartbeat", 0),
            (CollectorSink, "process", "streams.sink/process", 1),
            (CollectorSink, "process_heartbeat", "streams.sink/process_heartbeat", 0),
        ]
        for sink_class in (_ReferencePointFilter, _OldOutputMonitor):
            targets.append((sink_class, "process", "core.strategy/rp_output", 0))
            targets.append((sink_class, "process_heartbeat", "core.strategy/rp_output", 0))
        for cls in _concrete_subclasses(MigrationStrategy):
            targets.append((cls, "begin", "core.strategy/begin", 0))
            targets.append((cls, "after_event", "core.strategy/after_event", 0))
        for cls in _concrete_subclasses(operator_base.Operator):
            if cls.__module__ == operator_base.__name__:
                continue
            layer = OPERATOR_LAYERS.get(cls.__module__, "operators.other")
            targets.append((cls, "process", f"{layer}/process", 1))
            targets.append((cls, "process_batch", f"{layer}/process_batch", ("len", 1)))
            targets.append((cls, "process_heartbeat", f"{layer}/process_heartbeat", 0))
        resolved = [
            (owner, attribute, vars(owner).get(attribute, _MISSING),
             inspect.getattr_static(owner, attribute), label, size_arg)
            for owner, attribute, label, size_arg in targets
        ]
        for owner, attribute, previous, raw, label, size_arg in resolved:
            self._patched.append((owner, attribute, previous))
            setattr(owner, attribute, self.wrap(label, raw, size_arg))

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #

    def mark(self) -> int:
        """The number of spans recorded so far (a phase boundary)."""
        return len(self.start)

    def summarise(self, first: int = 0, last: int = -1) -> Dict[str, Dict[str, float]]:
        """Per label: calls, self seconds, total seconds, elements in/out.

        ``items_from_operators`` counts the elements a span received from
        an ``operators.*`` parent — what the operator layer emitted.
        Only spans ``first <= index < last`` are summarised; a parent
        outside the range contributes nothing, which is exact when the
        range boundaries fall between root spans.
        """
        last = len(self.start) if last < 0 else last
        children = [0] * (last - first)
        summary: Dict[int, List[float]] = {}
        operator_label = [name.startswith("operators.") for name in self.labels]
        label, start, end, parent, items = (
            self.label, self.start, self.end, self.parent, self.items,
        )
        # Children carry higher indices than their parents, so walking
        # backwards sees every child before its parent's self time is read.
        for index in range(last - 1, first - 1, -1):
            duration = end[index] - start[index]
            above = parent[index]
            if above >= first:
                children[above - first] += duration
            row = summary.get(label[index])
            if row is None:
                row = summary[label[index]] = [0, 0, 0, 0, 0, 0]
            row[0] += 1
            row[1] += duration - children[index - first]
            row[2] += duration
            row[3] += items[index]
            if above >= 0 and operator_label[label[above]]:
                row[4] += items[index]
            if above < first:
                row[5] += duration
        return {
            self.labels[label_id]: {
                "calls": row[0],
                "self_s": row[1] / 1e9,
                "total_s": row[2] / 1e9,
                "items": row[3],
                "items_from_operators": row[4],
                "root_s": row[5] / 1e9,
            }
            for label_id, row in sorted(summary.items())
        }

    def dump(self, path: str, workload: str, origin_ns: int) -> None:
        """Write every span as columns (times in ns since ``origin_ns``)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": workload,
                    "labels": self.labels,
                    "label": self.label.tolist(),
                    "start_ns": [t - origin_ns for t in self.start],
                    "end_ns": [t - origin_ns for t in self.end],
                    "parent": self.parent.tolist(),
                    "items": self.items.tolist(),
                },
                handle,
                separators=(",", ":"),
            )


def _concrete_subclasses(base: type) -> List[type]:
    """Every instantiable ``repro`` subclass of ``base``, parents first.

    Private helper bases (``_JoinBase``, ``_MappingWindow``) and the PN /
    analysis variants are skipped: an override reaching them through
    ``super()`` must not open a second span for the same call.
    """
    found: List[type] = []
    frontier = list(base.__subclasses__())
    while frontier:
        cls = frontier.pop(0)
        frontier.extend(cls.__subclasses__())
        module = cls.__module__
        if cls in found or cls.__name__.startswith("_"):
            continue
        if module.startswith(("repro.pn", "repro.analysis")) or not module.startswith("repro."):
            continue
        found.append(cls)
    return found


def layer_of(label: str) -> str:
    """The layer part of a span label."""
    return label.split("/", 1)[0]
