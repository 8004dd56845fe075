"""Spans around the calls into each dyncomm layer, recorded from outside the library.

``install`` wraps every public function (and public classmethod) of the six
dyncomm modules.  A wrapper records a span only when its caller lives in
another module, so a span marks a call that crosses a layer boundary; calls
inside a module stay part of its caller's span.  The CLI is the top layer:
two of its own helpers, ``render_profile_svg`` and the sweep-cell job, are
recorded whoever calls them, and each sweep cell opens its own operation.

Spans stay in memory as ``[name, start, end, parent, op]`` rows (times from
``time.perf_counter``, which on Linux reads the system-wide monotonic clock,
so spans of several processes share one timeline) and are written out once,
when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("temporal_graph", "detection", "metrics", "repair", "generator", "cli")
CLI_ALWAYS = {"render_profile_svg": "cli.render_profile_svg", "_sweep_cell_job": "cli.sweep.cell"}
CELL_SPAN = "cli.sweep.cell"
# Spans whose allocation peak is measured, in a pass of its own.
ALLOC_SPANS = ("temporal_graph.build_temporal_graph", "detection.ModularityView")


def _view_edges(view) -> int:
    pairs = sum(len(neighbors) for neighbors in view.adj) // 2
    return pairs + sum(1 for w in view.self_weight if w)


def _count_graph(counts, args, tg):
    counts["temporal_graph.raw_links"] += tg.total_weight
    counts["temporal_graph.nodes"] += len(tg.nodes)
    counts["temporal_graph.links"] += len(tg.links)


def _count_repair(counts, args, result):
    repaired, steps = result
    counts["repair.communities_in"] += args[0].n_communities
    counts["repair.communities_out"] += repaired.n_communities
    counts["repair.merges"] += len(steps)


# Work counts taken where a layer hands back its result.
COUNTERS = {
    "temporal_graph.build_temporal_graph": _count_graph,
    "temporal_graph.coarsen_time": lambda c, a, tg: c.update({"temporal_graph.coarsened_nodes": len(tg.nodes)}),
    "detection.ModularityView": lambda c, a, v: c.update({"detection.view_edges": _view_edges(v)}),
    "detection.louvain": lambda c, a, cover: c.update({"detection.louvain.communities": cover.n_communities}),
    "repair.repair": _count_repair,
}


class Tracer:
    def __init__(self, op: str, alloc: bool = False):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.alloc_peak: dict[str, int] = {}
        self.op = op
        self._alloc = ALLOC_SPANS if alloc else ()
        self._stack: list[int] = []
        self._cells = 0

    def add(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op])

    def call(self, name, fn, args, kwargs):
        outer_op = self.op
        if name == CELL_SPAN:
            self.op = f"{outer_op}/cell{self._cells}"
            self._cells += 1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(index)
        measure = name in self._alloc
        if measure:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            if measure:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peak[name] = max(peak, self.alloc_peak.get(name, 0))
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()
            self.op = outer_op
        counter = COUNTERS.get(name)
        if counter:
            counter(self.counts, args, result)
        return result

    def wrap(self, name: str, fn, home: str | None):
        """Wrapper recording ``name``; skipped for callers inside ``home``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if home is not None and sys._getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap the layers' public calls and rebind every dyncomm reference to them."""
        modules = [importlib.import_module(f"dyncomm.{layer}") for layer in LAYERS]
        swap: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if layer == "cli" and attr in CLI_ALWAYS:
                    swap[id(obj)] = self.wrap(CLI_ALWAYS[attr], obj, None)
                elif attr.startswith("_"):
                    continue
                elif inspect.isfunction(obj):
                    swap[id(obj)] = self.wrap(f"{layer}.{attr}", obj, module.__name__)
                elif inspect.isclass(obj):
                    for method, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not method.startswith("_"):
                            # Alternate constructors: the span is named after the class.
                            name = f"{layer}.{obj.__name__}"
                            setattr(obj, method, classmethod(self.wrap(name, raw.__func__, module.__name__)))
        for name, module in list(sys.modules.items()):
            if name == "dyncomm" or name.startswith("dyncomm."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in swap:
                        setattr(module, attr, swap[id(obj)])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "alloc_peak": self.alloc_peak}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Spans come from one thread per process, so children nest inside their
    parent and never overlap one another.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
