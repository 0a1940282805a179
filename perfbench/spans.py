"""Spans around calls into each layer's public functions, recorded from outside the program.

The tracer wraps functions and methods of the program's modules for the
life of one benchmark process; nothing under ``src/`` carries a clock.  A
span is ``[name, start, end, parent]`` with ``parent`` the index of the
span that was open when it started (``-1`` for the root).  The layer of a
span is the part of its name before the first dot, which is the module
name of the function it wraps.
"""

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List

#: ``(span name, module, class or None, attribute)`` of every wrapped call.
TARGETS = (
    ("topologies.build", "repro.fabric.topologies", None, "build_topology_fabric"),
    ("routing.path", "repro.fabric.routing", "Router", "path"),
    ("fluid.run", "repro.sim.fluid", "FluidFlowSimulator", "run"),
    ("packetsim.run", "repro.fabric.packetsim", "PacketBackend", "run"),
    ("control.run", "repro.core.control", "ControlLoop", "run"),
    ("cost.price", "repro.core.cost", "LinkPriceTagger", "price"),
    ("scheduler.cheapest_path", "repro.core.scheduler", "FlowScheduler", "cheapest_path"),
)

#: Layers whose self time the benchmark reports; ``experiments`` is the glue
#: between them (controller set-up, flow loading, metric folds).
LAYERS = (
    "topologies",
    "workloads",
    "routing",
    "fluid",
    "packetsim",
    "control",
    "cost",
    "scheduler",
    "harness",
)


class Tracer:
    """Records spans in memory and writes them out when asked."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        self._open: List[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called *name*."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(span)
        self._open.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every :data:`TARGETS` call, each workload generator and each control tick.

        The wrappers stay for the life of the process.
        """
        for name, module_name, class_name, attribute in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))
        from repro.experiments.scenarios import WORKLOAD_CLASSES

        for cls in WORKLOAD_CLASSES.values():
            if "generate" in cls.__dict__:
                cls.generate = self.wrap("workloads.generate", cls.__dict__["generate"])
        # Each call the loop makes into its event engine runs one tick.
        from repro.core.control import ControlLoop

        run = ControlLoop.run

        def run_with_ticks(loop, *args, **kwargs):
            loop.engine.run = self.wrap("control.tick", loop.engine.run)
            return run(loop, *args, **kwargs)

        ControlLoop.run = run_with_ticks

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent and run id."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                span = {"run": self.run_id, "id": index, "name": name,
                        "start": start, "end": end, "parent": parent}
                handle.write(json.dumps(span) + "\n")


def self_times(spans: List[list]) -> Dict[str, float]:
    """Self time per span name: each span's duration minus its children's."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        totals[name] += (end - start) - covered[index]
    return totals


def counts(spans: List[list]) -> Counter:
    """Number of spans per span name."""
    return Counter(span[0] for span in spans)


def tail(values: List[float], beyond: int = 10):
    """The highest percentile with at least *beyond* samples above it.

    Returns ``(percentile, value)``; with too few samples for any tail the
    maximum is returned as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return 100.0, (ordered[-1] if ordered else 0.0)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]
