"""One sample: run one workload once in this process and print its measurements as JSON.

``run.py`` starts this script as a child process per sample, so every
sample starts cold (fresh interpreter, empty caches) and ``ru_maxrss`` is
the sample's own peak.  Usage::

    python3 perfbench/one_run.py --workload NAME --seed N [--trace] [--smoke]
        [--run-id ID] [--out-dir DIR] [--profile N]

The program is imported from the ``src/`` directory beside this one and
from nowhere else.

The host this was written on is shared, and its speed swings by up to
~50% within seconds, so one reference loop timed before the workload says
little about the host during it.  An untraced sample therefore also times
a short slice of the reference loop every 100 ms while the workload runs
(:class:`HostProbe`), and takes those slices out of its timings again.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Iterations of the reference loop; ``host_ref_s`` is its time.
REFERENCE_ITERATIONS = 2_000_000
#: Iterations of one probe slice (~1.5 ms), and how often a slice runs.
PROBE_ITERATIONS = 20_000
PROBE_PERIOD_S = 0.1


def spin(iterations: int) -> float:
    """Wall time of a fixed pure-Python loop of *iterations* steps."""
    start = perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return perf_counter() - start


class HostProbe:
    """Times a slice of the reference loop now and every ``PROBE_PERIOD_S`` until closed.

    The slices run in a ``SIGALRM`` handler between the program's bytecodes
    and touch none of its state, so they cannot change a simulated bit.
    """

    def __init__(self) -> None:
        #: ``(start, seconds)`` of every slice.
        self.slices = []

    def _slice(self, *_) -> None:
        self.slices.append((perf_counter(), spin(PROBE_ITERATIONS)))

    def __enter__(self) -> "HostProbe":
        self._slice()
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def host_ref_s(self, until: float = float("inf")) -> float:
        """The reference loop's time at the mean speed of the slices started before *until*."""
        mean = statistics.fmean(seconds for began, seconds in self.slices if began < until)
        return mean * REFERENCE_ITERATIONS / PROBE_ITERATIONS

    def seconds_between(self, start: float, end: float) -> float:
        """Time spent in slices that started in ``[start, end)``."""
        return sum(seconds for began, seconds in self.slices if start <= began < end)


def import_program():
    """Import the program from ``ROOT/src``; exit non-zero if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as error:
        sys.exit(f"error: cannot import the program from {SRC}: {error}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported the program from {repro.__file__}, not from {SRC}")


def hook_backend_start(marks: list) -> None:
    """Record the time of the first call into either backend's ``run``."""
    from repro.fabric.packetsim import PacketBackend
    from repro.sim.fluid import FluidFlowSimulator

    for cls in (FluidFlowSimulator, PacketBackend):
        original = cls.run

        def run(self, *args, _original=original, **kwargs):
            if not marks:
                marks.append(perf_counter())
            return _original(self, *args, **kwargs)

        cls.run = run


def layer_metrics(tracer, record, wall_s: float) -> dict:
    """Per-layer metrics of one traced sample, from its spans and the program's counters."""
    from spans import LAYERS, counts, self_times, tail

    selfs = self_times(tracer.spans)
    calls = counts(tracer.spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in selfs.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    router = record.fabric.router
    lookups = router.cache_hits + router.cache_misses
    metrics = record.metrics
    packet = metrics["backend"] == "packet"
    packets = int(metrics.get("packets_injected", 0))
    loop = getattr(record.controller_instance, "loop", None)
    ticks_ms = [
        1e3 * (end - start) for name, start, end, _ in tracer.spans if name == "control.tick"
    ]
    tail_pct, tail_ms = tail(ticks_ms)
    cheapest = calls["scheduler.cheapest_path"]
    return {
        "topologies.build_s": layer_self["topologies"],
        "workloads.generate_s": layer_self["workloads"],
        "routing.path_calls": calls["routing.path"],
        "routing.path_s": layer_self["routing"],
        "routing.cache_lookups": lookups,
        "routing.cache_hit_ratio": router.cache_hits / lookups if lookups else 0.0,
        "routing.invalidations": router.invalidations,
        "fluid.run_s": layer_self["fluid"],
        "fluid.run_calls": calls["fluid.run"],
        "fluid.events": 0 if packet else record.fluid.events_processed,
        "packetsim.run_s": layer_self["packetsim"],
        "packetsim.calendar_entries": record.fluid.events_processed if packet else 0,
        "packetsim.packets": packets,
        "packetsim.retx_ratio": metrics["retransmissions"] / packets if packets else 0.0,
        "control.self_s": layer_self["control"],
        "control.ticks": len(loop.ticks) if loop is not None else 0,
        "control.tick_samples": len(ticks_ms),
        "control.tick_p50_ms": statistics.median(ticks_ms) if ticks_ms else 0.0,
        "control.tick_tail_pct": tail_pct if ticks_ms else 0.0,
        "control.tick_tail_ms": tail_ms,
        "control.reroute_yield": metrics["flows_rerouted"] / cheapest if cheapest else 0.0,
        "cost.price_calls": calls["cost.price"],
        "cost.price_s": selfs["cost.price"],
        "scheduler.cheapest_path_calls": cheapest,
        "scheduler.cheapest_path_s": selfs["scheduler.cheapest_path"],
        "harness.fabric_state_row_s": layer_self["harness"],
        "experiments.self_s": selfs["experiments.resolve_params"]
        + selfs["experiments.materialize_run"]
        + selfs["experiments.run_experiment"],
        "trace.unattributed_frac": (wall_s - sum(layer_self.values())) / wall_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="record spans per layer")
    parser.add_argument("--smoke", action="store_true", help="shrunk sizes, no digest pin")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--out-dir", default=None, help="where traced spans are written")
    parser.add_argument("--profile", type=int, default=0, help="print the top N cProfile rows")
    args = parser.parse_args(argv)

    import_program()
    import numpy
    import networkx
    from workloads import WORKLOADS, check, row_digest, run_workload, untimed

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r} (known: {sorted(WORKLOADS)})")
    workload = WORKLOADS[args.workload]

    marks: list = []
    tracer = None
    span = untimed
    if args.trace:
        from spans import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
        span = tracer.call
    else:
        hook_backend_start(marks)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    # Spans would count the probe's slices as the program's time, so a
    # traced sample times the reference loop once, before the workload.
    probe = HostProbe() if tracer is None else None
    host_ref_s = spin(REFERENCE_ITERATIONS) if probe is None else None
    with probe or contextlib.nullcontext():
        cpu_start = process_time()
        start = perf_counter()
        row, record = span("bench.run", run_workload, workload, args.seed, args.smoke, span)
        end = perf_counter()
        cpu_s = process_time() - cpu_start
    wall_s = end - start
    if probe is not None:
        host_ref_s = probe.host_ref_s()
        probed_s = probe.seconds_between(start, end)
        wall_s -= probed_s
        cpu_s -= probed_s

    if profiler is not None:
        import pstats

        profiler.disable()
        pstats.Stats(profiler, stream=sys.stderr).sort_stats("cumulative").print_stats(
            args.profile
        )
    metrics = row["metrics"]
    result = {
        "run_id": args.run_id,
        "workload": workload.name,
        "seed": args.seed,
        "traced": args.trace,
        "digest": row_digest(row),
        "problems": check(workload, args.seed, row, record, args.smoke),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "host_ref_s": host_ref_s,
        "flows": metrics["num_flows"],
        "flows_completed": round(metrics["completion_fraction"] * metrics["num_flows"]),
        "packets": metrics.get("packets_injected", 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "networkx": networkx.__version__,
        },
    }
    if marks:
        result["setup_s"] = marks[0] - start - probe.seconds_between(start, marks[0])
        result["setup_host_ref_s"] = probe.host_ref_s(until=marks[0])
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, record, wall_s)
        if args.out_dir:
            tracer.write(os.path.join(args.out_dir, f"spans-{args.run_id}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
