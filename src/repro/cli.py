"""Command-line interface: run the headline experiments from a shell.

Examples
--------
::

    repro-fabric figure1
    repro-fabric figure2 --rows 4 --columns 4
    repro-fabric mapreduce --rows 4 --columns 8
    repro-fabric breakeven
    repro-fabric validate
    repro-fabric list-scenarios
    repro-fabric list-controllers
    repro-fabric list-topologies
    repro-fabric run mapreduce-skewed --set rows=4 --set skew_factor=3.0
    repro-fabric run fattree_uniform --set num_flows=256
    repro-fabric run dragonfly_permutation --set backend=packet
    repro-fabric run hotspot_migration --set controller=ecmp
    repro-fabric run uniform-burst --set backend=packet
    repro-fabric run uniform-burst --set backend=packet --set engine=batched
    repro-fabric run hotspot_migration --set backend=packet
    repro-fabric compare hotspot_migration
    repro-fabric compare uniform-burst --set backend=packet
    repro-fabric sweep --scenario permutation --scenario incast \\
        --grid rows=3,4 --grid controller=none,crc --workers 4 --output sweep.jsonl
    repro-fabric sweep --scenario uniform-burst --grid backend=fluid,packet \\
        --output backends.jsonl
    repro-fabric sweep --scenario uniform-burst --grid backend=packet \\
        --grid engine=event,batched --output engines.jsonl
    repro-fabric lint
    repro-fabric lint --list-rules

Every ``run``/``compare``/``sweep`` invocation goes through the single
experiment entrypoint (:func:`repro.experiments.api.run_experiment`); the
``controller`` parameter selects any controller registered in
:mod:`repro.core.controllers` by name, and the ``backend`` parameter picks
the simulation backend (``fluid`` flow-level rates, or ``packet`` for the
packetised transport over per-port FIFO buffers -- packet rows carry the
extra drop/retransmission/queueing metrics).  Every controller runs on
both backends, including the closed control loop (``controller=loop``,
the default for the dynamic scenarios).  On the packet backend,
``engine=batched`` selects the train-batched execution engine -- metrics
are bit-identical to the default ``engine=event``, only faster.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.analysis.breakeven import break_even_curve
from repro.analysis.validation import validate_against_analytical, validation_summary
from repro.core.candidates import candidate_moves
from repro.core.controllers import controller_catalog
from repro.experiments.comparison import adaptive_vs_static
from repro.fabric.topologies import topology_catalog
from repro.experiments.figures import figure1_rows, figure2_rows, mapreduce_comparison_rows
from repro.experiments.scenarios import ScenarioError, list_scenarios, run_scenario
from repro.experiments.sweep import run_sweep
from repro.sim.units import GBPS, megabytes, microseconds
from repro.telemetry.report import format_table


def _print_rows(title: str, rows: Sequence[dict]) -> None:
    if not rows:
        print(f"{title}: no data")
        return
    headers = list(rows[0].keys())
    table = format_table(headers, [[row.get(h) for h in headers] for row in rows], title=title)
    print(table)


def _cmd_figure1(args: argparse.Namespace) -> int:
    distances = list(range(2, args.max_distance + 1, 2))
    rows = figure1_rows(distances_meters=distances, packet_size_bytes=args.packet_bytes)
    _print_rows("Figure 1: media propagation vs cut-through switching latency", rows)
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    rows = figure2_rows(
        rows=args.rows,
        columns=args.columns,
        flow_size_bits=megabytes(args.flow_megabytes),
        seed=args.seed,
        workload=args.workload,
    )
    _print_rows("Figure 2: grid -> torus reconfiguration under the CRC", rows)
    return 0


def _cmd_mapreduce(args: argparse.Namespace) -> int:
    rows = mapreduce_comparison_rows(
        rows=args.rows,
        columns=args.columns,
        flow_size_bits=megabytes(args.flow_megabytes),
        seed=args.seed,
        skew_factor=args.skew,
    )
    _print_rows("MapReduce shuffle: static grid vs adaptive fabric", rows)
    return 0


def _cmd_breakeven(args: argparse.Namespace) -> int:
    delays = [microseconds(value) for value in (1, 5, 10, 50, 100, 500, 1000, 10000)]
    rows = break_even_curve(
        delays,
        current_rate_bps=args.current_gbps * GBPS,
        reconfigured_rate_bps=args.reconfigured_gbps * GBPS,
    )
    _print_rows("Break-even flow size vs reconfiguration delay", rows)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    results = validate_against_analytical()
    rows = [
        {
            "scenario": result.scenario,
            "hops": result.hops,
            "packet_bytes": result.packet_size_bytes,
            "simulated": result.simulated_latency,
            "analytical": result.analytical_latency,
            "relative_error": result.relative_error,
        }
        for result in results
    ]
    _print_rows("Packet-level simulation vs analytical model (POC substitute)", rows)
    summary = validation_summary(results)
    print()
    print(f"max relative error:  {summary['max_relative_error']:.3e}")
    print(f"mean relative error: {summary['mean_relative_error']:.3e}")
    return 0 if summary["max_relative_error"] <= args.tolerance else 1


def _parse_value(text: str) -> object:
    """Parse one ``--set``/``--grid`` value: int, float, bool or string."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text.strip()


def _parse_assignment(text: str) -> tuple:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    key, _, value = text.partition("=")
    return key.strip(), value


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    scenarios = list_scenarios()
    rows = [
        {
            "name": scenario.name,
            "workload": scenario.workload,
            "description": scenario.description,
        }
        for scenario in scenarios
    ]
    _print_rows(f"Registered scenarios ({len(scenarios)})", rows)
    if args.verbose:
        print()
        for scenario in scenarios:
            print(f"{scenario.name}:")
            print(f"  pattern:  {scenario.workload_summary()}")
            print(f"  defaults: {json.dumps(scenario.parameters(), sort_keys=True)}")
    return 0


def _cmd_list_controllers(args: argparse.Namespace) -> int:
    rows = controller_catalog()
    _print_rows(f"Registered controllers ({len(rows)})", rows)
    return 0


def _cmd_list_topologies(args: argparse.Namespace) -> int:
    families = topology_catalog()
    rows = [
        {
            "name": family.name,
            "family": family.family,
            "endpoints": family.size_formula,
            "parameters": ", ".join(family.parameters),
            "moves": ", ".join(candidate_moves(family.name)) or "-",
            "description": family.description,
        }
        for family in families
    ]
    _print_rows(f"Registered topology families ({len(rows)})", rows)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    overrides: Dict[str, object] = {}
    for key, value in args.set or []:
        overrides[key] = _parse_value(value)
    try:
        row = run_scenario(args.scenario, overrides, base_seed=args.base_seed)
    except (ScenarioError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(json.dumps(row, indent=2, sort_keys=True))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    overrides: Dict[str, object] = {}
    for key, value in args.set or []:
        overrides[key] = _parse_value(value)
    try:
        rows = adaptive_vs_static(args.scenario, overrides, base_seed=args.base_seed)
    except (ScenarioError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_rows(
        f"{args.scenario}: static vs ECMP vs adaptive (identical flows)", rows
    )
    by_label = {row["label"]: row for row in rows}
    static_fct = by_label["static"]["mean_fct"]
    adaptive_fct = by_label["adaptive"]["mean_fct"]
    if static_fct and adaptive_fct:
        print(f"\nadaptive / static mean FCT: {adaptive_fct / static_fct:.3f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid: Dict[str, List[object]] = {}
    for key, value in args.grid or []:
        grid[key] = [_parse_value(token) for token in value.split(",") if token.strip()]
    try:
        rows = run_sweep(
            scenarios=args.scenario or None,
            grid=grid or None,
            workers=args.workers,
            base_seed=args.base_seed,
            output=args.output,
        )
    except (ScenarioError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    summary = [
        {
            "scenario": row["scenario"],
            "overrides": json.dumps(
                {k: v for k, v in row["params"].items() if k in grid}, sort_keys=True
            ),
            "makespan": row["metrics"]["makespan"],
            "p99_fct": row["metrics"]["p99_fct"],
            "completion": row["metrics"]["completion_fraction"],
        }
        for row in rows
    ]
    _print_rows(f"Sweep: {len(rows)} runs, {args.workers} worker(s)", summary)
    if args.output:
        print(f"\nwrote {len(rows)} JSON rows to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-fabric",
        description="Adaptive rack-scale fabrics: experiments from the command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig1 = sub.add_parser("figure1", help="media vs switching latency (Figure 1)")
    fig1.add_argument("--max-distance", type=int, default=40, help="largest path length in meters")
    fig1.add_argument("--packet-bytes", type=float, default=1500.0)
    fig1.set_defaults(func=_cmd_figure1)

    fig2 = sub.add_parser("figure2", help="grid-to-torus reconfiguration (Figure 2)")
    fig2.add_argument("--rows", type=int, default=4)
    fig2.add_argument("--columns", type=int, default=4)
    fig2.add_argument("--flow-megabytes", type=float, default=4.0)
    fig2.add_argument("--seed", type=int, default=1)
    fig2.add_argument("--workload", choices=("hotspot", "shuffle"), default="hotspot")
    fig2.set_defaults(func=_cmd_figure2)

    mapreduce = sub.add_parser("mapreduce", help="shuffle makespan, static vs adaptive")
    mapreduce.add_argument("--rows", type=int, default=4)
    mapreduce.add_argument("--columns", type=int, default=8)
    mapreduce.add_argument("--flow-megabytes", type=float, default=8.0)
    mapreduce.add_argument("--seed", type=int, default=2)
    mapreduce.add_argument("--skew", type=float, default=2.0)
    mapreduce.set_defaults(func=_cmd_mapreduce)

    breakeven = sub.add_parser("breakeven", help="break-even flow size analysis")
    breakeven.add_argument("--current-gbps", type=float, default=50.0)
    breakeven.add_argument("--reconfigured-gbps", type=float, default=100.0)
    breakeven.set_defaults(func=_cmd_breakeven)

    validate = sub.add_parser("validate", help="simulation vs analytical validation")
    validate.add_argument("--tolerance", type=float, default=0.01)
    validate.set_defaults(func=_cmd_validate)

    ls = sub.add_parser("list-scenarios", help="enumerate the scenario catalog")
    ls.add_argument(
        "--verbose", action="store_true",
        help="also print each scenario's traffic pattern and default parameters",
    )
    ls.set_defaults(func=_cmd_list_scenarios)

    lc = sub.add_parser("list-controllers", help="enumerate the controller registry")
    lc.set_defaults(func=_cmd_list_controllers)

    lt = sub.add_parser(
        "list-topologies",
        help="enumerate the topology-family registry and each family's moves",
    )
    lt.set_defaults(func=_cmd_list_topologies)

    run = sub.add_parser("run", help="run one registered scenario, print its JSON row")
    run.add_argument("scenario", help="scenario name (see list-scenarios)")
    run.add_argument(
        "--set", action="append", type=_parse_assignment, metavar="KEY=VALUE",
        help="override one scenario parameter (repeatable)",
    )
    run.add_argument("--base-seed", type=int, default=0)
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser(
        "compare",
        help="run one scenario under static / ECMP / adaptive control, same flows",
    )
    compare.add_argument("scenario", help="scenario name (see list-scenarios)")
    compare.add_argument(
        "--set", action="append", type=_parse_assignment, metavar="KEY=VALUE",
        help="override one scenario parameter (repeatable)",
    )
    compare.add_argument("--base-seed", type=int, default=0)
    compare.set_defaults(func=_cmd_compare)

    sweep = sub.add_parser(
        "sweep", help="run scenarios x parameter grid across worker processes"
    )
    sweep.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="scenario to include (repeatable; default: all registered scenarios)",
    )
    sweep.add_argument(
        "--grid", action="append", type=_parse_assignment, metavar="KEY=V1,V2,...",
        help="one grid axis as comma-separated values (repeatable)",
    )
    sweep.add_argument("--workers", type=int, default=1, help="process fan-out")
    sweep.add_argument("--output", help="write result rows to this JSON-lines file")
    sweep.add_argument("--base-seed", type=int, default=0)
    sweep.set_defaults(func=_cmd_sweep)

    # `lint` forwards everything verbatim to the repro.lint parser; it is
    # intercepted in main() because argparse.REMAINDER cannot hand leading
    # option tokens (e.g. `lint --rules D001`) through a subparser.  The stub
    # here keeps the subcommand in --help.
    sub.add_parser(
        "lint",
        add_help=False,
        help="static determinism/parity/units checks (see python -m repro.lint)",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    tokens = list(sys.argv[1:] if argv is None else argv)
    try:
        if tokens and tokens[0] == "lint":
            # Forward verbatim; argparse.REMAINDER cannot pass leading
            # option tokens (e.g. `lint --rules D001`) through a subparser.
            from repro.lint.cli import main as lint_main

            return lint_main(tokens[1:])
        parser = build_parser()
        args = parser.parse_args(tokens)
        return args.func(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); exit quietly
        # instead of tracebacking, but give Python a writable fd so the
        # interpreter's stdout-flush at exit does not complain either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
