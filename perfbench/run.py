"""Benchmark runner: measure one workload for a fixed time and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--profile N] [--smoke]

The runner is a closed loop with one caller: it starts one child process
per sample (``one_run.py``), waits for it, and starts the next only while
another sample still fits in ``--seconds``.  At most two processes are
alive at a time, this one and its child.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` the runner alternates untraced and traced
samples and the last line carries the per-layer metrics instead.  Every
metric is the median over the run's samples; the line before the result
gives each metric's quartiles and sample count, and every sample is
appended with its host description to ``.perfbench/runs.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: No single sample may take longer than this; the whole run must end in 180 s.
SAMPLE_TIMEOUT_S = 150.0
#: Distinct workload seeds reserved for the samples of one run.
SAMPLE_SEEDS = 1000
#: ``host_ref_s`` (the reference loop in ``one_run.py``) on an idle 2-CPU
#: x86 host with Python 3.11.  ``setup_s`` is scaled by it, to read as
#: seconds on that host.
HOST_REF_NOMINAL_S = 0.15
#: Units of every end-to-end metric a run computes.  The shared host swings
#: by up to ~50% within seconds, so ``BENCHMARK.json`` gates the metrics
#: that cancel the host's speed (``wall_norm``, ``setup_s``) and memory; the
#: raw timings are printed on the summary line beside them.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_raw_s": "s",
    "setup_s": "s",
    "wall_norm": "ratio",
    "flows_per_s": "1/s",
    "packets_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def git_sha() -> str:
    """The commit of the checkout, or ``"unknown"`` outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(top) != 2 or os.path.realpath(top[0]) != os.path.realpath(ROOT):
        return "unknown"
    return top[1]


def sample(args, index: int, traced: bool, profile: int = 0) -> dict:
    """Run sample *index* in a child process and return its JSON result.

    Sample *i* of a run with seed *n* runs the workload on seed
    ``SAMPLE_SEEDS * n + i``: the workloads' cost varies by ~13% from seed
    to seed, so a run's median over distinct inputs is far steadier than
    any one input.
    """
    run_id = f"{args.workload}-s{args.seed}-p{os.getpid()}-{index}{'t' if traced else ''}"
    command = [
        sys.executable, os.path.join(HERE, "one_run.py"),
        "--workload", args.workload, "--seed", str(SAMPLE_SEEDS * args.seed + index),
        "--run-id", run_id, "--out-dir", OUT_DIR,
    ]
    if traced:
        command.append("--trace")
    if args.smoke:
        command.append("--smoke")
    if profile:
        command += ["--profile", str(profile)]
    try:
        child = subprocess.run(
            command, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"error: sample {run_id} took longer than {SAMPLE_TIMEOUT_S:.0f} s")
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        sys.exit(f"error: sample {run_id} exited with code {child.returncode}")
    if profile:
        with open(os.path.join(OUT_DIR, f"profile-{args.workload}.txt"), "w") as handle:
            handle.write(child.stderr)
    return json.loads(child.stdout.strip().splitlines()[-1])


def end_to_end(result: dict) -> dict:
    """Every end-to-end metric of one untraced sample; see :data:`END_TO_END`."""
    return {
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "setup_raw_s": result["setup_s"],
        "setup_s": result["setup_s"] * HOST_REF_NOMINAL_S / result["setup_host_ref_s"],
        "wall_norm": result["wall_s"] / result["host_ref_s"],
        "flows_per_s": result["flows_completed"] / result["wall_s"],
        "packets_per_s": result["packets"] / result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def summarise(rows):
    """``{metric: (median, q1, q3, n)}`` over a list of per-sample metric dicts."""
    summary = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        # A count's median stays a count that occurred.
        counts = all(isinstance(value, int) for value in values)
        middle = statistics.median_low if counts else statistics.median
        summary[name] = (middle(values), q1, q3, len(values))
    return summary


def measure(args):
    """Take samples until the next one would not fit in ``--seconds``.

    Returns ``(untraced samples, traced samples)``.  A traced run takes them
    in untraced/traced pairs so the tracing overhead is measured on the
    same host state.
    """
    kinds = (False, True) if args.trace else (False,)
    plain, traced = [], []
    durations = []
    start = time.perf_counter()
    while len(plain) < SAMPLE_SEEDS:
        began = time.perf_counter()
        index = len(plain)
        for kind in kinds:
            (traced if kind else plain).append(sample(args, index, kind))
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > args.seconds:
            break
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0,
                        help="also store the top N cProfile rows of one extra sample")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk workload sizes (no pinned digest)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    os.makedirs(OUT_DIR, exist_ok=True)

    plain, traced = measure(args)
    if args.profile:
        # A profiled sample of its own: cProfile's cost must not reach the metrics.
        sample(args, 0, bool(args.trace), args.profile)
    failed = 0
    for result in plain:
        if result["problems"]:
            failed += 1
            print(f"FAILED {result['run_id']}: {result['problems']}", file=sys.stderr)
    for result, twin in zip(traced, plain):
        # Tracing must not change a simulated bit.
        if result["problems"] or result["digest"] != twin["digest"]:
            failed += 1
            print(f"FAILED {result['run_id']}: {result['problems']} digest {result['digest']}"
                  f" != untraced {twin['digest']}", file=sys.stderr)

    if args.trace:
        rows = [r["layers"] for r in traced]
        for row, result, twin in zip(rows, traced, plain):
            row["trace.overhead_frac"] = result["wall_s"] / twin["wall_s"] - 1.0
            row["packetsim.packets_per_s"] = twin["packets"] / twin["wall_s"]
    else:
        rows = [end_to_end(r) for r in plain]
    summary = summarise(rows)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared} if args.trace else END_TO_END
    attempted = len(plain) + len(traced)

    host = dict(plain[0]["host"], git_sha=git_sha(),
                host_ref_s=[r["host_ref_s"] for r in plain + traced])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "samples": plain + traced,
        "failed_frac": failed / attempted,
        "summary": {name: dict(zip(("median", "q1", "q3", "n"), s), unit=units[name])
                    for name, s in summary.items()},
    }
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as handle:
        handle.write(json.dumps(record) + "\n")

    print(json.dumps({key: record[key] for key in ("host", "failed_frac", "summary")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": summary[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
