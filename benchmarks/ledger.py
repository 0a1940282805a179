"""Record one perfbench workload's end-to-end metrics as a ``BENCH_*.json``.

Runs ``perfbench/run.py --trace 0`` for one workload as alternating
parent/child pairs and writes ``BENCH_<workload>.json`` at the root of the
checkout: per side, the median and interquartile range of every gated
end-to-end metric (``BENCHMARK.json``'s ``end_to_end``) over the pairs,
how many pairs the child won on each, the host, and both commits.

Each pair also runs ``--trace 1`` once per side for a single
untraced/traced sample on the pair's seed, and the record keeps each
side's median over the pairs of every per-layer metric
(``BENCHMARK.json``'s ``per_layer``) under ``layers``: which layer a
saving came from, and that the work counts did not move.  One sample per
run keeps the two sides on the same inputs; a timed traced run takes as
many samples as fit, so a faster side would take its medians over more
inputs.

The child is this checkout as it stands.  Its immediate parent is the
baseline: ``HEAD`` when the checkout has uncommitted changes, ``HEAD~1``
when it is clean.  A dirty child is identified by ``child_diff_sha256``, the
SHA-256 of ``git diff HEAD -- src perfbench`` (the program the runs
execute; trailing newline stripped).  The parent is exported with
``git archive`` into a temporary directory, so the repository's ``.git``
is never written.
Pair *i* runs both sides on seed ``--seed + i``, and the side that goes
first alternates from pair to pair, so host drift during the record
charges both sides alike::

    python benchmarks/ledger.py --workload packet-islands --pairs 10 --seconds 20
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: ``--seconds`` of a traced run: perfbench always takes one sample pair
#: and stops once the next would not fit, so this yields exactly one.
TRACED_SECONDS = 1.0


def git(*args: str) -> str:
    """Stdout of one git command run in this checkout."""
    return subprocess.run(
        ["git", "-C", ROOT, *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def export(rev: str, into: str) -> None:
    """Write the committed tree of *rev* into the empty directory *into*."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def run_side(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in *checkout*: its host line and result."""
    child = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=checkout,
    )
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        sys.exit(f"error: perfbench run in {checkout} exited with code {child.returncode}")
    lines = child.stdout.strip().splitlines()
    summary, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "correct": result["correct"],
        "failed_frac": summary["failed_frac"],
        "host_ref_s": statistics.median(summary["host"]["host_ref_s"]),
    }


def spread(values) -> dict:
    """Median and quartiles of one side's per-pair values."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1,
                        help="perfbench seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        gated = json.load(handle)["end_to_end"]
    dirty = bool(git("status", "--porcelain"))
    child_sha = git("rev-parse", "HEAD")
    parent_sha = git("rev-parse", "HEAD" if dirty else "HEAD~1")
    child_diff = git("diff", "HEAD", "--", "src", "perfbench") if dirty else ""

    scratch = tempfile.mkdtemp(prefix="ledger-parent-")
    try:
        export(parent_sha, scratch)
        sides = {"parent": scratch, "child": ROOT}
        runs = {"parent": [], "child": []}
        traced = {"parent": [], "child": []}
        for index in range(args.pairs):
            order = ("parent", "child") if index % 2 == 0 else ("child", "parent")
            for side in order:
                run = run_side(sides[side], args.workload, args.seed + index, args.seconds)
                runs[side].append(run)
                print(f"pair {index} {side}: " + json.dumps(run["metrics"]), file=sys.stderr)
            for side in order:
                run = run_side(sides[side], args.workload, args.seed + index, TRACED_SECONDS,
                               trace=1)
                traced[side].append(run)
                print(f"pair {index} {side} traced: " + json.dumps(run["metrics"]),
                      file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for metric in gated:
        name = metric["name"]
        parent = [run["metrics"][name] for run in runs["parent"]]
        child = [run["metrics"][name] for run in runs["child"]]
        lower = metric["better"] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, child))
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": spread(parent), "child": spread(child),
            "pairs_won": won, "pairs": args.pairs,
        }
    record = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "git_sha": child_sha,
        "dirty": dirty,
        "child_diff_sha256": (
            hashlib.sha256(child_diff.encode()).hexdigest() if child_diff else None),
        "parent_sha": parent_sha,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "host_ref_s": statistics.median(
                run["host_ref_s"] for side in runs.values() for run in side),
        },
        "correct": all(run["correct"] for kind in (runs, traced)
                       for side in kind.values() for run in side),
        "failed_frac": {side: max(run["failed_frac"] for run in runs[side]) for side in runs},
        "metrics": metrics,
        "layers": {side: {name: statistics.median(run["metrics"][name] for run in traced[side])
                          for name in traced[side][0]["metrics"]} for side in traced},
    }
    output = os.path.join(ROOT, f"BENCH_{args.workload.replace('-', '_')}.json")
    with open(output, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps({name: (m["parent"]["median"], m["child"]["median"], m["pairs_won"])
                      for name, m in metrics.items()}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
