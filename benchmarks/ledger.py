"""Record one perfbench workload's end-to-end metrics as a ``BENCH_*.json``.

Runs ``perfbench/run.py --trace 0`` for one workload as alternating
parent/child pairs and writes ``BENCH_<workload>.json`` at the root of the
checkout: per side, the median and interquartile range of every gated
end-to-end metric (``BENCHMARK.json``'s ``end_to_end``) over the pairs,
how many pairs the child won on each, the host, and both commits.

Each end-to-end metric also carries ``resolved``, and ``layers_resolved``
holds the same verdict for each per-layer metric: whether the record shows
a change at all.  It is true only when there are at least 10 pairs, one
side is better in at least 9 of every 10 of them (ties count for neither)
and the two medians differ by more than the parent's IQR.  A 2/10 or 8/10
split, or a median shift inside the parent's own spread, is noise, not a
change; ``resolved`` says nothing about ``correct``.

Each pair also runs ``--trace 1`` once per side for a single
untraced/traced sample on the pair's seed, and the record keeps each
side's median over the pairs of every per-layer metric
(``BENCHMARK.json``'s ``per_layer``) under ``layers``: which layer a
saving came from, and that the work counts did not move.  One sample per
run keeps the two sides on the same inputs; a timed traced run takes as
many samples as fit, so a faster side would take its medians over more
inputs.

Each pair also times one cold ``python -m repro.cli run hotspot_migration
--set rows=4 --set columns=4`` process per side, with ``PYTHONPATH``
pointing at that side's ``src``, and the record keeps each side's median
and IQR of its wall time under ``cold``: the interpreter start, the
imports and the set-up that perfbench's warm in-process timer never sees.
The two sides must print the same row once ``strip_timing`` has removed
its timing, or the record is not correct.

The child is this checkout as it stands.  Its immediate parent is the
baseline: ``HEAD`` when the program the runs execute (``src`` and
``perfbench``) has uncommitted changes, untracked files included, and
``HEAD~1`` when it is clean -- edits elsewhere (docs, tests) do not make
the child differ from ``HEAD``.  A dirty child is identified by
``child_diff_sha256``, the SHA-256 of ``git diff HEAD -- src perfbench``
(trailing newline stripped) followed by the path and bytes of every
untracked file there, which that diff omits.  The parent is exported with
``git archive`` into a temporary directory, so the repository's ``.git``
is never written.  Each side compiles and caches its bytecode under its
own fresh ``PYTHONPYCACHEPREFIX``: a side that read caches left in its
tree by earlier runs, while the other compiled every import, would import
with a different allocation history and move ``setup_s`` (by where a
garbage collection lands) and the cold row.
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
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The directories whose contents the runs execute.
PROGRAM = ("src", "perfbench")
#: ``--seconds`` of a traced run: perfbench always takes one sample pair
#: and stops once the next would not fit, so this yields exactly one.
TRACED_SECONDS = 1.0
#: The cold process: one small control-loop run through the CLI.
COLD_ARGS = ("-m", "repro.cli", "run", "hotspot_migration", "--set", "rows=4", "--set", "columns=4")

sys.path.insert(0, os.path.join(ROOT, "src"))
from repro.experiments.sweep import strip_timing  # noqa: E402


def git(*args: str) -> str:
    """Stdout of one git command run in this checkout."""
    return subprocess.run(
        ["git", "-C", ROOT, *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def child_program() -> bytes:
    """What a dirty child runs beyond ``HEAD``: the tracked diff of
    :data:`PROGRAM` plus the path and bytes of each untracked file in it."""
    program = git("diff", "HEAD", "--", *PROGRAM).encode()
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *PROGRAM)
    for path in untracked.splitlines():
        with open(os.path.join(ROOT, path), "rb") as handle:
            program += b"\n" + path.encode() + b"\n" + handle.read()
    return program


def export(rev: str, into: str) -> None:
    """Write the committed tree of *rev* into the empty directory *into*."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def side_env(cache: str, **extra: str) -> dict:
    """This process's environment with bytecode cached under *cache* only."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=cache, **extra)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_side(checkout: str, cache: str, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One perfbench run in *checkout*: its host line and result."""
    child = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=checkout, env=side_env(cache),
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


def run_cold(checkout: str, cache: str):
    """Wall seconds of one cold :data:`COLD_ARGS` process in *checkout*, and
    its row without timing."""
    env = side_env(cache, PYTHONPATH=os.path.join(checkout, "src"))
    start = time.perf_counter()
    child = subprocess.run([sys.executable, *COLD_ARGS], capture_output=True, text=True,
                           cwd=checkout, env=env)
    elapsed = time.perf_counter() - start
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        sys.exit(f"error: cold run in {checkout} exited with code {child.returncode}")
    return elapsed, strip_timing(json.loads(child.stdout))


def spread(values) -> dict:
    """Median and quartiles of one side's per-pair values."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent, child, lower: bool) -> dict:
    """Both sides' spreads over the pairs, the pairs each side won, and
    whether the record resolves a change (see the module docstring)."""
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, child))
    lost = sum((c > p) if lower else (c < p) for p, c in zip(parent, child))
    sides = {"parent": spread(parent), "child": spread(child)}
    shift = abs(sides["child"]["median"] - sides["parent"]["median"])
    pairs = len(parent)
    resolved = pairs >= 10 and 10 * max(won, lost) >= 9 * pairs and shift > sides["parent"]["iqr"]
    return {**sides, "pairs_won": won, "pairs_lost": lost, "resolved": resolved}


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
        declared = json.load(handle)
    gated = declared["end_to_end"]
    dirty = bool(git("status", "--porcelain", "--", *PROGRAM))
    child_sha = git("rev-parse", "HEAD")
    parent_sha = git("rev-parse", "HEAD" if dirty else "HEAD~1")
    child_diff = child_program() if dirty else b""

    scratch = tempfile.mkdtemp(prefix="ledger-parent-")
    caches = {side: tempfile.mkdtemp(prefix=f"ledger-pyc-{side}-") for side in ("parent", "child")}
    try:
        export(parent_sha, scratch)
        sides = {"parent": scratch, "child": ROOT}
        runs = {"parent": [], "child": []}
        traced = {"parent": [], "child": []}
        cold = {"parent": [], "child": []}
        cold_rows = {"parent": [], "child": []}
        for index in range(args.pairs):
            order = ("parent", "child") if index % 2 == 0 else ("child", "parent")
            for side in order:
                run = run_side(sides[side], caches[side], args.workload, args.seed + index,
                               args.seconds)
                runs[side].append(run)
                print(f"pair {index} {side}: " + json.dumps(run["metrics"]), file=sys.stderr)
            for side in order:
                run = run_side(sides[side], caches[side], args.workload, args.seed + index,
                               TRACED_SECONDS,
                               trace=1)
                traced[side].append(run)
                print(f"pair {index} {side} traced: " + json.dumps(run["metrics"]),
                      file=sys.stderr)
            for side in order:
                elapsed, row = run_cold(sides[side], caches[side])
                cold[side].append(elapsed)
                cold_rows[side].append(row)
                print(f"pair {index} {side} cold: {elapsed:.3f} s", file=sys.stderr)
    finally:
        for directory in (scratch, *caches.values()):
            shutil.rmtree(directory, ignore_errors=True)

    metrics = {}
    for metric in gated:
        name = metric["name"]
        parent = [run["metrics"][name] for run in runs["parent"]]
        child = [run["metrics"][name] for run in runs["child"]]
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"], "pairs": args.pairs,
            **compare(parent, child, metric["better"] == "lower"),
        }
    rows_match = cold_rows["parent"] == cold_rows["child"]
    if not rows_match:
        print("error: the cold runs' rows differ between parent and child", file=sys.stderr)
    record = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "git_sha": child_sha,
        "dirty": dirty,
        "child_diff_sha256": (
            hashlib.sha256(child_diff).hexdigest() if child_diff else None),
        "parent_sha": parent_sha,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "host_ref_s": statistics.median(
                run["host_ref_s"] for side in runs.values() for run in side),
        },
        "correct": rows_match and all(run["correct"] for kind in (runs, traced)
                                      for side in kind.values() for run in side),
        "failed_frac": {side: max(run["failed_frac"] for run in runs[side]) for side in runs},
        "metrics": metrics,
        "cold": {
            "command": " ".join(("python",) + COLD_ARGS),
            "unit": "s", "better": "lower",
            "parent": spread(cold["parent"]), "child": spread(cold["child"]),
            "pairs_won": sum(c < p for p, c in zip(cold["parent"], cold["child"])),
            "pairs": args.pairs,
            "rows_match": rows_match,
        },
        "layers": {side: {name: statistics.median(run["metrics"][name] for run in traced[side])
                          for name in traced[side][0]["metrics"]} for side in traced},
        "layers_resolved": {
            layer["name"]: compare(
                [run["metrics"][layer["name"]] for run in traced["parent"]],
                [run["metrics"][layer["name"]] for run in traced["child"]],
                layer["better"] == "lower",
            )["resolved"]
            for layer in declared["per_layer"]
            if layer["name"] in traced["parent"][0]["metrics"]
        },
    }
    output = os.path.join(ROOT, f"BENCH_{args.workload.replace('-', '_')}.json")
    with open(output, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps({name: (m["parent"]["median"], m["child"]["median"], m["pairs_won"])
                      for name, m in {**metrics, "cold": record["cold"]}.items()}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
