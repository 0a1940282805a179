"""Smoke test of the benchmark runner at shrunk workload sizes.

Runs every workload once untraced and once traced with ``--smoke`` and
checks the result line's shape and correctness.  Not collected by the
repository's default test run (the file name does not match
``test_*.py``); run it explicitly::

    python3 -m pytest perfbench/smoke.py -q
    python3 perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def run_bench(workload: str, trace: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    out = subprocess.run(command, capture_output=True, text=True, timeout=180, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))


def test_every_workload_untraced_and_traced():
    for workload in BENCHMARK["workloads"]:
        check_result(run_bench(workload["name"], 0), BENCHMARK["end_to_end"])
        check_result(run_bench(workload["name"], 1), BENCHMARK["per_layer"])


def test_unknown_workload_exits_nonzero():
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "nope",
               "--seconds", "1"]
    out = subprocess.run(command, capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert out.returncode != 0
    assert "correct" not in out.stdout


if __name__ == "__main__":
    test_every_workload_untraced_and_traced()
    test_unknown_workload_exits_nonzero()
    print("perfbench smoke OK")
