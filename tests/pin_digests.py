"""Print the four perfbench seed-0 row digests, one JSON line per workload.

A plain script -- standard library plus the program, no pytest, no numpy --
so that any CPython >= 3.9 can run the pins, including a bare interpreter
with no site-packages::

    python3.N tests/pin_digests.py

Each line holds the workload, the digest of its row at seed 0 and the
digest pinned in ``perfbench/workloads.py``; the exit status is 0 when
every digest matches its pin and 1 otherwise.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from workloads import DEFAULT_SEED, WORKLOADS, row_digest, run_workload  # noqa: E402


def main() -> int:
    matched = True
    for name, workload in WORKLOADS.items():
        row, _ = run_workload(workload, DEFAULT_SEED)
        digest = row_digest(row)
        matched &= digest == workload.digest
        print(json.dumps({"workload": name, "digest": digest, "pinned": workload.digest}))
    return 0 if matched else 1


if __name__ == "__main__":
    sys.exit(main())
