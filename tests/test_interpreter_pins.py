"""The perfbench seed-0 pins hold on every other CPython this host has.

The runtime is stdlib-only, so a bare interpreter (no site-packages) can
run it.  Each other ``python3.N`` (N >= 9) found on ``PATH`` or under
``~/.pyenv/versions`` runs ``tests/pin_digests.py`` in isolated mode
(``-I -S``: no environment, no site-packages); the test skips when there
is none.  From 3.12 on, builtin ``sum()`` over floats rounds differently
(compensated summation); the runtime sums floats with
:func:`repro.sim.stats.fsum_seq` instead, so the pins hold there too.

The interpreters run two at a time: a module-scoped fixture starts every
driver on a two-worker pool, and each parametrized test waits for its own.
"""

from __future__ import annotations

import glob
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.sim import stats

DRIVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pin_digests.py")

def _other_interpreters():
    """``{(3, N): path}``, one interpreter per minor version other than this one."""
    directories = sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/*/bin")))
    directories += os.environ.get("PATH", "").split(os.pathsep)
    found = {}
    for directory in directories:
        for path in sorted(glob.glob(os.path.join(directory, "python3.*"))):
            match = re.fullmatch(r"python3\.(\d+)", os.path.basename(path))
            if not match:
                continue
            version = (3, int(match.group(1)))
            if version in found or version < (3, 9) or version == sys.version_info[:2]:
                continue
            # pyenv shims and broken links exit non-zero or report another version.
            probe = subprocess.run(
                [path, "-I", "-S", "-c", "import sys; print(*sys.version_info[:2])"],
                capture_output=True,
                text=True,
            )
            if probe.returncode == 0 and probe.stdout.split() == [str(v) for v in version]:
                found[version] = path
    return found


INTERPRETERS = _other_interpreters()


def _params():
    if not INTERPRETERS:
        return [pytest.param(None, marks=pytest.mark.skip(reason="no other CPython found"))]
    return [
        pytest.param(path, id=f"{major}.{minor}")
        for (major, minor), path in sorted(INTERPRETERS.items())
    ]


def _run_driver(python):
    return subprocess.run(
        [python, "-I", "-S", DRIVER], capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def driver_runs():
    """``{path: Future}`` of every interpreter's driver run, two at a time."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield {path: pool.submit(_run_driver, path) for path in INTERPRETERS.values()}


@pytest.mark.parametrize("python", _params())
def test_perfbench_pins_hold_on_other_interpreters(python, driver_runs):
    result = driver_runs[python].result()
    assert result.returncode in (0, 1), result.stderr
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(rows) == 4
    moved = [row["workload"] for row in rows if row["digest"] != row["pinned"]]
    assert moved == []


@pytest.mark.parametrize("add", [stats.fsum_seq, stats._fsum_loop], ids=["fsum_seq", "loop"])
def test_float_sums_add_left_to_right(add):
    """Sequential rounding: 1e16 + 1.0 rounds back to 1e16, so the 1.0 is
    lost; compensated summation (builtin ``sum`` from 3.12) would keep it."""
    assert add([1e16, 1.0, -1e16]) == 0.0
    assert add((x for x in [1.0, -1e16]), 1e16) == 0.0
    assert add([]) == 0 and add([], 2.5) == 2.5
    values = [0.1 * k for k in range(1, 200)]
    expected = 0.0
    for value in values:
        expected += value
    assert add(values) == expected
