"""Byte-for-byte snapshot of every closed-loop scenario row.

Each registered ``controller="loop"`` scenario runs once per backend and
the sha256 of its result row (timing stripped) is compared against a
pinned digest.  Anything that changes a simulated bit of the control loop
-- a reordered price sum, a stale path cache, a memo served across a
mutation -- moves a digest.  A change that is meant to alter loop
behaviour re-pins the table in the same commit and says why.

The test is also run under two fixed ``PYTHONHASHSEED`` values in CI, so
the digests must not depend on dict/set iteration order.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.scenarios import list_scenarios, run_scenario
from repro.experiments.sweep import strip_timing

#: Overrides that keep each scenario small enough for tier-1.  The
#: 1024-host dragonfly is shrunk to the instance the fidelity gate uses.
SIZE_OVERRIDES = {
    "hotspot_migration": {},
    "load_shift_uniform_to_permutation": {},
    "failure_recovery": {},
    "dragonfly_hotspot": {
        "groups": 3, "routers_per_group": 3, "hosts_per_router": 2, "num_flows": 36,
    },
}

#: sha256 of ``json.dumps(row, sort_keys=True, separators=(",", ":"))``.
PINNED_DIGESTS = {
    ("hotspot_migration", "fluid"):
        "e01ed941077a958c6364761a8ec61dcc09b4d4c2c921f10cad0bf2104b3b6aaf",
    ("hotspot_migration", "packet"):
        "7f9e316ce70becae5926a3f4b9d8a0a67f3d803c97d039a6f64d5c945614c464",
    ("load_shift_uniform_to_permutation", "fluid"):
        "3594bf2c8da51098eb0908f50e42e9040c722e21a05448f692e652d42547949a",
    ("load_shift_uniform_to_permutation", "packet"):
        "94e2c597023a32a78ee5b2506cc4acf13266949a62a4432e5dc99e83e4a3ad60",
    ("failure_recovery", "fluid"):
        "3e360160bd834294ad577d517b1c9b40662c09fc7a23eb6410484f9cb639eeaa",
    ("failure_recovery", "packet"):
        "82916dea216125bb18341b8c148c0deb73246392f388c6e80b32f1a84366cddc",
    ("dragonfly_hotspot", "fluid"):
        "14b6c9b6b7ca5ab66cff751494659351937090273337cf6a644142687b8ac596",
    ("dragonfly_hotspot", "packet"):
        "ceda4a04ff6f4c78e4b5ea9f0ad56633f833892070dc57079edb1e1cd4e621cc",
}


def _row_digest(row) -> str:
    text = json.dumps(strip_timing(row), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_loop_scenario_is_pinned():
    """A new loop scenario must join the snapshot table."""
    loop_scenarios = {
        scenario.name
        for scenario in list_scenarios()
        if scenario.parameters()["controller"] == "loop"
    }
    assert loop_scenarios == set(SIZE_OVERRIDES)
    assert set(PINNED_DIGESTS) == {
        (name, backend) for name in SIZE_OVERRIDES for backend in ("fluid", "packet")
    }


@pytest.mark.parametrize("name,backend", sorted(PINNED_DIGESTS))
def test_loop_row_is_byte_identical(name, backend):
    row = run_scenario(name, dict(SIZE_OVERRIDES[name], backend=backend))
    assert row["params"]["controller"] == "loop"
    assert _row_digest(row) == PINNED_DIGESTS[(name, backend)]
