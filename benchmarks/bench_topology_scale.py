"""Scale guard for the 1k-endpoint topology families.

The fat-tree and dragonfly scenario defaults put 1024 hosts on the
fabric, two orders of magnitude past the paper's rack.  The sweep and
scenario layers call ``fabric_state_row`` (one BFS per edge switch or
router: the hosts on it share their neighbour's search) and the router's
shortest-path queries on the live graph on every row, so those paths must
stay cheap at that size -- this guard pins the declared shapes and holds
build + state-row + first-route inside a deliberately loose CI budget
(the measured cost is well under a second per family).
"""

import time

import pytest

from repro.experiments.harness import build_fabric, fabric_state_row
from repro.fabric.topologies import topology_metadata

#: (topology name, builder dimensions) for the two 1k-endpoint defaults.
SCALE_CASES = [
    ("fat-tree", {"pods": 16}),
    ("dragonfly", {"groups": 16, "routers_per_group": 8, "hosts_per_router": 8}),
]

#: Wall-clock bound on build + fabric_state_row + one routed path, loose
#: enough that slow CI machines do not flake.
BUDGET_SECONDS = 20.0


@pytest.mark.parametrize("name,dims", SCALE_CASES, ids=[c[0] for c in SCALE_CASES])
def test_1k_endpoint_family_within_ci_budget(name, dims):
    meta = topology_metadata(name, dims)
    assert meta.endpoints >= 1000

    start = time.perf_counter()
    fabric = build_fabric(name, **dims)
    row = fabric_state_row(fabric)
    endpoints = fabric.topology.endpoints()
    path = fabric.router.path(endpoints[0], endpoints[-1])
    elapsed = time.perf_counter() - start

    assert len(endpoints) == meta.endpoints
    assert row["diameter_hops"] == float(meta.diameter_hops)
    # The first routed pair crosses the whole fabric: its hop count is the
    # diameter (host at each end, switches between).
    assert len(path) - 1 == meta.diameter_hops
    assert elapsed < BUDGET_SECONDS, (
        f"{name} 1k-endpoint build+state+route took {elapsed:.2f}s "
        f"(budget {BUDGET_SECONDS}s)"
    )


@pytest.mark.parametrize("name,dims", SCALE_CASES, ids=[c[0] for c in SCALE_CASES])
def test_state_row_reflects_declared_shape(name, dims):
    meta = topology_metadata(name, dims)
    fabric = build_fabric(name, **dims)
    row = fabric_state_row(fabric)
    assert row["links"] == meta.links
    assert row["active_lanes"] == meta.links * 2  # builder default lane bundles
    assert fabric.topology.bisection_bandwidth_bps() == pytest.approx(
        meta.bisection_bandwidth_bps
    )
