"""Native routing: one no-path error for every query, and no networkx at runtime.

SHORTEST routes, the k-shortest and ECMP sets (Yen's algorithm) and the
hop-count graph queries all run on the topology's own adjacency, so no
experiment imports networkx, whatever its controller.  Every path query
reports a disconnected pair or an unknown node as
:class:`~repro.fabric.routing.NoPathError`, which is the one exception the
control plane catches.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.crc import ClosedRingControl, CRCConfig
from repro.core.scheduler import FlowScheduler
from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.routing import (
    NoPathError,
    ecmp_paths,
    k_shortest_paths,
    latency_weight,
    shortest_path,
)
from repro.fabric.topology import TopologyBuilder
from repro.sim.flow import Flow
from repro.sim.fluid import FluidFlowSimulator
from repro.sim.units import megabytes, microseconds

SRC = Path(__file__).resolve().parents[1] / "src"

#: The links that cut a 2x4 grid between columns 1 and 2.
CUT = [("n0x1", "n0x2"), ("n1x1", "n1x2")]

QUERIES = {
    "shortest-hop": lambda topology, src, dst: shortest_path(topology, src, dst),
    "shortest-latency": lambda topology, src, dst: shortest_path(
        topology, src, dst, latency_weight
    ),
    "k-shortest": lambda topology, src, dst: k_shortest_paths(topology, src, dst, 3),
    "ecmp": lambda topology, src, dst: ecmp_paths(topology, src, dst),
}


def _grid_fabric():
    return Fabric(TopologyBuilder(lanes_per_link=2).grid(2, 4), FabricConfig())


@pytest.mark.parametrize("query", QUERIES.values(), ids=QUERIES.keys())
def test_every_path_query_raises_no_path_error(query):
    topology = _grid_fabric().topology
    for a, b in CUT:
        topology.remove_link(a, b)
    with pytest.raises(NoPathError):
        query(topology, "n0x0", "n1x3")
    for pair in [("n0x0", "nowhere"), ("nowhere", "n0x0")]:
        with pytest.raises(NoPathError, match="nowhere"):
            query(topology, *pair)
    assert query(topology, "n0x0", "n1x1")  # each side still routes


def test_a_split_topology_strands_flows_without_raising():
    fabric = _grid_fabric()
    crc = ClosedRingControl(fabric, CRCConfig(enable_bypass=False))
    simulator = FluidFlowSimulator()
    for key, capacity in fabric.directed_capacities().items():
        simulator.add_link(key, capacity)
    flow = Flow("n0x0", "n1x3", megabytes(4))
    simulator.add_flow(flow, fabric.route_keys(flow.src, flow.dst, flow.flow_id))
    simulator.run(until=microseconds(1))
    route = simulator.route_of(flow.flow_id)

    for a, b in CUT:
        fabric.topology.remove_link(a, b)
    assert FlowScheduler(fabric).cheapest_path("n0x0", "n1x3") is None
    crc.reroute_active_flows(simulator)  # skips the stranded flow
    assert simulator.route_of(flow.flow_id) == route


RUN_WITHOUT_NETWORKX = """
import sys

controller, backend = sys.argv[1:]

from repro.experiments.api import ExperimentSpec, run_experiment
from repro.experiments.harness import build_fabric, fabric_state_row
from repro.fabric.routing import RoutingPolicy
from repro.sim.units import megabytes
from repro.workloads.base import WorkloadSpec
from repro.workloads.uniform import UniformRandomWorkload

fabric = build_fabric("grid", 4, 4)
assert fabric.router.policy is RoutingPolicy.SHORTEST
spec = WorkloadSpec(
    nodes=fabric.topology.endpoints(), mean_flow_size_bits=megabytes(0.1), seed=3
)
flows = UniformRandomWorkload(spec, num_flows=32).generate()
record = run_experiment(
    ExperimentSpec(
        fabric=fabric, flows=flows, controller=controller, backend=backend, engine="batched"
    )
)
assert record.metrics["completion_fraction"] == 1.0
assert fabric.router.cache_misses > 0
fabric_state_row(fabric)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "networkx")
assert not loaded, f"networkx modules loaded: {loaded[:5]}"
"""


#: ``(controller, backend)``: SHORTEST alone, the loop's k-shortest
#: candidates on both backends (packet on the batched engine), ECMP sets.
NO_NETWORKX_RUNS = {
    "shortest-fluid": ("none", "fluid"),
    "loop-fluid": ("loop", "fluid"),
    "loop-packet": ("loop", "packet"),
    "ecmp-fluid": ("ecmp", "fluid"),
}


@pytest.mark.parametrize("controller,backend", NO_NETWORKX_RUNS.values(), ids=NO_NETWORKX_RUNS)
def test_a_run_never_imports_networkx(controller, backend):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_NETWORKX, controller, backend],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
