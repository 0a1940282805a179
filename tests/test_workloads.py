"""Tests for the workload generators."""

import pytest

from repro.sim.units import megabytes
from repro.workloads.arrivals import PoissonArrivals, constant_arrivals
from repro.workloads.base import WorkloadSpec
from repro.workloads.hotspot import HotspotWorkload
from repro.workloads.incast import IncastWorkload
from repro.workloads.mapreduce import MapReduceShuffleWorkload
from repro.workloads.permutation import PermutationWorkload
from repro.workloads.storage import DisaggregatedStorageWorkload
from repro.workloads.trace_replay import TraceRecordSpec, TraceReplayWorkload
from repro.workloads.uniform import UniformRandomWorkload
from repro.sim.random import RandomStreams


NODES = [f"n{i}" for i in range(8)]


def spec(**kwargs):
    defaults = dict(nodes=NODES, mean_flow_size_bits=megabytes(1), seed=3)
    defaults.update(kwargs)
    return WorkloadSpec(**defaults)


# --------------------------------------------------------------------------- #
# Spec and arrivals
# --------------------------------------------------------------------------- #
def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(nodes=["only"])
    with pytest.raises(ValueError):
        WorkloadSpec(nodes=NODES, mean_flow_size_bits=0)
    with pytest.raises(ValueError):
        WorkloadSpec(nodes=NODES, start_time=-1)


def test_poisson_arrivals_monotone_and_reproducible():
    streams = RandomStreams(1)
    times = PoissonArrivals(1000.0, streams).times(50, start_time=1.0)
    assert len(times) == 50
    assert all(b > a for a, b in zip(times, times[1:]))
    assert times[0] > 1.0
    again = PoissonArrivals(1000.0, RandomStreams(1)).times(50, start_time=1.0)
    assert times == again


def test_poisson_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(0, RandomStreams(0))


def test_constant_arrivals():
    assert constant_arrivals(3, 2.0, start_time=1.0) == [1.0, 3.0, 5.0]
    with pytest.raises(ValueError):
        constant_arrivals(-1, 1.0)


# --------------------------------------------------------------------------- #
# MapReduce shuffle
# --------------------------------------------------------------------------- #
def test_shuffle_generates_all_mapper_reducer_pairs():
    workload = MapReduceShuffleWorkload(spec())
    flows = workload.generate()
    assert len(flows) == 4 * 4
    pairs = {(flow.src, flow.dst) for flow in flows}
    assert len(pairs) == 16
    assert all(flow.src in workload.mappers and flow.dst in workload.reducers for flow in flows)


def test_shuffle_skew_makes_last_reducer_hot():
    workload = MapReduceShuffleWorkload(spec(), size_jitter=0.0, skew_factor=3.0)
    flows = workload.generate()
    last_reducer = workload.reducers[-1]
    hot = sum(flow.size_bits for flow in flows if flow.dst == last_reducer)
    cold = sum(flow.size_bits for flow in flows if flow.dst == workload.reducers[0])
    assert hot == pytest.approx(3.0 * cold)


def test_shuffle_explicit_roles_and_validation():
    workload = MapReduceShuffleWorkload(spec(), mappers=["n0"], reducers=["n7"])
    assert len(workload.generate()) == 1
    with pytest.raises(ValueError):
        MapReduceShuffleWorkload(spec(), mappers=["n0"], reducers=["n0"])
    with pytest.raises(ValueError):
        MapReduceShuffleWorkload(spec(), size_jitter=1.5)


def test_shuffle_is_reproducible():
    first = MapReduceShuffleWorkload(spec()).generate()
    second = MapReduceShuffleWorkload(spec()).generate()
    assert [f.size_bits for f in first] == [f.size_bits for f in second]


# --------------------------------------------------------------------------- #
# Permutation
# --------------------------------------------------------------------------- #
def test_permutation_every_node_sends_once_to_distinct_target():
    flows = PermutationWorkload(spec()).generate()
    assert len(flows) == len(NODES)
    assert {flow.src for flow in flows} == set(NODES)
    assert all(flow.src != flow.dst for flow in flows)
    destinations = [flow.dst for flow in flows]
    assert len(set(destinations)) == len(NODES)


def test_permutation_heavy_tailed_sizes_vary():
    flows = PermutationWorkload(spec(), heavy_tailed=True).generate()
    sizes = {flow.size_bits for flow in flows}
    assert len(sizes) > 1
    with pytest.raises(ValueError):
        PermutationWorkload(spec(), heavy_tailed=True, pareto_shape=1.0)


# --------------------------------------------------------------------------- #
# Uniform random
# --------------------------------------------------------------------------- #
def test_uniform_workload_counts_and_endpoints():
    flows = UniformRandomWorkload(spec(), num_flows=40).generate()
    assert len(flows) == 40
    assert all(flow.src != flow.dst for flow in flows)
    assert all(flow.start_time == 0.0 for flow in flows)


def test_uniform_workload_offered_load_spreads_arrivals():
    flows = UniformRandomWorkload(
        spec(), num_flows=40, offered_load_bps=megabytes(1) * 1000
    ).generate()
    assert len({flow.start_time for flow in flows}) > 10


def test_uniform_workload_validation():
    with pytest.raises(ValueError):
        UniformRandomWorkload(spec(), num_flows=0)
    with pytest.raises(ValueError):
        UniformRandomWorkload(spec(), offered_load_bps=1.0, arrival_rate_per_second=1.0)


# --------------------------------------------------------------------------- #
# Hotspot
# --------------------------------------------------------------------------- #
def test_hotspot_concentrates_traffic():
    hot_pairs = [("n0", "n7")]
    workload = HotspotWorkload(
        spec(), num_flows=50, hot_fraction=0.6, hot_pairs=hot_pairs, hot_size_multiplier=2.0
    )
    flows = workload.generate()
    hot_flows = [f for f in flows if (f.src, f.dst) == ("n0", "n7")]
    assert len(hot_flows) == 30
    assert all(f.size_bits == pytest.approx(2 * megabytes(1)) for f in hot_flows)


def test_hotspot_draws_pairs_when_not_given():
    workload = HotspotWorkload(spec(), num_flows=20, num_hot_pairs=3)
    assert len(workload.hot_pairs) == 3
    assert all(src != dst for src, dst in workload.hot_pairs)


def test_hotspot_validation():
    with pytest.raises(ValueError):
        HotspotWorkload(spec(), hot_fraction=1.5)
    with pytest.raises(ValueError):
        HotspotWorkload(spec(), hot_pairs=[("n0", "n0")])


# --------------------------------------------------------------------------- #
# Incast
# --------------------------------------------------------------------------- #
def test_incast_all_senders_to_one_receiver():
    workload = IncastWorkload(spec())
    flows = workload.generate()
    assert len(flows) == len(NODES) - 1
    assert all(flow.dst == workload.receiver for flow in flows)
    assert all(flow.start_time == 0.0 for flow in flows)


def test_incast_stagger_spaces_starts():
    flows = IncastWorkload(spec(), stagger=1e-3).generate()
    starts = sorted({flow.start_time for flow in flows})
    assert len(starts) == len(flows)
    assert starts[1] - starts[0] == pytest.approx(1e-3)


def test_incast_validation():
    with pytest.raises(ValueError):
        IncastWorkload(spec(), receiver="unknown")
    with pytest.raises(ValueError):
        IncastWorkload(spec(), senders=["n7"], receiver="n7")


# --------------------------------------------------------------------------- #
# Disaggregated storage
# --------------------------------------------------------------------------- #
def test_storage_workload_read_write_mix():
    workload = DisaggregatedStorageWorkload(
        spec(), num_requests=200, read_fraction=0.7, requests_per_second=1e6
    )
    flows = workload.generate()
    assert len(flows) == 200
    reads = [f for f in flows if f.tag and f.tag.endswith("read")]
    writes = [f for f in flows if f.tag and f.tag.endswith("write")]
    assert len(reads) + len(writes) == 200
    assert 0.5 < len(reads) / 200 < 0.9
    # Reads flow storage -> compute, writes the other way.
    assert all(f.src in workload.storage_nodes for f in reads)
    assert all(f.dst in workload.storage_nodes for f in writes)


def test_storage_workload_validation():
    with pytest.raises(ValueError):
        DisaggregatedStorageWorkload(spec(), compute_nodes=["n0"], storage_nodes=["n0"])
    with pytest.raises(ValueError):
        DisaggregatedStorageWorkload(spec(), read_fraction=2.0)


# --------------------------------------------------------------------------- #
# Trace replay
# --------------------------------------------------------------------------- #
def test_trace_replay_round_trip():
    records = [
        TraceRecordSpec("n0", "n1", 100.0, 0.0),
        TraceRecordSpec("n1", "n2", 200.0, 0.5),
    ]
    flows = TraceReplayWorkload(spec(), records).generate()
    assert len(flows) == 2
    assert flows[0].size_bits == 100.0
    assert flows[1].start_time == pytest.approx(0.5)


def test_trace_replay_csv_parsing():
    text = "src,dst,size_bits,start_time\nn0,n1,100,0.0\nn2,n3,50,1.0\n"
    workload = TraceReplayWorkload.from_csv(spec(), text)
    flows = workload.generate()
    assert len(flows) == 2
    with pytest.raises(ValueError):
        TraceReplayWorkload.parse_csv("src,dst\n")


def test_trace_replay_rejects_unknown_nodes_and_bad_records():
    with pytest.raises(ValueError):
        TraceReplayWorkload(spec(), [TraceRecordSpec("n0", "zz", 1.0, 0.0)])
    with pytest.raises(ValueError):
        TraceRecordSpec("a", "a", 1.0, 0.0)
    with pytest.raises(ValueError):
        TraceRecordSpec("a", "b", 0.0, 0.0)
    with pytest.raises(ValueError):
        TraceReplayWorkload(spec(), [])
