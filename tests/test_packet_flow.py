"""Tests for packets, hop records, flows and flow sets."""

import pytest

from repro.sim.flow import Flow, FlowSet, FlowState
from repro.sim.packet import HopRecord, Packet


# --------------------------------------------------------------------------- #
# Packet
# --------------------------------------------------------------------------- #
def test_packet_of_bytes_converts_size():
    packet = Packet.of_bytes("a", "b", 1500)
    assert packet.size_bits == 12000


def test_packet_ids_are_unique():
    first = Packet("a", "b", 100)
    second = Packet("a", "b", 100)
    assert first.packet_id != second.packet_id


def test_packet_latency_requires_delivery():
    packet = Packet("a", "b", 100, created_at=1.0)
    assert packet.latency is None
    packet.mark_delivered(1.5)
    assert packet.latency == pytest.approx(0.5)


def test_packet_drop_bookkeeping():
    packet = Packet("a", "b", 100)
    packet.mark_dropped("buffer overflow")
    assert packet.dropped
    assert packet.drop_reason == "buffer overflow"


def test_packet_delay_breakdown_sums_hops():
    packet = Packet("a", "c", 100)
    packet.record_hop(
        HopRecord(element="a", arrival=0.0, departure=1.0, queueing=0.1, switching=0.2,
                  serialization=0.3, propagation=0.4)
    )
    packet.record_hop(
        HopRecord(element="b", arrival=1.0, departure=2.0, queueing=0.5, switching=0.6,
                  serialization=0.0, propagation=0.7)
    )
    breakdown = packet.delay_breakdown()
    assert breakdown["queueing"] == pytest.approx(0.6)
    assert breakdown["switching"] == pytest.approx(0.8)
    assert breakdown["serialization"] == pytest.approx(0.3)
    assert breakdown["propagation"] == pytest.approx(1.1)
    assert len(packet.hops) == 2


def test_hop_record_total():
    record = HopRecord(element="x", arrival=0, departure=0, queueing=1, switching=2,
                       serialization=3, propagation=4)
    assert record.total() == 10


# --------------------------------------------------------------------------- #
# Flow
# --------------------------------------------------------------------------- #
def test_flow_requires_positive_size():
    with pytest.raises(ValueError):
        Flow("a", "b", 0)


def test_flow_rejects_same_endpoints():
    with pytest.raises(ValueError):
        Flow("a", "a", 10)


def test_flow_rejects_negative_start():
    with pytest.raises(ValueError):
        Flow("a", "b", 10, start_time=-1)


def test_flow_lifecycle_and_fct():
    flow = Flow("a", "b", 1000, start_time=1.0)
    assert flow.state is FlowState.PENDING
    flow.activate(1.0)
    assert flow.state is FlowState.ACTIVE
    flow.complete(3.0)
    assert flow.completed
    assert flow.fct == pytest.approx(2.0)
    assert flow.bits_remaining == 0.0


def test_flow_transfer_consumes_bits():
    flow = Flow("a", "b", 1000)
    consumed = flow.transfer(300)
    assert consumed == 300
    assert flow.bits_remaining == 700
    consumed = flow.transfer(10_000)
    assert consumed == 700
    assert flow.bits_remaining == 0


def test_flow_transfer_rejects_negative():
    with pytest.raises(ValueError):
        Flow("a", "b", 10).transfer(-1)


def test_flow_completion_cannot_precede_start():
    flow = Flow("a", "b", 10, start_time=5.0)
    with pytest.raises(ValueError):
        flow.complete(4.0)


def test_flow_cannot_activate_after_completion():
    flow = Flow("a", "b", 10)
    flow.complete(1.0)
    with pytest.raises(ValueError):
        flow.activate(2.0)


def test_flow_reject():
    flow = Flow("a", "b", 10)
    flow.reject("no path")
    assert flow.state is FlowState.REJECTED
    assert flow.metadata["reject_reason"] == "no path"


# --------------------------------------------------------------------------- #
# FlowSet
# --------------------------------------------------------------------------- #
def _completed_flow(src, dst, size, start, end):
    flow = Flow(src, dst, size, start_time=start)
    flow.activate(start)
    flow.complete(end)
    return flow


def test_flowset_summary_statistics():
    flows = FlowSet(
        [
            _completed_flow("a", "b", 100, 0.0, 1.0),
            _completed_flow("b", "c", 100, 0.0, 2.0),
            _completed_flow("c", "d", 100, 0.0, 4.0),
        ]
    )
    assert len(flows) == 3
    assert flows.completion_fraction() == 1.0
    assert flows.total_bits() == 300
    assert flows.mean_fct() == pytest.approx(7.0 / 3.0)
    assert flows.max_fct() == pytest.approx(4.0)
    assert flows.makespan() == pytest.approx(4.0)
    assert flows.fct_percentile(50) == pytest.approx(2.0)


def test_flowset_makespan_none_when_incomplete():
    flows = FlowSet([Flow("a", "b", 100)])
    assert flows.makespan() is None
    assert flows.completion_fraction() == 0.0


def test_flowset_empty_statistics():
    flows = FlowSet()
    assert flows.mean_fct() is None
    assert flows.fct_percentile(99) is None
    assert flows.max_fct() is None
    assert flows.summary()["flows"] == 0.0


def test_flowset_add_and_iterate():
    flows = FlowSet()
    flow = Flow("a", "b", 10)
    flows.add(flow)
    flows.extend([Flow("b", "c", 10)])
    assert len(flows) == 2
    assert flows[0] is flow
    assert [f.src for f in flows] == ["a", "b"]
