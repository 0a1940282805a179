"""Regression suite for the packet backend's control surface.

Three behaviour changes landed together when the closed control loop
became a first-class citizen of :class:`~repro.fabric.packetsim.PacketBackend`,
and each is pinned here:

* ``instantaneous_link_utilisation``/``instantaneous_link_load`` are now
  *occupancy-derived* -- a work-conserving FIFO port either serves at its
  full link rate or sits idle, so the instantaneous signal is exactly 0/1
  (times capacity).  Controllers (the CRC included) observe this signal.
* ``set_capacity``/``add_link`` are eager: a live capacity change reshapes
  the port's FIFO drain deadline *at the mutation instant* and changes
  drop accounting from then on, instead of only feeding report integrals.
* ``set_enabled`` really disables a directed link (everything offered is
  dropped), the packet analogue of the fluid model's zero-effective-
  capacity disabled state that PLP training windows rely on.
"""

import pytest

from repro.core.crc import ClosedRingControl, CRCConfig
from repro.experiments.harness import build_fabric
from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.packetsim import PacketBackend
from repro.fabric.switch import SwitchModel
from repro.fabric.topology import TopologyBuilder
from repro.phy.link import Link
from repro.sim.flow import Flow
from repro.sim.transport import TransportConfig
from repro.sim.units import bits_from_bytes

MTU_BITS = bits_from_bytes(1500)


def line_fabric(nodes=4, lanes=4, buffer_bytes=None):
    config = FabricConfig()
    if buffer_bytes is not None:
        config = FabricConfig(
            switch_model=SwitchModel(buffer_bits=bits_from_bytes(buffer_bytes))
        )
    return Fabric(TopologyBuilder(lanes_per_link=lanes).line(nodes), config)


# --------------------------------------------------------------------------- #
# Instantaneous telemetry is occupancy-derived
# --------------------------------------------------------------------------- #
def test_instantaneous_utilisation_is_occupancy_derived():
    """Mid-transmission the port is busy (1.0, load == capacity); after the
    drain it is idle (0.0) -- never a window average in between."""
    fabric = line_fabric(nodes=2)
    flow = Flow("n0", "n1", size_bits=40 * MTU_BITS)
    backend = PacketBackend(
        fabric, [flow], transport=TransportConfig(window_packets=8)
    )
    key = ("n0", "n1")
    capacity = backend.links()[key]
    serialization = MTU_BITS / capacity

    backend.run(until=2.5 * serialization)  # inside the initial 8-packet burst
    utilisation = backend.instantaneous_link_utilisation()
    load = backend.instantaneous_link_load()
    assert set(utilisation.values()) <= {0.0, 1.0}
    assert utilisation[key] == 1.0
    assert load[key] == pytest.approx(capacity)

    backend.run()
    assert flow.completed
    assert all(v == 0.0 for v in backend.instantaneous_link_utilisation().values())
    assert all(v == 0.0 for v in backend.instantaneous_link_load().values())


def test_crc_on_packet_observes_instantaneous_rates():
    """The CRC's recorded per-tick max utilisation on the packet backend is
    the occupancy indicator -- exactly 0.0 or 1.0 -- not a fractional
    window average."""
    fabric = build_fabric("grid", 2, 2)
    flows = [
        Flow("n0x0", "n1x1", size_bits=400 * MTU_BITS),
        Flow("n1x0", "n0x1", size_bits=400 * MTU_BITS),
    ]
    backend = PacketBackend(fabric, flows)
    crc = ClosedRingControl(
        fabric, CRCConfig(grid_rows=2, grid_columns=2, control_period=1e-5)
    )
    crc.attach(backend)
    backend.run()
    assert all(flow.completed for flow in flows)
    observed = [iteration.max_utilisation for iteration in crc.iterations]
    assert observed, "the CRC never ticked"
    assert all(value in (0.0, 1.0) for value in observed)
    assert any(value == 1.0 for value in observed)


# --------------------------------------------------------------------------- #
# Eager set_capacity / add_link
# --------------------------------------------------------------------------- #
def test_set_capacity_reshapes_drain_time_at_the_mutation_instant():
    """Halving a port's service rate doubles its backlog drain time *now*,
    not at the next packet arrival: queued bits are conserved while their
    drain deadline is rescaled."""
    fabric = line_fabric(nodes=2, lanes=4)
    flow = Flow("n0", "n1", size_bits=40 * MTU_BITS)
    backend = PacketBackend(
        fabric, [flow], transport=TransportConfig(window_packets=16)
    )
    key = ("n0", "n1")
    link = fabric.topology.link_between("n0", "n1")
    serialization = MTU_BITS / link.capacity_bps

    backend.run(until=2.5 * serialization)  # 16-packet burst still draining
    before = backend.network.port_drain_time(key)
    assert before > 0.0

    link.set_active_lane_count(2)  # the fabric-side mutation (as a failure
    backend.set_capacity(key, link.capacity_bps)  # plan or PLP batch does it)
    after = backend.network.port_drain_time(key)
    assert after == pytest.approx(2.0 * before, rel=1e-9)
    assert backend.links()[key] == pytest.approx(link.capacity_bps)

    backend.run()
    assert flow.completed


def test_mid_run_capacity_loss_changes_drop_accounting():
    """A capacity change pushed through ``set_capacity`` must change what
    happens to packets -- here a mid-run failure to zero capacity turns a
    clean run into one with drops -- while packet conservation holds."""

    def run_once(fail_mid_run):
        fabric = line_fabric(nodes=2, lanes=4)
        flow = Flow("n0", "n1", size_bits=40 * MTU_BITS)
        backend = PacketBackend(
            fabric,
            [flow],
            # A small window so most segments are still waiting for their
            # slot at the failure instant (accepted packets complete on
            # the old drain schedule by design); they meet the dead link.
            transport=TransportConfig(
                window_packets=4, max_attempts=3, retransmit_delay=1e-6
            ),
        )
        if fail_mid_run:
            link = fabric.topology.link_between("n0", "n1")
            backend.run(until=2.5 * MTU_BITS / link.capacity_bps)
            link.disable()
            backend.set_capacity(("n0", "n1"), link.capacity_bps)
        backend.run()
        return flow, backend

    flow, clean = run_once(fail_mid_run=False)
    assert flow.completed
    assert clean.network.dropped_count == 0

    flow, failed = run_once(fail_mid_run=True)
    assert not flow.completed
    assert failed.network.dropped_count > 0
    assert failed.transport.segments_abandoned > 0
    network = failed.network
    assert network.in_flight == 0
    assert (
        network.packets_entered
        == network.delivered_count + network.dropped_count
    )


def test_add_link_materialises_the_port_and_carries_rerouted_traffic():
    """A link created mid-run (the PLP new-link move) is usable the moment
    ``add_link`` registers it: the port exists, reports a zero drain time,
    and the very next reroute sends packets over it."""
    fabric = line_fabric(nodes=3, lanes=4)
    flow = Flow("n0", "n2", size_bits=40 * MTU_BITS)
    backend = PacketBackend(
        fabric, [flow], transport=TransportConfig(window_packets=4)
    )
    key = ("n0", "n2")
    assert not backend.has_link(key)

    backend.run(until=5e-6)
    shortcut = fabric.topology.add_link(Link("n0", "n2", num_lanes=4))
    backend.add_link(key, shortcut.capacity_bps)
    backend.add_link(("n2", "n0"), shortcut.capacity_bps)
    assert backend.has_link(key)
    assert key in backend.network.port_stats()
    assert backend.network.port_drain_time(key) == 0.0
    assert backend.instantaneous_link_utilisation()[key] == 0.0

    backend.reroute(flow.flow_id, [key])
    backend.run()
    assert flow.completed
    assert backend.network.port_stats()[key].packets_sent > 0


# --------------------------------------------------------------------------- #
# set_enabled
# --------------------------------------------------------------------------- #
def test_disabled_link_drops_offered_packets_until_reenabled():
    """The training-window safety net: a disabled directed link drops what
    it is offered and reads as zero in the instantaneous telemetry; on
    re-enable traffic flows again and the flow completes."""
    fabric = line_fabric(nodes=2, lanes=4)
    flow = Flow("n0", "n1", size_bits=10 * MTU_BITS)
    backend = PacketBackend(
        fabric, [flow], transport=TransportConfig(retransmit_delay=1e-6)
    )
    key = ("n0", "n1")
    backend.set_enabled(key, False)
    backend.run(until=5e-6)
    assert backend.network.dropped_count > 0
    assert backend.network.delivered_count == 0
    assert backend.instantaneous_link_utilisation()[key] == 0.0

    backend.set_enabled(key, True)
    backend.run()
    assert flow.completed

    with pytest.raises(KeyError):
        backend.set_enabled(("n0", "bogus"), False)


def test_route_of_reports_the_directed_key_route():
    fabric = line_fabric(nodes=4)
    flow = Flow("n0", "n3", size_bits=MTU_BITS)
    backend = PacketBackend(fabric, [flow])
    assert backend.route_of(flow.flow_id) == [
        ("n0", "n1"),
        ("n1", "n2"),
        ("n2", "n3"),
    ]
