"""Fabric assembly: topology + switching elements + power + bypass.

The :class:`Fabric` is the object the Closed Ring Control observes and
mutates.  It owns:

* the :class:`~repro.fabric.topology.Topology` (nodes and lane bundles),
* one switching element per node (the embedded cut-through element of each
  sled's NIC, or the dedicated switch ASIC for switch nodes),
* the :class:`~repro.phy.power.PowerModel` and a :class:`PowerBudget`,
* the :class:`~repro.phy.bypass.BypassManager` for PLP primitive 2,
* per-link utilisation streams feeding the CRC.

It also provides the closed-form end-to-end latency of a packet along a
path, which is the quantity Figure 1 plots and the quantity the analytical
validation (experiment E6) compares against the packet-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.fabric.node import NodeType
from repro.fabric.routing import Router, RoutingPolicy, WeightFn, hop_weight, path_links
from repro.fabric.switch import CutThroughSwitch, StoreAndForwardSwitch, SwitchModel
from repro.fabric.topology import Topology, canonical_key
from repro.phy.bypass import BypassManager
from repro.phy.power import PowerBudget, PowerModel, PowerReport
from repro.phy.stats import EwmaEstimator
from repro.sim.stats import fsum_seq

#: Smoothing weight of the per-link utilisation stream a control tick folds.
UTILISATION_ALPHA = 0.25


@dataclass
class FabricConfig:
    """Static configuration of a fabric instance."""

    switch_model: SwitchModel = field(default_factory=SwitchModel)
    power_model: PowerModel = field(default_factory=PowerModel)
    #: Use store-and-forward switching elements instead of cut-through
    #: (pessimistic baseline for the Figure 1 comparison).
    store_and_forward: bool = False
    #: Maximum simultaneous bypass circuits (None = unlimited).
    max_bypass_circuits: Optional[int] = 8
    #: Rack power cap in watts (None = uncapped).
    power_cap_watts: Optional[float] = None
    #: Routing policy used by the default router.
    routing_policy: RoutingPolicy = RoutingPolicy.SHORTEST


class Fabric:
    """A rack fabric: the unit the CRC controls."""

    def __init__(self, topology: Topology, config: Optional[FabricConfig] = None) -> None:
        self.topology = topology
        self.config = config if config is not None else FabricConfig()
        switch_cls = (
            StoreAndForwardSwitch if self.config.store_and_forward else CutThroughSwitch
        )
        self._switches: Dict[str, CutThroughSwitch] = {
            node.name: switch_cls(node.name, self.config.switch_model)
            for node in topology.nodes()
        }
        self.bypasses = BypassManager(max_circuits=self.config.max_bypass_circuits)
        self.power_budget = PowerBudget(cap_watts=self.config.power_cap_watts)
        #: Smoothed utilisation per canonical link key, folded once per
        #: control tick (:meth:`observe_links`); the other price-tag terms
        #: (latency, post-FEC BER, power) are read live from the link.
        self.link_utilisation: Dict[Tuple[str, str], EwmaEstimator] = {
            key: EwmaEstimator(alpha=UTILISATION_ALPHA) for key in topology.link_keys()
        }
        self.router = Router(
            topology, weight_fn=hop_weight, policy=self.config.routing_policy
        )

    # ------------------------------------------------------------------ #
    # Element access
    # ------------------------------------------------------------------ #
    def switch(self, name: str) -> CutThroughSwitch:
        """The switching element embedded in (or constituting) node *name*."""
        return self._switches[name]

    def switches(self) -> Dict[str, CutThroughSwitch]:
        """All switching elements keyed by node name."""
        return dict(self._switches)

    def utilisation_for(self, a: str, b: str) -> EwmaEstimator:
        """The smoothed-utilisation stream of the link joining *a* and *b*.

        Streams are created lazily for links added by reconfiguration.
        """
        key = canonical_key(a, b)
        stream = self.link_utilisation.get(key)
        if stream is None:
            stream = self.link_utilisation[key] = EwmaEstimator(alpha=UTILISATION_ALPHA)
        return stream

    def observe_links(
        self, utilisation: Mapping[Tuple[str, str], float]
    ) -> Dict[Tuple[str, str], float]:
        """Fold one control tick's utilisation into every link's stream.

        *utilisation* is keyed by canonical link key; links absent from it
        are observed as idle.  Returns the smoothed utilisation of every
        link, keyed the same way.
        """
        utilisation_for = self.utilisation_for
        return {
            key: utilisation_for(*key).update(utilisation.get(key, 0.0))
            for key in self.topology.link_keys()
        }

    def register_switch(self, name: str) -> CutThroughSwitch:
        """Create a switching element for a node added after construction."""
        if name not in self._switches:
            switch_cls = (
                StoreAndForwardSwitch
                if self.config.store_and_forward
                else CutThroughSwitch
            )
            self._switches[name] = switch_cls(name, self.config.switch_model)
        return self._switches[name]

    # ------------------------------------------------------------------ #
    # Closed-form path latency (Figure 1 and the E6 validation)
    # ------------------------------------------------------------------ #
    def path_latency(
        self,
        path: Sequence[str],
        packet_size_bits: float,
        include_source_serialization: bool = True,
    ) -> Dict[str, float]:
        """Latency breakdown of one packet along *path* on an idle fabric.

        Returns a dictionary with the components:

        * ``serialization`` -- clocking the packet onto the first link (for a
          cut-through fabric the payload then streams through and is never
          re-serialised; a store-and-forward fabric re-pays it per hop, which
          the switch model accounts for inside ``switching``),
        * ``propagation`` -- media delay summed over every link,
        * ``switching`` -- forwarding latency of every *intermediate*
          switching element (the destination does not forward),
        * ``phy`` -- SerDes plus FEC latency of every link on the path,
        * ``total`` -- sum of the above.

        The path must contain at least two nodes.
        """
        if len(path) < 2:
            raise ValueError("a path needs at least a source and a destination")
        links = path_links(self.topology, path)
        serialization = 0.0
        if include_source_serialization:
            serialization = links[0].serialization_delay(packet_size_bits)
        propagation = fsum_seq(link.propagation_delay for link in links)
        phy = fsum_seq(link.phy_latency for link in links)
        switching = 0.0
        for intermediate in path[1:-1]:
            switching += self._switches[intermediate].forwarding_latency(packet_size_bits)
        total = serialization + propagation + switching + phy
        return {
            "serialization": serialization,
            "propagation": propagation,
            "switching": switching,
            "phy": phy,
            "total": total,
        }

    # ------------------------------------------------------------------ #
    # Power accounting
    # ------------------------------------------------------------------ #
    def power_report(self) -> PowerReport:
        """Instantaneous fabric power, broken down by component class."""
        model = self.config.power_model
        report = PowerReport()
        report.links_watts = self.topology.total_link_power_watts()
        for node in self.topology.nodes():
            active_ports = self.topology.degree(node.name)
            if node.node_type is NodeType.SWITCH:
                report.switches_watts += model.switch_power(active_ports)
            else:
                # Endpoint sleds: the NIC plus its embedded switching element,
                # charged per active lane on every attached fabric port so
                # that gating lanes off actually recovers power.
                report.nics_watts += model.nic_base_watts
                attached_active_lanes = sum(  # repro: ignore[D004] int lane counts
                    self.topology.link_between(node.name, neighbour).num_active_lanes
                    for neighbour in self.topology.neighbors(node.name)
                )
                report.switches_watts += (
                    attached_active_lanes * model.switch_port_lane_watts
                )
        report.bypass_watts = (
            len(self.bypasses.active_circuits()) * model.bypass_circuit_watts
        )
        return report

    # ------------------------------------------------------------------ #
    # Fluid-simulation interface
    # ------------------------------------------------------------------ #
    def directed_capacities(self) -> Dict[Tuple[str, str], float]:
        """Per-direction link capacities for the fluid simulator."""
        return self.topology.directed_capacities()

    def route_keys(self, src: str, dst: str, flow_id: Optional[int] = None) -> List[Tuple[str, str]]:
        """Directed link keys of the routed path for a flow."""
        path = self.router.path(src, dst, flow_id=flow_id)
        return [(path[i], path[i + 1]) for i in range(len(path) - 1)]

    # ------------------------------------------------------------------ #
    # Reconfiguration hooks (called by the PLP executor)
    # ------------------------------------------------------------------ #
    def invalidate_routes(self) -> None:
        """Drop routing caches after the topology or link costs changed."""
        self.router.invalidate()

    def set_router_weight(self, weight_fn: WeightFn) -> None:
        """Install a new link-cost function (the CRC's price tags) for routing."""
        self.router.set_weight_fn(weight_fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Fabric({self.topology!r})"
