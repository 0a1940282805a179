"""The topology-family registry.

Scenarios, sweeps and the CLI refer to fabrics by a topology *name*
(``"grid"``, ``"torus"``, ``"fat-tree"``, ``"dragonfly"``).  A
:class:`TopologyFamily` registered with the :func:`register_topology`
decorator (mirroring the controller registry in
:mod:`repro.core.controllers`) turns that name into:

* a **builder**: flat scenario parameters -> a concrete
  :class:`~repro.fabric.topology.Topology` (and, via
  :func:`build_topology_fabric`, a routed
  :class:`~repro.fabric.fabric.Fabric`),
* **declared metadata**: endpoint/switch/link counts, hop diameter and the
  bisection bandwidth of the builder's output, in closed form -- the
  Hypothesis suite in ``tests/test_topologies.py`` pins the built graph to
  every declared number, and
* a **family tag** stamped onto the built topology
  (:attr:`Topology.kind`/:attr:`Topology.dimensions`), from which the
  control loop derives its moves through the reconfiguration-candidate
  registry (:mod:`repro.core.candidates`), and which lets each move refuse
  fabrics it does not apply to.

A third-party family plugs in without touching this package::

    @register_topology
    class RingFamily(TopologyFamily):
        name = "ring"
        ...

    run_scenario("uniform-burst", {"topology": "ring"})
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Type

from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.topology import Topology, TopologyBuilder
from repro.phy.fec import FEC_RS528, FecScheme
from repro.sim.units import GBPS


class TopologyError(ValueError):
    """Raised for unknown topology names, duplicates or bad dimensions."""


@dataclass(frozen=True)
class TopologyMetadata:
    """Closed-form shape declaration of one built topology instance.

    ``bisection_links``/``bisection_bandwidth_bps`` use the same estimator
    semantics as :meth:`Topology.bisection_bandwidth_bps`: the endpoint
    list is split in half in insertion order and crossing link capacity is
    summed (for the switch-based families every first-half host contributes
    exactly its one uplink, so the cut is ``endpoints // 2`` links wide).
    """

    name: str
    endpoints: int
    switches: int
    links: int
    diameter_hops: int
    bisection_links: int
    bisection_bandwidth_bps: float

    @property
    def nodes(self) -> int:
        """Total graph vertices (endpoints plus switches)."""
        return self.endpoints + self.switches


class TopologyFamily:
    """Interface of one registered topology family.

    Subclasses declare the class attributes and implement
    :meth:`validate`, :meth:`build_topology` and :meth:`metadata`; the
    base class provides parameter extraction and fabric assembly.
    """

    #: Registry key, also stamped as :attr:`Topology.kind` on built graphs.
    name: str = ""
    #: Broader family group for catalog listings (``"mesh"``, ``"clos"``...).
    family: str = ""
    #: One line for ``repro-fabric list-topologies``.
    description: str = ""
    #: Human-readable endpoint-count formula for the catalog.
    size_formula: str = ""
    #: Scenario parameter names this family consumes, in order.
    parameters: Tuple[str, ...] = ()

    def dimensions(self, params: Mapping[str, object]) -> Dict[str, int]:
        """Extract and validate this family's dimensions from flat *params*.

        Raises :class:`TopologyError` on missing or invalid values, which
        the scenario layer surfaces as a ``ScenarioError`` (so invalid
        sweep-grid corners are dropped, not crashed on).
        """
        dims: Dict[str, int] = {}
        for key in self.parameters:
            if key not in params:
                raise TopologyError(
                    f"topology {self.name!r} needs parameter {key!r}"
                )
            try:
                dims[key] = int(params[key])  # type: ignore[call-overload]
            except (TypeError, ValueError):
                raise TopologyError(
                    f"topology {self.name!r}: {key} must be an integer, "
                    f"got {params[key]!r}"
                ) from None
        self.validate(**dims)
        return dims

    def validate(self, **dims: int) -> None:
        """Reject dimension combinations the builder cannot honour."""

    def build_topology(self, builder: TopologyBuilder, **dims: int) -> Topology:
        """Build the topology with *builder* (already carrying lane config)."""
        raise NotImplementedError

    def metadata(self, link_capacity_bps: float, **dims: int) -> TopologyMetadata:
        """Declared shape of the instance ``dims`` describes."""
        raise NotImplementedError

    def build_fabric(
        self,
        dims: Mapping[str, int],
        lanes_per_link: int = 2,
        lane_rate_bps: float = 25 * GBPS,
        config: Optional[FabricConfig] = None,
    ) -> Fabric:
        """Materialise a routed fabric for this family."""
        builder = TopologyBuilder(
            lanes_per_link=lanes_per_link, lane_rate_bps=lane_rate_bps
        )
        topology = self.build_topology(builder, **dict(dims))
        topology.kind = self.name
        topology.dimensions = dict(dims)
        return Fabric(topology, config if config is not None else FabricConfig())


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, TopologyFamily] = {}


def register_topology(cls: Type[TopologyFamily]) -> Type[TopologyFamily]:
    """Class decorator registering a :class:`TopologyFamily` under its name."""
    if not cls.name:
        raise TopologyError(f"{cls.__name__} must declare a non-empty name")
    if cls.name in _REGISTRY:
        raise TopologyError(f"topology {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls()
    return cls


def get_topology(name: str) -> TopologyFamily:
    """Look a topology family up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise TopologyError(
            f"unknown topology {name!r} (known: {known})"
        ) from None


def topology_names() -> List[str]:
    """Registered topology names, in registration order."""
    return list(_REGISTRY)


def topology_catalog() -> List[TopologyFamily]:
    """All registered families, in registration order (for the CLI)."""
    return list(_REGISTRY.values())


def build_topology_fabric(
    name: str,
    params: Mapping[str, object],
    lanes_per_link: int = 2,
    lane_rate_bps: float = 25 * GBPS,
    config: Optional[FabricConfig] = None,
) -> Fabric:
    """Build a fabric by topology name from a flat parameter mapping.

    This is the single dispatch point behind
    :func:`repro.experiments.harness.build_fabric` and the scenario
    registry.
    """
    family = get_topology(name)
    dims = family.dimensions(params)
    return family.build_fabric(
        dims,
        lanes_per_link=lanes_per_link,
        lane_rate_bps=lane_rate_bps,
        config=config,
    )


def topology_metadata(
    name: str,
    params: Mapping[str, object],
    lanes_per_link: int = 2,
    lane_rate_bps: float = 25 * GBPS,
    fec: FecScheme = FEC_RS528,
) -> TopologyMetadata:
    """Declared metadata for the instance *params* describes (no graph built).

    ``bisection_bandwidth_bps`` is *usable* capacity -- the per-link lane
    budget after the FEC overhead :meth:`Link.capacity_bps` charges -- so
    the declaration matches the built graph's estimator exactly.
    """
    family = get_topology(name)
    dims = family.dimensions(params)
    link_capacity = fec.effective_rate(float(lanes_per_link) * float(lane_rate_bps))
    return family.metadata(link_capacity, **dims)
