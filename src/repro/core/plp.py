"""Physical Layer Primitives: the command set and its executor.

Section 3.1 of the paper enumerates five primitives; they map onto the
command types below as follows:

1. *Link breaking / bundling* -- :attr:`PLPCommandType.SPLIT_LINK` harvests
   lanes from an existing bundle into the executor's free-lane pool;
   :attr:`PLPCommandType.BUNDLE_LANES` adds pooled lanes to an existing
   bundle; :attr:`PLPCommandType.CREATE_LINK` builds a brand-new bundle
   between two elements out of pooled lanes (the lanes are re-pointed
   through the rack's circuit layer); :attr:`PLPCommandType.REMOVE_LINK`
   tears a bundle down entirely and pools its lanes.
2. *High speed bypass* -- :attr:`PLPCommandType.CREATE_BYPASS` /
   :attr:`PLPCommandType.RELEASE_BYPASS`.
3. *Turning a link on or off* -- :attr:`PLPCommandType.SET_LANE_COUNT`,
   :attr:`PLPCommandType.LINK_ON`, :attr:`PLPCommandType.LINK_OFF`.
4. *Adaptive forward error correction* -- :attr:`PLPCommandType.SET_FEC`.
5. *Per-lane statistics* -- :attr:`PLPCommandType.QUERY_STATS`.

The executor applies commands to a :class:`~repro.fabric.fabric.Fabric`,
charging each a reconfiguration delay drawn from
:class:`ReconfigurationDelays`.  Delays matter: they are the "cost" side of
the break-even optimisation the CRC solves before reconfiguring.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.fabric.fabric import Fabric
from repro.phy.fec import FecScheme, scheme_by_name
from repro.phy.lane import Lane
from repro.phy.link import Link
from repro.sim.units import microseconds, nanoseconds


class PLPCommandType(enum.Enum):
    """The PLP command vocabulary."""

    SPLIT_LINK = "split-link"
    BUNDLE_LANES = "bundle-lanes"
    CREATE_LINK = "create-link"
    REMOVE_LINK = "remove-link"
    SET_LANE_COUNT = "set-lane-count"
    LINK_ON = "link-on"
    LINK_OFF = "link-off"
    SET_FEC = "set-fec"
    CREATE_BYPASS = "create-bypass"
    RELEASE_BYPASS = "release-bypass"
    QUERY_STATS = "query-stats"


@dataclass(frozen=True)
class PLPCommand:
    """One instruction from the CRC to the physical layer.

    ``endpoints`` identifies the link (or node pair) the command targets;
    ``params`` carries type-specific arguments:

    * SPLIT_LINK: ``lanes`` -- how many lanes to harvest,
    * BUNDLE_LANES: ``lanes`` -- how many pooled lanes to attach,
    * CREATE_LINK: ``lanes`` -- bundle size, optional ``length_meters``,
    * SET_LANE_COUNT: ``count``,
    * SET_FEC: ``scheme`` (name) or ``fec`` (:class:`FecScheme`),
    * CREATE_BYPASS: ``through`` (sequence of bypassed elements),
      ``capacity_bps``.
    """

    type: PLPCommandType
    endpoints: Tuple[str, str]
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.endpoints) != 2 or self.endpoints[0] == self.endpoints[1]:
            raise ValueError(f"endpoints must be two distinct names, got {self.endpoints!r}")


@dataclass(frozen=True)
class ReconfigurationDelays:
    """How long each class of physical-layer change takes.

    The defaults sit at the *electrical* end of the design space (Shoal-like
    sub-microsecond lane retraining, microsecond-scale circuit re-pointing).
    The optical end (ProjecToR-like, tens of microseconds to milliseconds)
    is exercised by the break-even benchmark, which sweeps these values.
    """

    lane_on_off: float = nanoseconds(500)
    lane_rebundle: float = microseconds(1.0)
    link_create: float = microseconds(10.0)
    link_remove: float = microseconds(1.0)
    fec_change: float = microseconds(1.0)
    bypass_setup: float = microseconds(1.0)
    bypass_teardown: float = microseconds(0.5)
    stats_query: float = 0.0

    def for_command(self, command_type: PLPCommandType) -> float:
        """The delay charged for one command of the given type."""
        mapping = {
            PLPCommandType.SPLIT_LINK: self.lane_rebundle,
            PLPCommandType.BUNDLE_LANES: self.lane_rebundle,
            PLPCommandType.CREATE_LINK: self.link_create,
            PLPCommandType.REMOVE_LINK: self.link_remove,
            PLPCommandType.SET_LANE_COUNT: self.lane_on_off,
            PLPCommandType.LINK_ON: self.lane_on_off,
            PLPCommandType.LINK_OFF: self.lane_on_off,
            PLPCommandType.SET_FEC: self.fec_change,
            PLPCommandType.CREATE_BYPASS: self.bypass_setup,
            PLPCommandType.RELEASE_BYPASS: self.bypass_teardown,
            PLPCommandType.QUERY_STATS: self.stats_query,
        }
        return mapping[command_type]

    def scaled(self, factor: float) -> "ReconfigurationDelays":
        """A copy with every delay multiplied by *factor* (for sweeps)."""
        if factor < 0:
            raise ValueError("factor must be >= 0")
        return ReconfigurationDelays(
            lane_on_off=self.lane_on_off * factor,
            lane_rebundle=self.lane_rebundle * factor,
            link_create=self.link_create * factor,
            link_remove=self.link_remove * factor,
            fec_change=self.fec_change * factor,
            bypass_setup=self.bypass_setup * factor,
            bypass_teardown=self.bypass_teardown * factor,
            stats_query=self.stats_query,
        )


@dataclass
class PLPResult:
    """Outcome of executing one PLP command."""

    command: PLPCommand
    success: bool
    completes_at: float
    detail: str = ""

    @property
    def failed(self) -> bool:
        """Whether the command was rejected."""
        return not self.success


class PLPExecutor:
    """Applies PLP commands to a fabric and accounts for their cost.

    The executor owns the *free lane pool*: lanes harvested by SPLIT_LINK or
    REMOVE_LINK wait there until a CREATE_LINK or BUNDLE_LANES command
    re-deploys them.  The pool is how the lane (and therefore power) budget
    is conserved across reconfigurations -- the Figure 2 scenario moves
    lanes from grid links into torus wrap-around links without ever
    exceeding the initial lane count.

    Parameters
    ----------
    fabric:
        The fabric the commands mutate.
    delays:
        Per-command-type reconfiguration delays
        (:class:`ReconfigurationDelays`); defaults to the electrical end of
        the design space.
    """

    def __init__(
        self,
        fabric: Fabric,
        delays: Optional[ReconfigurationDelays] = None,
    ) -> None:
        self.fabric = fabric
        self.delays = delays if delays is not None else ReconfigurationDelays()
        self.free_lanes: List[Lane] = []
        self.results: List[PLPResult] = []
        self.commands_executed = 0
        self.commands_failed = 0
        self.total_reconfiguration_time = 0.0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def execute(self, command: PLPCommand, now: float = 0.0) -> PLPResult:
        """Execute one command at time *now* and return its result."""
        handler = {
            PLPCommandType.SPLIT_LINK: self._split_link,
            PLPCommandType.BUNDLE_LANES: self._bundle_lanes,
            PLPCommandType.CREATE_LINK: self._create_link,
            PLPCommandType.REMOVE_LINK: self._remove_link,
            PLPCommandType.SET_LANE_COUNT: self._set_lane_count,
            PLPCommandType.LINK_ON: self._link_on,
            PLPCommandType.LINK_OFF: self._link_off,
            PLPCommandType.SET_FEC: self._set_fec,
            PLPCommandType.CREATE_BYPASS: self._create_bypass,
            PLPCommandType.RELEASE_BYPASS: self._release_bypass,
            PLPCommandType.QUERY_STATS: self._query_stats,
        }[command.type]
        delay = self.delays.for_command(command.type)
        try:
            detail = handler(command, now)
            result = PLPResult(
                command=command, success=True, completes_at=now + delay, detail=detail
            )
            self.commands_executed += 1
            self.total_reconfiguration_time += delay
        except (KeyError, ValueError) as error:
            result = PLPResult(
                command=command, success=False, completes_at=now, detail=str(error)
            )
            self.commands_failed += 1
        self.results.append(result)
        if result.success and command.type is not PLPCommandType.QUERY_STATS:
            self.fabric.invalidate_routes()
        return result

    def execute_batch(self, commands: List[PLPCommand], now: float = 0.0) -> List[PLPResult]:
        """Execute a batch; returns every result (failures do not abort the batch).

        The batch is assumed to be applied in parallel by the physical layer,
        so its completion time is the *maximum* of the individual completion
        times, available via :meth:`batch_completion_time`.
        """
        return [self.execute(command, now) for command in commands]

    @staticmethod
    def batch_completion_time(results: List[PLPResult]) -> float:
        """Completion time of a batch applied in parallel."""
        successful = [result.completes_at for result in results if result.success]
        return max(successful) if successful else 0.0

    @property
    def free_lane_count(self) -> int:
        """Lanes currently waiting in the pool."""
        return len(self.free_lanes)

    # ------------------------------------------------------------------ #
    # Command handlers
    # ------------------------------------------------------------------ #
    def _link(self, command: PLPCommand) -> Link:
        return self.fabric.topology.link_between(*command.endpoints)

    def _split_link(self, command: PLPCommand, now: float) -> str:
        lanes_requested = int(command.params.get("lanes", 1))
        link = self._link(command)
        removed = link.remove_lanes(lanes_requested)
        self.free_lanes.extend(removed)
        return f"harvested {len(removed)} lanes; pool={len(self.free_lanes)}"

    def _bundle_lanes(self, command: PLPCommand, now: float) -> str:
        lanes_requested = int(command.params.get("lanes", 1))
        if lanes_requested > len(self.free_lanes):
            raise ValueError(
                f"pool has {len(self.free_lanes)} lanes, need {lanes_requested}"
            )
        link = self._link(command)
        lanes = [self.free_lanes.pop() for _ in range(lanes_requested)]
        for lane in lanes:
            lane.turn_on(now)
            lane.complete_training(now + lane.training_time)
        link.add_lanes(lanes)
        return f"bundled {lanes_requested} lanes into {link.a}<->{link.b}"

    def _create_link(self, command: PLPCommand, now: float) -> str:
        lanes_requested = int(command.params.get("lanes", 1))
        if lanes_requested <= 0:
            raise ValueError("a new link needs at least one lane")
        if lanes_requested > len(self.free_lanes):
            raise ValueError(
                f"pool has {len(self.free_lanes)} lanes, need {lanes_requested}"
            )
        a, b = command.endpoints
        if self.fabric.topology.has_link(a, b):
            raise ValueError(f"a link between {a!r} and {b!r} already exists")
        lanes = [self.free_lanes.pop() for _ in range(lanes_requested)]
        for lane in lanes:
            lane.turn_on(now)
            lane.complete_training(now + lane.training_time)
        length = command.params.get("length_meters")
        if length is None:
            length = self.fabric.topology.node(a).distance_to(self.fabric.topology.node(b))
        template = lanes[0]
        link = Link(
            a=a,
            b=b,
            lanes=lanes,
            fec=command.params.get("fec", self._default_fec()),
            length_meters=float(length),
            media=template.media,
        )
        for lane in lanes:
            lane.length_meters = float(length)
        self.fabric.topology.add_link(link)
        self.fabric.utilisation_for(a, b)
        return f"created {a}<->{b} with {lanes_requested} lanes"

    @staticmethod
    def _default_fec() -> FecScheme:
        from repro.phy.fec import FEC_RS528

        return FEC_RS528

    def _remove_link(self, command: PLPCommand, now: float) -> str:
        a, b = command.endpoints
        link = self.fabric.topology.remove_link(a, b)
        for lane in link.lanes:
            lane.turn_off()
        self.free_lanes.extend(link.lanes)
        return f"removed {a}<->{b}; pooled {link.num_lanes} lanes"

    def _set_lane_count(self, command: PLPCommand, now: float) -> str:
        count = int(command.params["count"])
        link = self._link(command)
        link.set_active_lane_count(count, now)
        return f"{link.a}<->{link.b} now {link.num_active_lanes} active lanes"

    def _link_on(self, command: PLPCommand, now: float) -> str:
        link = self._link(command)
        link.enable(now)
        return f"{link.a}<->{link.b} enabled"

    def _link_off(self, command: PLPCommand, now: float) -> str:
        link = self._link(command)
        link.disable()
        return f"{link.a}<->{link.b} disabled"

    def _set_fec(self, command: PLPCommand, now: float) -> str:
        link = self._link(command)
        if "fec" in command.params:
            scheme = command.params["fec"]
            if not isinstance(scheme, FecScheme):
                raise ValueError("params['fec'] must be a FecScheme")
        else:
            scheme = scheme_by_name(str(command.params["scheme"]))
        link.set_fec(scheme)
        return f"{link.a}<->{link.b} fec={scheme.name}"

    def _create_bypass(self, command: PLPCommand, now: float) -> str:
        src, dst = command.endpoints
        through = tuple(command.params.get("through", ()))
        capacity = float(command.params["capacity_bps"])
        propagation = float(command.params.get("propagation_delay", 0.0))
        circuit = self.fabric.bypasses.establish(
            src=src,
            dst=dst,
            through=through,
            capacity_bps=capacity,
            now=now,
            propagation_delay=propagation,
        )
        if circuit is None:
            raise ValueError(
                f"bypass {src}<->{dst} rejected (budget exhausted or duplicate)"
            )
        return f"bypass {src}<->{dst} via {len(through)} elements"

    def _release_bypass(self, command: PLPCommand, now: float) -> str:
        src, dst = command.endpoints
        if not self.fabric.bypasses.release_pair(src, dst, now):
            raise ValueError(f"no bypass between {src!r} and {dst!r}")
        return f"bypass {src}<->{dst} released"

    def _query_stats(self, command: PLPCommand, now: float) -> str:
        link = self._link(command)
        return str({
            "utilisation": self.fabric.utilisation_for(*command.endpoints).value_or(0.0),
            "capacity_bps": link.capacity_bps,
            "one_way_latency": link.one_way_latency,
            "post_fec_ber": link.post_fec_ber,
            "power_watts": link.power_watts,
        })
