"""The control-loop tick's caches never serve a stale answer.

Three caches make a tick cheap: the memoised FEC tail
(:func:`repro.phy.fec.post_fec_ber`), the per-pass link-price memo of
:class:`~repro.core.scheduler.FlowScheduler`, and the candidate-path cache
of its :class:`~repro.fabric.routing.Router`, keyed on
:attr:`~repro.fabric.topology.Topology.version`.  Each test mutates the
state a cache depends on between two queries and checks the second query
sees the mutation.
"""

import pytest

from repro.core.cost import LinkPriceTagger
from repro.core.scheduler import FlowScheduler
from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.failures import FailureEvent, FailureInjector, FailureKind
from repro.fabric.node import Node
from repro.fabric.routing import Router
from repro.fabric.topology import TopologyBuilder
from repro.phy.fec import FEC_NONE, FEC_RS528, post_fec_ber
from repro.phy.link import Link
from repro.sim.flow import Flow
from repro.sim.units import megabytes


class CountingTagger(LinkPriceTagger):
    """A price tagger that counts its ``price`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def price(self, link, *args, **kwargs):
        self.calls += 1
        return super().price(link, *args, **kwargs)


@pytest.fixture
def fabric():
    return Fabric(TopologyBuilder(lanes_per_link=2).grid(3, 3), FabricConfig())


def _link(a: str, b: str) -> Link:
    return Link(a=a, b=b, num_lanes=2, fec=FEC_RS528, length_meters=4.0)


# --------------------------------------------------------------------------- #
# Topology.version and the Router
# --------------------------------------------------------------------------- #
def test_topology_version_moves_on_structural_changes_only(fabric):
    topology = fabric.topology
    start = topology.version
    topology.add_link(_link("n0x0", "n0x2"))
    assert topology.version == start + 1
    topology.remove_link("n0x0", "n0x2")
    assert topology.version == start + 2
    topology.add_node(Node(name="spare"))
    assert topology.version == start + 3
    link = topology.link_between("n0x0", "n0x1")
    link.set_fec(FEC_NONE)
    link.disable()
    assert topology.version == start + 3


def test_router_drops_its_cache_when_the_version_moves(fabric):
    router = Router(fabric.topology)
    assert len(router.path("n0x0", "n0x2")) == 3
    fabric.topology.add_link(_link("n0x0", "n0x2"))
    assert router.path("n0x0", "n0x2") == ["n0x0", "n0x2"]
    assert router.cache_misses == 2
    assert router.invalidations == 1
    # An explicit invalidation after the mutation does not drop it twice.
    fabric.topology.remove_link("n0x0", "n0x2")
    router.invalidate()
    assert len(router.path("n0x0", "n0x2")) == 3
    assert router.invalidations == 2


# --------------------------------------------------------------------------- #
# FlowScheduler candidate paths
# --------------------------------------------------------------------------- #
def test_cheapest_path_follows_add_and_remove_link_without_invalidation(fabric):
    scheduler = FlowScheduler(fabric)
    path, _ = scheduler.cheapest_path("n0x0", "n0x2")
    assert path == ["n0x0", "n0x1", "n0x2"]
    fabric.topology.add_link(_link("n0x0", "n0x2"))
    path, _ = scheduler.cheapest_path("n0x0", "n0x2")
    assert path == ["n0x0", "n0x2"]
    fabric.topology.remove_link("n0x0", "n0x2")
    path, _ = scheduler.cheapest_path("n0x0", "n0x2")
    assert path == ["n0x0", "n0x1", "n0x2"]
    assert fabric.router.invalidations == 0


def test_disconnected_pair_is_not_cached(fabric):
    scheduler = FlowScheduler(fabric)
    assert scheduler.cheapest_path("n0x0", "n2x2") is not None
    removed = [fabric.topology.remove_link("n0x0", "n0x1"),
               fabric.topology.remove_link("n0x0", "n1x0")]
    assert scheduler.cheapest_path("n0x0", "n2x2") is None
    assert scheduler.cheapest_path("n0x0", "n2x2") is None
    fabric.topology.add_link(removed[0])
    path, price = scheduler.cheapest_path("n0x0", "n2x2")
    assert path[:2] == ["n0x0", "n0x1"] and path[-1] == "n2x2"
    assert price == scheduler.path_price(path)


def test_admit_prices_each_candidate_once(fabric):
    tagger = CountingTagger()
    scheduler = FlowScheduler(fabric, tagger=tagger)
    decision = scheduler.admit(Flow("n0x0", "n2x2", megabytes(1)))
    candidates = scheduler.router.all_paths("n0x0", "n2x2")
    assert tagger.calls == sum(len(path) - 1 for path in candidates)
    assert decision.path in candidates
    assert decision.price == scheduler.path_price(decision.path)


# --------------------------------------------------------------------------- #
# Pricing passes
# --------------------------------------------------------------------------- #
def test_pricing_pass_prices_each_link_once_and_matches_unmemoised(fabric):
    tagger = CountingTagger()
    scheduler = FlowScheduler(fabric, tagger=tagger)
    paths = scheduler.router.all_paths("n0x0", "n2x2")
    unmemoised = [scheduler.path_price(path) for path in paths]
    tagger.calls = 0
    with scheduler.pricing_pass():
        memoised = [scheduler.path_price(path) for path in paths]
    distinct = {frozenset(pair) for path in paths for pair in zip(path, path[1:])}
    assert tagger.calls == len(distinct)
    assert memoised == unmemoised
    # The memo is gone once the pass ends.
    scheduler.path_price(paths[0])
    assert tagger.calls == len(distinct) + len(paths[0]) - 1


def test_price_follows_ber_degradation_and_fec_change(fabric):
    scheduler = FlowScheduler(fabric)
    link = fabric.topology.link_between("n0x0", "n0x1")
    with scheduler.pricing_pass():
        clean = scheduler.link_price("n0x0", "n0x1")

    FailureInjector(
        fabric,
        [FailureEvent(time=0.0, kind=FailureKind.LANE_DEGRADATION,
                      endpoints=("n0x0", "n0x1"), degradation_factor=1e8)],
    ).apply_due(0.0)
    raw = link.worst_raw_ber
    with scheduler.pricing_pass():
        degraded = scheduler.link_price("n0x0", "n0x1")
    assert degraded > clean
    assert degraded == scheduler.tagger.price(
        link, post_fec_ber=post_fec_ber.__wrapped__(raw, FEC_RS528)
    )

    link.set_fec(FEC_NONE)
    with scheduler.pricing_pass():
        unprotected = scheduler.link_price("n0x0", "n0x1")
    assert unprotected != degraded
    assert unprotected == scheduler.tagger.price(link, post_fec_ber=raw)


# --------------------------------------------------------------------------- #
# The memoised FEC tail
# --------------------------------------------------------------------------- #
def test_memoised_post_fec_ber_matches_the_formula_and_still_validates():
    for raw in (0.0, 1e-12, 1e-6, 1e-4, 1e-2, 0.5, 1.0):
        assert post_fec_ber(raw, FEC_RS528) == post_fec_ber.__wrapped__(raw, FEC_RS528)
        assert post_fec_ber(raw, FEC_RS528) == post_fec_ber.__wrapped__(raw, FEC_RS528)
    for bad in (-0.1, 1.5):
        for _ in range(2):
            with pytest.raises(ValueError):
                post_fec_ber(bad, FEC_RS528)
    # typed: an int argument keeps its own (int) pass-through result.
    assert type(post_fec_ber(0, FEC_NONE)) is int
    assert type(post_fec_ber(0.0, FEC_NONE)) is float
