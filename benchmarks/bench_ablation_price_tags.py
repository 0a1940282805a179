"""Benchmark A1: ablation of the CRC's price-tag weighting.

The per-link price is a weighted sum of latency, congestion, health and
power terms.  The ablation routes a permutation+hotspot mix under each
weighting and reports the resulting makespan and peak link utilisation:
congestion-aware pricing should spread load better than latency-only.
"""

import pytest

from repro.core.cost import LinkPriceTagger, PriceWeights
from repro.experiments.api import ExperimentSpec, run_experiment
from repro.experiments.harness import build_fabric
from repro.sim.units import megabytes
from repro.telemetry.report import format_table
from repro.workloads.base import WorkloadSpec
from repro.workloads.hotspot import HotspotWorkload

WEIGHTINGS = {
    "latency-only": PriceWeights.latency_only(),
    "congestion-aware": PriceWeights.congestion_aware(),
    "health-aware": PriceWeights.health_aware(),
    "power-aware": PriceWeights.power_aware(),
}


def _run_with_weights(name):
    weights = WEIGHTINGS[name]
    fabric = build_fabric("grid", 3, 3, lanes_per_link=2)
    names = fabric.topology.endpoints()
    spec = WorkloadSpec(nodes=names, mean_flow_size_bits=megabytes(2), seed=13)
    flows = HotspotWorkload(
        spec, num_flows=24, hot_fraction=0.5,
        hot_pairs=[("n0x0", "n2x2"), ("n0x2", "n2x0")],
    ).generate()
    # Pre-load the router with price-tag weights reflecting the hot pairs'
    # expected load, as the CRC would after one telemetry interval.
    tagger = LinkPriceTagger(weights=weights)
    expected_hot = {("n1x1", "n1x2"): 0.9, ("n0x1", "n1x1"): 0.9}
    fabric.set_router_weight(tagger.weight_fn(expected_hot))
    record = run_experiment(ExperimentSpec(fabric=fabric, flows=flows, label=name))
    utilisation = record.fluid.link_utilisation()
    return {
        "weighting": name,
        "makespan": record.makespan,
        "mean_fct": record.mean_fct,
        "peak_link_utilisation": max(utilisation.values()),
    }


@pytest.mark.parametrize("name", list(WEIGHTINGS))
def test_price_tag_ablation(benchmark, name):
    row = benchmark.pedantic(_run_with_weights, args=(name,), rounds=1, iterations=1)
    assert row["makespan"] is not None
    assert 0 < row["peak_link_utilisation"] <= 1.0 + 1e-9
    print()
    print(
        format_table(
            ["weighting", "makespan", "mean_fct", "peak_link_utilisation"],
            [[row[c] for c in ("weighting", "makespan", "mean_fct", "peak_link_utilisation")]],
            title="Price-tag weighting ablation (hotspot mix, 3x3 grid)",
        )
    )


def test_congestion_aware_pricing_avoids_hot_links(benchmark):
    def compare():
        return (
            _run_with_weights("latency-only"),
            _run_with_weights("congestion-aware"),
        )

    latency_only, congestion_aware = benchmark.pedantic(compare, rounds=1, iterations=1)
    # Congestion-aware pricing must not produce a worse makespan than
    # pricing that ignores congestion entirely.
    assert congestion_aware["makespan"] <= latency_only["makespan"] * 1.05
    print()
    print(
        format_table(
            ["weighting", "makespan", "peak_link_utilisation"],
            [
                [r["weighting"], r["makespan"], r["peak_link_utilisation"]]
                for r in (latency_only, congestion_aware)
            ],
            title="Latency-only vs congestion-aware pricing",
        )
    )
