"""Tests for telemetry metrics, reporting and the analytical models."""

import pytest

from repro.analysis.breakeven import break_even_curve, reconfiguration_crossover_table
from repro.analysis.latency import LatencyModel, media_vs_switching_series
from repro.analysis.power import lane_power_sweep, rack_power_estimate
from repro.analysis.validation import (
    validate_against_analytical,
    validation_summary,
)
from repro.experiments.harness import build_fabric
from repro.sim import stats
from repro.sim.flow import Flow, FlowSet
from repro.telemetry.metrics import percentile, straggler_ratio
from repro.telemetry.report import format_table


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def test_percentile_and_describe():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile([], 50) is None
    with pytest.raises(ValueError):
        percentile(values, 150)
    assert stats.mean(values) == pytest.approx(2.5)


def _completed(src, dst, size, start, end):
    flow = Flow(src, dst, size, start_time=start)
    flow.complete(end)
    return flow


def test_straggler_ratio():
    flows = FlowSet([
        _completed("a", "b", 1, 0, 1.0),
        _completed("b", "c", 1, 0, 1.0),
        _completed("c", "d", 1, 0, 3.0),
    ])
    assert straggler_ratio(flows) == pytest.approx(3.0)
    assert straggler_ratio(FlowSet()) is None


# --------------------------------------------------------------------------- #
# Report formatting
# --------------------------------------------------------------------------- #
def test_format_table_alignment_and_values():
    text = format_table(["a", "b"], [[1, None], [2.5e-7, True]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert "-" in lines[2]
    assert "yes" in text and "2.5" in text


# --------------------------------------------------------------------------- #
# Latency model (Figure 1)
# --------------------------------------------------------------------------- #
def test_switching_dominates_media_at_rack_scale():
    model = LatencyModel()
    for distance in (4, 10, 20, 40):
        switching = model.switching_latency(distance, 1500)
        assert switching > 10.0 * model.media_latency(distance)


def test_media_latency_linear_in_distance():
    model = LatencyModel()
    assert model.media_latency(20) == pytest.approx(2 * model.media_latency(10))


def test_hops_for_distance():
    model = LatencyModel(hop_spacing_meters=2.0)
    assert model.hops_for_distance(2.0) == 0
    assert model.hops_for_distance(4.0) == 1
    assert model.hops_for_distance(40.0) == 19
    with pytest.raises(ValueError):
        model.hops_for_distance(-1)


def test_end_to_end_breakdown_sums():
    model = LatencyModel()
    breakdown = model.end_to_end(10.0, 1500)
    assert breakdown["total"] == pytest.approx(
        breakdown["serialization"] + breakdown["propagation"]
        + breakdown["switching"] + breakdown["phy"]
    )
    snf = model.end_to_end(10.0, 1500, store_and_forward=True)
    assert snf["switching"] > breakdown["switching"]


def test_media_vs_switching_series_rows():
    rows = media_vs_switching_series([2, 10, 40])
    assert len(rows) == 3
    assert rows[0]["hops"] == 0
    assert rows[2]["switching_latency"] > rows[1]["switching_latency"]
    assert rows[2]["ratio"] > 1


def test_latency_model_validation():
    with pytest.raises(ValueError):
        LatencyModel(hop_spacing_meters=0)
    with pytest.raises(ValueError):
        LatencyModel(link_rate_bps=0)


# --------------------------------------------------------------------------- #
# Break-even and power analysis
# --------------------------------------------------------------------------- #
def test_break_even_curve_monotone_in_delay():
    rows = break_even_curve([1e-6, 1e-5, 1e-4], 50e9, 100e9)
    thresholds = [row["break_even_bits"] for row in rows]
    assert thresholds == sorted(thresholds)
    assert rows[0]["break_even_bytes"] == pytest.approx(thresholds[0] / 8)


def test_crossover_table_verdicts():
    rows = reconfiguration_crossover_table([1e3, 1e9], 50e9, 100e9, 1e-4)
    assert rows[0]["worthwhile"] == 0.0
    assert rows[1]["worthwhile"] == 1.0


def test_rack_power_estimate_scales_with_lanes():
    low = rack_power_estimate(16, 24, 1)
    high = rack_power_estimate(16, 24, 4)
    assert high["total_watts"] > low["total_watts"]
    gated = rack_power_estimate(16, 24, 4, active_lane_fraction=0.25)
    assert gated["total_watts"] < high["total_watts"]
    with pytest.raises(ValueError):
        rack_power_estimate(0, 1, 1)


def test_lane_power_sweep_restores_fabric():
    fabric = build_fabric("grid", 3, 3, lanes_per_link=2)
    rows = lane_power_sweep(fabric, [1.0, 0.5])
    assert rows[1]["total_watts"] < rows[0]["total_watts"]
    # The sweep restores full activation afterwards.
    assert fabric.topology.total_active_lanes() == fabric.topology.total_lanes()
    with pytest.raises(ValueError):
        lane_power_sweep(fabric, [0.0])


# --------------------------------------------------------------------------- #
# Validation (POC substitute, experiment E6)
# --------------------------------------------------------------------------- #
def test_simulation_matches_analytical_model():
    results = validate_against_analytical(chain_lengths=(2, 4), packet_sizes_bytes=(64, 1500))
    assert len(results) == 4
    summary = validation_summary(results)
    assert summary["max_relative_error"] < 1e-6
    for result in results:
        assert result.within(1e-6)
        assert result.simulated_latency > 0


def test_validation_summary_requires_results():
    with pytest.raises(ValueError):
        validation_summary([])
