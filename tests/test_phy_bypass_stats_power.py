"""Tests for bypass circuits, statistics streams and power models."""

import pytest

from repro.fabric.fabric import Fabric
from repro.fabric.topology import TopologyBuilder
from repro.phy.bypass import BypassCircuit, BypassManager
from repro.phy.power import PowerBudget, PowerModel, PowerReport
from repro.phy.stats import EwmaEstimator


# --------------------------------------------------------------------------- #
# Bypass
# --------------------------------------------------------------------------- #
def test_bypass_circuit_latency_excludes_switching():
    circuit = BypassCircuit(
        src="a", dst="d", through=("b", "c"), capacity_bps=100e9,
        established_at=0.0, passthrough_latency=5e-9, propagation_delay=20e-9,
    )
    assert circuit.transfer_latency(0.0) == pytest.approx(20e-9 + 2 * 5e-9)
    assert circuit.transfer_latency(1e9) == pytest.approx(20e-9 + 2 * 5e-9 + 0.01)


def test_bypass_circuit_validation():
    with pytest.raises(ValueError):
        BypassCircuit("a", "a", (), 1.0, 0.0)
    with pytest.raises(ValueError):
        BypassCircuit("a", "b", (), 0.0, 0.0)


def test_bypass_manager_establish_and_release():
    manager = BypassManager(max_circuits=2, setup_time=1e-6)
    circuit = manager.establish("a", "c", ["b"], 100e9, now=0.0)
    assert circuit is not None
    assert circuit.established_at == pytest.approx(1e-6)
    assert manager.circuit_for("a", "c") is circuit
    assert manager.circuit_for("c", "a") is circuit
    assert len(manager) == 1
    manager.release(circuit.bypass_id, now=2.0)
    assert not circuit.active
    assert manager.circuit_for("a", "c") is None


def test_bypass_manager_budget_enforced():
    manager = BypassManager(max_circuits=1)
    assert manager.establish("a", "b", [], 1e9, 0.0) is not None
    assert manager.establish("c", "d", [], 1e9, 0.0) is None
    assert manager.rejected == 1
    assert not manager.has_capacity()


def test_bypass_manager_rejects_duplicate_pair():
    manager = BypassManager()
    assert manager.establish("a", "b", [], 1e9, 0.0) is not None
    assert manager.establish("b", "a", [], 1e9, 0.0) is None


def test_bypass_manager_release_pair():
    manager = BypassManager()
    manager.establish("a", "b", [], 1e9, 0.0)
    assert manager.release_pair("b", "a", 1.0) is True
    assert manager.release_pair("a", "b", 1.0) is False
    with pytest.raises(KeyError):
        manager.release(12345, 0.0)


def test_bypass_manager_validation():
    with pytest.raises(ValueError):
        BypassManager(max_circuits=-1)
    with pytest.raises(ValueError):
        BypassManager(setup_time=-1)


def test_bypass_manager_zero_budget_disables_circuits():
    manager = BypassManager(max_circuits=0)
    assert not manager.has_capacity()
    assert manager.establish("a", "b", [], 1e9, 0.0) is None


# --------------------------------------------------------------------------- #
# EWMA and statistics streams
# --------------------------------------------------------------------------- #
def test_ewma_first_sample_sets_value():
    est = EwmaEstimator(alpha=0.5)
    assert est.value is None
    est.update(10.0)
    assert est.value == 10.0


def test_ewma_smooths_towards_new_samples():
    est = EwmaEstimator(alpha=0.5)
    est.update(0.0)
    est.update(10.0)
    assert est.value == pytest.approx(5.0)


def test_ewma_value_or_default():
    est = EwmaEstimator()
    assert est.value_or(7.0) == 7.0
    assert est.update(1.0) == 1.0
    assert est.value_or(7.0) == 1.0


def test_ewma_alpha_validation():
    with pytest.raises(ValueError):
        EwmaEstimator(alpha=0.0)
    with pytest.raises(ValueError):
        EwmaEstimator(alpha=1.5)


def test_link_statistics_smooths_utilisation():
    # A fabric's per-link stream is a bare EWMA at weight 0.25.
    fabric = Fabric(TopologyBuilder().line(2))
    stream = fabric.utilisation_for("n0", "n1")
    assert stream.value is None
    stream.update(0.5)
    assert stream.update(0.7) == 0.25 * 0.7 + 0.75 * 0.5


# --------------------------------------------------------------------------- #
# Power model and budget
# --------------------------------------------------------------------------- #
def test_power_model_switch_power():
    model = PowerModel()
    assert model.switch_power(0) == model.switch_base_watts
    assert model.switch_power(4) == pytest.approx(
        model.switch_base_watts + 4 * model.switch_port_watts
    )
    assert model.switch_power(2, idle_ports=2) == pytest.approx(
        model.switch_base_watts + 2 * model.switch_port_watts + 2 * model.switch_port_idle_watts
    )
    with pytest.raises(ValueError):
        model.switch_power(-1)


def test_power_report_totals():
    report = PowerReport(links_watts=10, switches_watts=20, nics_watts=5, bypass_watts=1)
    assert report.total_watts == 36


def test_power_budget_energy_integration():
    budget = PowerBudget(cap_watts=100)
    budget.record(0.0, 50.0)
    budget.record(10.0, 150.0)
    budget.record(20.0, 150.0)
    # 50 W for 10 s + 150 W for 10 s = 2000 J
    assert budget.energy_joules == pytest.approx(2000.0)
    assert budget.time_over_budget == pytest.approx(10.0)
    assert budget.peak_watts() == 150.0


def test_power_budget_ordering_enforced():
    budget = PowerBudget()
    budget.record(1.0, 10.0)
    with pytest.raises(ValueError):
        budget.record(0.5, 10.0)
    with pytest.raises(ValueError):
        budget.record(2.0, -5.0)


def test_power_budget_without_cap():
    budget = PowerBudget()
    budget.record(0.0, 10.0)
    budget.record(1.0, 1e9)
    budget.record(2.0, 10.0)
    assert budget.time_over_budget == 0.0


def test_power_budget_cap_validation():
    with pytest.raises(ValueError):
        PowerBudget(cap_watts=0)
