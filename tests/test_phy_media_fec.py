"""Tests for media and FEC models."""

import pytest

from repro.phy.fec import (
    FEC_BASE_R,
    FEC_LDPC,
    FEC_NONE,
    FEC_RS528,
    FEC_RS544,
    STANDARD_FEC_SCHEMES,
    AdaptiveFecController,
    FecScheme,
    post_fec_ber,
    scheme_by_name,
)
from repro.phy.media import (
    BACKPLANE,
    COPPER_DAC,
    FIBER_MMF,
    FIBER_SMF,
    MEDIA_BY_NAME,
    SPEED_OF_LIGHT,
    Media,
    propagation_delay,
)


# --------------------------------------------------------------------------- #
# Media
# --------------------------------------------------------------------------- #
def test_propagation_delay_scales_with_length():
    assert FIBER_MMF.propagation_delay(2.0) == pytest.approx(
        2.0 / (0.67 * SPEED_OF_LIGHT)
    )
    assert FIBER_MMF.propagation_delay(0.0) == 0.0


def test_propagation_delay_rejects_negative_length():
    with pytest.raises(ValueError):
        COPPER_DAC.propagation_delay(-1.0)


def test_media_velocity_fraction_bounds():
    with pytest.raises(ValueError):
        Media("bad", velocity_fraction=0.0, loss_db_per_meter=0, max_reach_meters=1,
              power_per_lane_watts=0)
    with pytest.raises(ValueError):
        Media("bad", velocity_fraction=1.5, loss_db_per_meter=0, max_reach_meters=1,
              power_per_lane_watts=0)


def test_media_loss_and_reach():
    assert COPPER_DAC.loss_db(2.0) == pytest.approx(4.0)


def test_media_registry_contains_standard_media():
    for media in (COPPER_DAC, FIBER_MMF, FIBER_SMF, BACKPLANE):
        assert MEDIA_BY_NAME[media.name] is media


def test_module_level_propagation_delay_helper():
    assert propagation_delay(2.0, COPPER_DAC) == COPPER_DAC.propagation_delay(2.0)


def test_rack_scale_propagation_is_tens_of_nanoseconds():
    # The paper's point: 2 m of media is ~10 ns, utterly dominated by a
    # ~400 ns switch traversal.
    delay = COPPER_DAC.propagation_delay(2.0)
    assert 5e-9 < delay < 20e-9


# --------------------------------------------------------------------------- #
# FEC schemes
# --------------------------------------------------------------------------- #
def test_fec_none_passes_ber_through():
    assert FEC_NONE.post_fec_ber(1e-5) == 1e-5
    assert FEC_NONE.effective_rate(100e9) == 100e9
    assert FEC_NONE.latency == 0.0


def test_fec_overhead_reduces_effective_rate():
    assert FEC_RS528.effective_rate(100e9) == pytest.approx(100e9 * (1 - 0.0265))
    assert FEC_RS544.effective_rate(100e9) < FEC_RS528.effective_rate(100e9)


def test_fec_corrects_moderate_ber():
    # RS(528,514) should take a 1e-5 channel far below 1e-12.
    assert FEC_RS528.post_fec_ber(1e-5) < 1e-12
    # And RS(544,514) handles an even worse channel.
    assert FEC_RS544.post_fec_ber(2e-4) < 1e-12


def test_fec_cannot_correct_terrible_channel():
    assert FEC_BASE_R.post_fec_ber(1e-2) > 1e-12


def test_post_fec_ber_monotone_in_raw_ber():
    previous = 0.0
    for raw in (1e-9, 1e-7, 1e-5, 1e-4, 1e-3):
        current = FEC_RS528.post_fec_ber(raw)
        assert current >= previous
        previous = current


def test_post_fec_ber_never_exceeds_raw():
    for scheme in STANDARD_FEC_SCHEMES:
        for raw in (0.0, 1e-12, 1e-6, 1e-3, 1e-1):
            assert scheme.post_fec_ber(raw) <= raw + 1e-18


def test_post_fec_ber_validates_input():
    with pytest.raises(ValueError):
        post_fec_ber(-0.1, FEC_RS528)
    with pytest.raises(ValueError):
        post_fec_ber(1.1, FEC_RS528)


def test_stronger_schemes_cost_more_latency_and_overhead():
    assert FEC_NONE.latency < FEC_BASE_R.latency < FEC_RS528.latency
    assert FEC_RS528.latency < FEC_RS544.latency < FEC_LDPC.latency
    assert FEC_RS528.overhead_fraction < FEC_RS544.overhead_fraction


def test_scheme_by_name_lookup():
    assert scheme_by_name("rs-528") is FEC_RS528
    with pytest.raises(KeyError):
        scheme_by_name("nonexistent")


def test_fec_scheme_validation():
    with pytest.raises(ValueError):
        FecScheme("x", overhead_fraction=1.5, latency=0, symbol_size_bits=1,
                  block_symbols=1, correctable_symbols=0, power_watts=0)
    with pytest.raises(ValueError):
        FecScheme("x", overhead_fraction=0, latency=-1, symbol_size_bits=1,
                  block_symbols=1, correctable_symbols=0, power_watts=0)


# --------------------------------------------------------------------------- #
# Adaptive FEC controller
# --------------------------------------------------------------------------- #
def test_adaptive_fec_selects_none_on_clean_channel():
    controller = AdaptiveFecController(target_ber=1e-12)
    assert controller.select(1e-15).name == "none"


def test_adaptive_fec_selects_stronger_scheme_as_ber_degrades():
    controller = AdaptiveFecController(target_ber=1e-12)
    clean = controller.select(1e-15)
    moderate = controller.select(1e-6)
    bad = controller.select(5e-3)
    assert clean.correctable_symbols <= moderate.correctable_symbols <= bad.correctable_symbols
    assert moderate.name != "none"


def test_adaptive_fec_falls_back_to_strongest_when_nothing_meets_target():
    controller = AdaptiveFecController(target_ber=1e-15)
    chosen = controller.select(0.2)
    assert chosen.name == "ldpc"


def test_adaptive_fec_hysteresis_keeps_current_scheme():
    controller = AdaptiveFecController(target_ber=1e-12, hysteresis=10.0)
    # RS-544 comfortably meets the target at 1e-6; even though RS-528 also
    # meets it, a non-cheaper current scheme is kept only if no cheaper
    # candidate exists -- here RS-528 is cheaper, so we switch down.
    chosen = controller.select(1e-6, current=FEC_RS544)
    assert chosen.name in ("rs-528", "base-r")
    # But if the current scheme is already the cheapest that meets the
    # margin, it is retained.
    kept = controller.select(1e-15, current=FEC_NONE)
    assert kept.name == "none"


def test_adaptive_fec_validates_parameters():
    with pytest.raises(ValueError):
        AdaptiveFecController(target_ber=0)
    with pytest.raises(ValueError):
        AdaptiveFecController(hysteresis=0.5)
