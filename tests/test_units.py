"""Tests for repro.sim.units."""


import pytest

from repro.sim import units


def test_nanoseconds_conversion():
    assert units.nanoseconds(1) == pytest.approx(1e-9)
    assert units.nanoseconds(350) == pytest.approx(3.5e-7)


def test_microseconds_and_milliseconds():
    assert units.microseconds(1) == pytest.approx(1e-6)
    assert units.milliseconds(2) == pytest.approx(2e-3)


def test_round_trip_time_conversions():
    assert units.to_microseconds(units.microseconds(7)) == pytest.approx(7)


def test_gbps_conversion():
    assert units.gbps(100) == pytest.approx(100e9)


def test_bits_bytes_round_trip():
    assert units.bits_from_bytes(1500) == 12000


def test_kilo_mega_giga_bytes():
    assert units.kilobytes(1) == 8000
    assert units.megabytes(1) == 8e6
    assert units.gigabytes(1) == 8e9


def test_seconds_identity():
    assert units.seconds(3.5) == 3.5
