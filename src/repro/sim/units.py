"""Unit conventions and conversion helpers.

The simulator uses SI base units internally:

* time in **seconds**,
* data in **bits**,
* rate in **bits per second**,
* power in **watts**,
* distance in **meters**.

The helpers below keep call-sites readable: ``nanoseconds(350)`` is much
harder to get wrong than ``350e-9`` scattered through the code, and the
paper quotes numbers in nanoseconds, microseconds and gigabits per second.
"""

from __future__ import annotations

#: Multiplicative factors for readable literals.
KILO = 1_000.0
MEGA = 1_000_000.0
GIGA = 1_000_000_000.0

#: One second expressed in seconds (identity, for symmetry).
SECONDS = 1.0
#: One millisecond in seconds.
MILLISECONDS = 1e-3
#: One microsecond in seconds.
MICROSECONDS = 1e-6
#: One nanosecond in seconds.
NANOSECONDS = 1e-9

#: One gigabit per second in bits per second.
GBPS = GIGA

#: Number of bits in a byte.
BITS_PER_BYTE = 8


def nanoseconds(value: float) -> float:
    """Convert *value* nanoseconds to seconds."""
    return value * NANOSECONDS


def microseconds(value: float) -> float:
    """Convert *value* microseconds to seconds."""
    return value * MICROSECONDS


def milliseconds(value: float) -> float:
    """Convert *value* milliseconds to seconds."""
    return value * MILLISECONDS


def seconds(value: float) -> float:
    """Identity conversion, provided for call-site symmetry."""
    return value * SECONDS


def to_microseconds(value_seconds: float) -> float:
    """Convert *value_seconds* (seconds) to microseconds."""
    return value_seconds / MICROSECONDS


def gbps(value: float) -> float:
    """Convert *value* gigabits per second to bits per second."""
    return value * GBPS


def bits_from_bytes(num_bytes: float) -> float:
    """Convert a byte count to bits."""
    return num_bytes * BITS_PER_BYTE


def kilobytes(value: float) -> float:
    """Convert *value* kilobytes (10^3 bytes) to bits."""
    return bits_from_bytes(value * KILO)


def megabytes(value: float) -> float:
    """Convert *value* megabytes (10^6 bytes) to bits."""
    return bits_from_bytes(value * MEGA)


def gigabytes(value: float) -> float:
    """Convert *value* gigabytes (10^9 bytes) to bits."""
    return bits_from_bytes(value * GIGA)
