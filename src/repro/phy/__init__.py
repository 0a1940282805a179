"""Physical-layer substrate: lanes, links, media, FEC, power and statistics.

This package models the reconfigurable physical layer that the paper's
Physical Layer Primitives (PLP) operate on.  The canonical example in the
paper is a 100 Gb/s link composed of four 25 Gb/s lanes; lanes can be
re-bundled, re-pointed through the rack's circuit backplane (bypass), turned
off to save power, and protected by different forward-error-correction
schemes depending on the observed bit error rate.
"""

from repro.phy.bypass import BypassCircuit, BypassManager
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
)
from repro.phy.lane import Lane, LaneState
from repro.phy.link import Link, LinkDirection
from repro.phy.media import (
    BACKPLANE,
    COPPER_DAC,
    FIBER_MMF,
    FIBER_SMF,
    MEDIA_BY_NAME,
    Media,
    propagation_delay,
)
from repro.phy.power import PowerBudget, PowerModel, PowerReport
from repro.phy.stats import EwmaEstimator

__all__ = [
    "BypassCircuit",
    "BypassManager",
    "FEC_BASE_R",
    "FEC_LDPC",
    "FEC_NONE",
    "FEC_RS528",
    "FEC_RS544",
    "STANDARD_FEC_SCHEMES",
    "AdaptiveFecController",
    "FecScheme",
    "post_fec_ber",
    "Lane",
    "LaneState",
    "Link",
    "LinkDirection",
    "BACKPLANE",
    "COPPER_DAC",
    "FIBER_MMF",
    "FIBER_SMF",
    "MEDIA_BY_NAME",
    "Media",
    "propagation_delay",
    "PowerBudget",
    "PowerModel",
    "PowerReport",
    "EwmaEstimator",
]
