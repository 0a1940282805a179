"""The declared parity pairings rule D003 enforces.

Each entry blesses the current fingerprints of one
implementation/oracle pair (see :mod:`repro.lint.parity`).  Editing
either side's code -- docstrings and comments excluded -- fails lint
until this file is updated.  The update procedure *is* the invariant:

1. make the code change,
2. re-run the relevant parity suite (``tests/test_fluid_parity.py`` for
   the fluid pairs, ``tests/test_packet_parity.py`` for the packet
   pairs) and the fidelity gate,
3. run ``python -m repro.lint --print-fingerprints`` and paste the new
   values here, in the same change.

A reviewer seeing a fingerprint bump without a parity-suite run in the
same change knows exactly what drifted.
"""

from __future__ import annotations

from typing import Tuple

from repro.lint.parity import ParityPair

PARITY_PAIRS: Tuple[ParityPair, ...] = (
    ParityPair(
        name="fluid-progressive-filling",
        primary="src/repro/sim/fluid.py::FluidFlowSimulator._warm_fill",
        oracle="src/repro/sim/fluid.py::FluidFlowSimulator._compute_rates_reference",
        primary_fingerprint="eb7f3a86227333c0",
        oracle_fingerprint="3f17196d73bd58ca",
        rationale=(
            "the incremental allocator's warm-started share-heap filling "
            "must stay operand-for-operand identical to the reference's "
            "progressive filling over every active flow"
        ),
    ),
    ParityPair(
        name="packet-window-refill",
        primary="src/repro/sim/packet_batch.py::BatchedPacketCore._fill_window",
        oracle="src/repro/sim/transport.py::PacketTransport._fill_window",
        primary_fingerprint="0487505fc46585ad",
        oracle_fingerprint="0bf1f8eca1106954",
        rationale=(
            "window refill decides injection instants; the batched train "
            "builder must admit exactly the segments the event path admits"
        ),
    ),
    ParityPair(
        name="packet-retransmit",
        primary="src/repro/sim/packet_batch.py::BatchedPacketCore._retransmit",
        oracle="src/repro/sim/transport.py::PacketTransport._retransmit",
        primary_fingerprint="02cc65f122175491",
        oracle_fingerprint="fd26283ae06177a7",
        rationale=(
            "retransmission bookkeeping (counters, abandoned-flow "
            "settling) is part of the bit-exact metrics contract"
        ),
    ),
    ParityPair(
        name="packet-forward-path",
        primary="src/repro/sim/packet_batch.py::BatchedPacketCore._process_train",
        oracle="src/repro/fabric/packetsim.py::PacketLevelNetwork._forward",
        primary_fingerprint="2c1d522927b54807",
        oracle_fingerprint="c4163d3ff48e8e85",
        rationale=(
            "the per-hop float pipeline (queueing, tail-drop, ECN, "
            "serialization) must evolve in lock-step across the engines; "
            "the bodies differ structurally, so each side pins its own "
            "fingerprint"
        ),
    ),
    ParityPair(
        name="packet-lean-hop",
        primary="src/repro/sim/packet_batch.py::BatchedPacketCore._hop",
        oracle="src/repro/fabric/packetsim.py::PacketLevelNetwork._forward",
        primary_fingerprint="79f207f7b6fce662",
        oracle_fingerprint="c4163d3ff48e8e85",
        rationale=(
            "the flat lone-segment loop replays the per-hop float pipeline "
            "(queueing, tail-drop, ECN, serialization) and the delivery "
            "reaction without the train lists; its inline continuations "
            "and refills must run exactly when the calendar would pop them"
        ),
    ),
)
