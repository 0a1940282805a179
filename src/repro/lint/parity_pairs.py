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
        primary="src/repro/sim/fluid.py::FluidFlowSimulator._solve_closure",
        oracle="src/repro/sim/fluid.py::FluidFlowSimulator._compute_rates_reference",
        primary_fingerprint="b3d6cb1a56ff8bc2",
        oracle_fingerprint="3f17196d73bd58ca",
        rationale=(
            "the incremental allocator's share-heap filling must stay "
            "operand-for-operand identical to the reference's progressive "
            "filling restricted to the dirty closure"
        ),
    ),
    ParityPair(
        name="packet-port-capacity-sync",
        primary="src/repro/sim/packet_batch.py::BatchedPacketCore.sync_port_capacity",
        oracle="src/repro/fabric/packetsim.py::PacketLevelNetwork.sync_port_capacity",
        primary_fingerprint="68576b9f7c043c3b",
        oracle_fingerprint="7199aa900f4859db",
        rationale=(
            "busy_until rescaling at a capacity mutation must use the same "
            "IEEE-754 ops on both engines or drain deadlines diverge"
        ),
    ),
    ParityPair(
        name="packet-port-drain-time",
        primary="src/repro/sim/packet_batch.py::BatchedPacketCore.port_drain_time",
        oracle="src/repro/fabric/packetsim.py::PacketLevelNetwork.port_drain_time",
        primary_fingerprint="94efba92999e9f2e",
        oracle_fingerprint="0a71dee3e4be7930",
        rationale="backlog drain-time queries feed controller decisions",
    ),
    ParityPair(
        name="packet-window-refill",
        primary="src/repro/sim/packet_batch.py::BatchedPacketCore._fill_window",
        oracle="src/repro/sim/transport.py::PacketTransport._fill_window",
        primary_fingerprint="6e7585213e2eda10",
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
        primary_fingerprint="37a6ebcdb5d9b8bd",
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
        primary_fingerprint="5acc19fde6502f98",
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
        primary_fingerprint="0e990d295ff0a3f7",
        oracle_fingerprint="c4163d3ff48e8e85",
        rationale=(
            "the flat lone-segment loop replays the per-hop float pipeline "
            "(queueing, tail-drop, ECN, serialization) and the delivery "
            "reaction without the train lists; its inline continuations "
            "and refills must run exactly when the calendar would pop them"
        ),
    ),
    ParityPair(
        name="packet-segment-layout",
        primary="src/repro/sim/packet_batch.py::BatchedPacketCore.__init__",
        oracle="src/repro/sim/transport.py::segment_layout",
        primary_fingerprint="0d5a4c6dbf97cdb0",
        oracle_fingerprint="3b50aa2f884b6368",
        rationale=(
            "both engines segment flows through the shared "
            "segment_layout helper; the batched constructor must keep "
            "calling it (the segment grid defines every later float)"
        ),
    ),
)
