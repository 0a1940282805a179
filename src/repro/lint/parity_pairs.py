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
        primary_fingerprint="9f564a92c13fc055",
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
        primary_fingerprint="33bc9e9acfbc407a",
        oracle_fingerprint="c4163d3ff48e8e85",
        rationale=(
            "the per-hop float pipeline (queueing, tail-drop, ECN, "
            "serialization) must evolve in lock-step across the engines; "
            "the bodies differ structurally, so each side pins its own "
            "fingerprint"
        ),
    ),
    ParityPair(
        name="packet-vector-fifo-chain",
        primary="src/repro/sim/packet_batch.py::fifo_departure_chain",
        oracle="src/repro/fabric/packetsim.py::PacketLevelNetwork._forward",
        primary_fingerprint="acb9255151632e98",
        oracle_fingerprint="c4163d3ff48e8e85",
        rationale=(
            "the vectorised FIFO departure chain replays the event "
            "engine's accumulate/subtract/add order elementwise; its "
            "prefix-commit caller assumes each committed element is "
            "bitwise what the scalar loop would produce"
        ),
    ),
    ParityPair(
        name="packet-vector-advance",
        primary="src/repro/sim/packet_batch.py::BatchedPacketCore._vector_advance",
        oracle="src/repro/sim/packet_batch.py::BatchedPacketCore._process_train",
        primary_fingerprint="c2d3f3820c598f40",
        oracle_fingerprint="33bc9e9acfbc407a",
        rationale=(
            "the vector pass commits a prefix of exactly the states the "
            "scalar train loop would reach (clock, busy_until, counters, "
            "sample folds); an edit to either advance path must re-prove "
            "the consistency-check truncation rules"
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
