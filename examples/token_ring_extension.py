"""Section 7 extension: an IEEE 802.5 token ring as the LAN segment.

The paper closes with: "if the LAN segments are IEEE 802.5 token rings, one
only needs to analyze an 802.5_MAC server in addition to the servers that
have been analyzed in this paper."  This example does exactly that — it
bounds the end-to-end worst-case delay of a connection whose *source* LAN
is a 16 Mbps 802.5 ring, crossing the same ATM backbone, by composing the
library's server analyses directly:

    802.5 MAC -> ID_S stages (Theorem 2) -> ATM output port -> propagation
    -> ID_R stages -> destination FDDI MAC -> delay line

Run:  python examples/token_ring_extension.py
"""

from typing import List, Tuple

from repro.atm import AtmLink, OutputPortServer
from repro.fddi import FDDIMacServer, TokenRing8025MacServer
from repro.interface_device import (
    CellFrameConversionServer,
    FrameCellConversionServer,
)
from repro.envelopes.curve import Curve
from repro.servers import ConstantDelayServer, DedicatedServer
from repro.traffic import PeriodicTraffic
from repro.units import MBIT, US


def run_stages(
    servers: List[DedicatedServer], envelope: Curve
) -> Tuple[List[Tuple[str, float]], float, Curve]:
    """Eq. (7) over a run of dedicated servers: each server sees the
    previous one's output, and the run's bound is the sum of theirs.

    Returns the per-server ``(name, delay)`` breakdown, the summed delay
    and the envelope leaving the last server.
    """
    breakdown: List[Tuple[str, float]] = []
    total = 0.0
    for server in servers:
        result = server.analyze(envelope)
        breakdown.append((server.name, result.delay_bound))
        total += result.delay_bound
        assert result.output is not None
        envelope = result.output
    return breakdown, total, envelope


def main() -> None:
    # The connection: 2 Mbps of sensor data in 40 kbit messages every 20 ms.
    traffic = PeriodicTraffic(c=40_000.0, p=0.020)
    envelope = traffic.envelope(horizon=0.5)

    # --- Source LAN: a 16 Mbps 802.5 ring with 5 stations -----------------
    # Our station holds the token for 1 ms per cycle; the full cycle
    # (everyone's holding time + token walk) is 6 ms.
    source_mac = TokenRing8025MacServer.for_ring(
        holding_times=[0.001, 0.002, 0.001, 0.001, 0.0005],
        station_index=0,
        bandwidth=16 * MBIT,
        walk_time=0.0005,
        name="802.5-mac:src",
    )

    # --- Interface device, ATM hop, receiving device ----------------------
    uplink = AtmLink("id->s1", rate=155.52 * MBIT, propagation_delay=10 * US)
    source_hops, source_delay, source_output = run_stages(
        [
            source_mac,
            ConstantDelayServer(50 * US, name="802.5 delay line"),
            ConstantDelayServer(10 * US, name="ID_S input port"),
            ConstantDelayServer(10 * US, name="ID_S frame switch"),
            FrameCellConversionServer(
                frame_bits=16_000.0, processing_delay=20 * US, name="frame->cell"
            ),
        ],
        envelope,
    )

    # The shared ATM port: our cells compete with 60 Mbps of cross traffic.
    port = OutputPortServer(uplink, port_latency=3 * US)
    cross_traffic = [Curve.affine(100_000.0, 60 * MBIT)]
    port_result = port.analyze_tagged(source_output, cross_traffic)

    receive_hops, receive_delay, _ = run_stages(
        [
            ConstantDelayServer(10 * US, name="ID_R input port"),
            CellFrameConversionServer(
                frame_bits=16_000.0, processing_delay=20 * US, name="cell->frame"
            ),
            ConstantDelayServer(10 * US, name="ID_R frame switch"),
            # Destination LAN is a standard FDDI ring (heterogeneous mix!).
            FDDIMacServer(
                sync_time=0.0008,
                ttrt=0.008,
                bandwidth=100 * MBIT,
                name="fddi-mac:dst",
            ),
            ConstantDelayServer(50 * US, name="FDDI delay line"),
        ],
        port_result.output,
    )

    total = (
        source_delay
        + port_result.delay_bound
        + uplink.propagation_delay
        + receive_delay
    )

    print("802.5 -> ATM -> FDDI worst-case delay decomposition")
    print("====================================================")
    for name, delay in source_hops:
        print(f"  {name:26s} {delay * 1e3:8.3f} ms")
    print(f"  {'ATM output port':26s} {port_result.delay_bound * 1e3:8.3f} ms")
    print(f"  {'link propagation':26s} {uplink.propagation_delay * 1e3:8.3f} ms")
    for name, delay in receive_hops:
        print(f"  {name:26s} {delay * 1e3:8.3f} ms")
    print("  " + "-" * 38)
    print(f"  {'END-TO-END BOUND':26s} {total * 1e3:8.3f} ms")
    print(
        "\nOnly the first server changed relative to the FDDI analysis — "
        "the rest of the\npipeline (and the CAC built on it) is reused "
        "unchanged, exactly as Section 7\npromises."
    )


if __name__ == "__main__":
    main()
