"""ATM substrate: cells, links, switches and the output-port analysis.

The ATM backbone of the paper is a collection of switches joined by
155 Mbps links.  Cells of different connections share each link; the switch
output port multiplexes them FIFO.  The worst-case delay a tagged
connection suffers at a port, and its reshaped output envelope, follow the
busy-period analysis of refs [2, 14] — implemented exactly in
:class:`OutputPortServer` on top of the envelope algebra.
"""

from repro.atm.cell import (
    CELL_BITS,
    CELL_PAYLOAD_BITS,
    WIRE_EXPANSION,
    cells_for_frame,
    payload_bits_for_frame,
)
from repro.atm.link import AtmLink
from repro.atm.output_port import OutputPortServer
from repro.atm.switch import AtmSwitch

__all__ = [
    "AtmLink",
    "AtmSwitch",
    "CELL_BITS",
    "CELL_PAYLOAD_BITS",
    "OutputPortServer",
    "WIRE_EXPANSION",
    "cells_for_frame",
    "payload_bits_for_frame",
]
