"""Server abstractions for the decomposition analysis of Section 4.

Every network component a connection traverses is modeled as a *server* that
(1) delays the connection's traffic by a bounded amount and (2) emits the
traffic with a (possibly reshaped) output envelope.  Compound servers
(FDDI_S, ID_S, ...) are chains of simple servers; the end-to-end bound is
the sum over the chain (Eq. 7).

This package holds the *dedicated* servers, whose analysis depends on one
connection's traffic only.  The one shared server, the FIFO ATM output
port, is :class:`repro.atm.OutputPortServer`: the delay engine analyzes
it once per port for the aggregate of every connection crossing it.
"""

from repro.servers.base import DedicatedServer, ServerAnalysis
from repro.servers.constant import ConstantDelayServer
from repro.servers.regulator import RegulatorServer

__all__ = [
    "ConstantDelayServer",
    "DedicatedServer",
    "RegulatorServer",
    "ServerAnalysis",
]
