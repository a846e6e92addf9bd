"""repro — connection-oriented real-time communication over FDDI-ATM-FDDI.

A from-scratch reproduction of

    Chen, Sahoo, Zhao, Raha.  "Connection-Oriented Communications for
    Real-Time Applications in FDDI-ATM-FDDI Heterogeneous Networks."
    ICDCS 1997.

The package provides the paper's full stack:

* envelope algebra and Gamma(I) traffic descriptors (:mod:`repro.envelopes`,
  :mod:`repro.traffic`);
* the FDDI timed-token, ATM and interface-device substrates with their
  worst-case server analyses (:mod:`repro.fddi`, :mod:`repro.atm`,
  :mod:`repro.interface_device`);
* the decomposition delay engine and the beta-parameterized connection
  admission control — the paper's contribution (:mod:`repro.core`);
* discrete-event simulators and the experiment harness regenerating the
  paper's figures (:mod:`repro.sim`, :mod:`repro.experiments`).

Typical use::

    from repro import (AdmissionController, ConnectionSpec,
                       DualPeriodicTraffic, build_network)

    topology = build_network()                  # the paper's 3-ring network
    cac = AdmissionController(topology)
    traffic = DualPeriodicTraffic(c1=120e3, p1=0.015, c2=60e3, p2=0.005)
    result = cac.request(ConnectionSpec(
        "video", "host1-1", "host2-1", traffic, deadline=0.080))
    assert result.admitted
"""

from repro.config import (
    AnalysisConfig,
    CACConfig,
    NetworkConfig,
    SimulationConfig,
    build_network,
)
from repro.core import AdmissionController, AdmissionResult, DelayAnalyzer
from repro.errors import (
    AdmissionError,
    BufferOverflowError,
    ConfigurationError,
    ReproError,
    RoutingError,
    TopologyError,
    UnstableSystemError,
)
from repro.network import ConnectionRecord, ConnectionSpec, NetworkTopology, Route
from repro.traffic import (
    CBRTraffic,
    DualPeriodicTraffic,
    LeakyBucketTraffic,
    PeriodicTraffic,
    TrafficDescriptor,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionResult",
    "AnalysisConfig",
    "BufferOverflowError",
    "CACConfig",
    "CBRTraffic",
    "ConfigurationError",
    "ConnectionRecord",
    "ConnectionSpec",
    "DelayAnalyzer",
    "DualPeriodicTraffic",
    "LeakyBucketTraffic",
    "NetworkConfig",
    "NetworkTopology",
    "PeriodicTraffic",
    "ReproError",
    "Route",
    "RoutingError",
    "SimulationConfig",
    "TopologyError",
    "TrafficDescriptor",
    "UnstableSystemError",
    "build_network",
]
