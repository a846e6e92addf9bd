"""Traffic descriptors: the maximum-rate function Gamma(I) of Section 4.2.

A *traffic descriptor* bounds the behaviour of a connection's source: for
every interval length ``I``, ``Gamma(I)`` is the maximum arrival rate the
source may sustain over any window of that length.  Equivalently, the
cumulative *arrival envelope* ``A(I) = I * Gamma(I)`` bounds the bits
delivered in any window.  The library works with the envelope form
(a :class:`repro.envelopes.Curve`), which every descriptor can produce.

Implemented models:

* :class:`DualPeriodicTraffic` — the paper's evaluation model (Eq. 37):
  at most ``C2`` bits in any ``P2`` window nested inside at most ``C1`` bits
  per ``P1`` window.
* :class:`PeriodicTraffic` — the classic one-period model (``C`` per ``P``).
* :class:`LeakyBucketTraffic` — the (sigma, rho) regulator familiar from
  ATM usage parameter control.
* :class:`CBRTraffic` — constant bit rate with optional packetization.
"""

from repro.traffic.descriptor import TrafficDescriptor
from repro.traffic.dual_periodic import DualPeriodicTraffic
from repro.traffic.periodic import PeriodicTraffic
from repro.traffic.leaky_bucket import LeakyBucketTraffic
from repro.traffic.cbr import CBRTraffic
from repro.traffic.generators import (
    MixedWorkloadGenerator,
    WorkloadGenerator,
    WorkloadSpec,
)

__all__ = [
    "CBRTraffic",
    "DualPeriodicTraffic",
    "LeakyBucketTraffic",
    "MixedWorkloadGenerator",
    "PeriodicTraffic",
    "TrafficDescriptor",
    "WorkloadGenerator",
    "WorkloadSpec",
]
