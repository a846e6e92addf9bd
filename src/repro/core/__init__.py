"""The paper's contribution: end-to-end delay analysis and the CAC.

* :mod:`repro.core.delay` — the decomposition engine: builds the server
  chain of every connection, propagates traffic envelopes through the
  network in feed-forward order, and sums per-server worst-case delays
  (Eq. 7).
* :mod:`repro.core.cac` — the admission controller of Section 5.3:
  feasibility at the maximum available allocation, binary searches for
  (H^min_need, H^max_need) along the allocation line, and the
  beta-interpolated grant (Eqs. 35/36).
* :mod:`repro.core.policies` — alternative allocation policies (min-need,
  max-need, max-available, FDDI-local) used as baselines/ablations.
* :mod:`repro.core.feasible_region` — utilities for mapping the feasible
  region of Theorems 3/4.
"""

from repro.core.delay import (
    ConnectionLoad,
    DelayAnalyzer,
    DelayReport,
    RegulatorSpec,
    ResourceUsage,
    route_port_names,
)
from repro.core.cac import AdmissionController, AdmissionResult
from repro.lru import LRUCache
from repro.core.incremental import IncrementalDelayEngine
from repro.core.policies import (
    AllocationPolicy,
    BetaPolicy,
    FDDILocalPolicy,
    MaxAvailPolicy,
)
from repro.core.feasible_region import feasibility_grid, lower_boundary_on_ray
from repro.core.buffers import BufferPlan, dimension_buffers
from repro.core.failover import FailoverManager, FailoverReport
from repro.core.report import NetworkStateReport, network_state

__all__ = [
    "AdmissionController",
    "AdmissionResult",
    "AllocationPolicy",
    "BetaPolicy",
    "BufferPlan",
    "ConnectionLoad",
    "DelayAnalyzer",
    "DelayReport",
    "FDDILocalPolicy",
    "FailoverManager",
    "FailoverReport",
    "IncrementalDelayEngine",
    "LRUCache",
    "MaxAvailPolicy",
    "route_port_names",
    "NetworkStateReport",
    "RegulatorSpec",
    "ResourceUsage",
    "dimension_buffers",
    "feasibility_grid",
    "lower_boundary_on_ray",
    "network_state",
]
