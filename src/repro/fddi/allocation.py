"""Classic FDDI-only synchronous-bandwidth allocation (SBA) schemes.

These are the schemes of refs [1] (Agrawal, Chen, Zhao, Davari) and [24]
(Zhang, Burns, Wellings) that the paper argues *cannot* be applied directly
to a heterogeneous network.  They are implemented here as ablation
baselines; ``repro.core.policies.FDDILocalPolicy`` applies a rule of the
same normalized-proportional family inside the heterogeneous CAC, for
comparison with the paper's feasible-region/beta allocation.

All schemes take the set of periodic messages on one ring (message size
``c_i`` bits, period/deadline ``p_i`` seconds) and return per-message
synchronous times ``H_i`` (seconds per rotation).  A scheme may also return
allocations that fail the protocol constraint — callers must check
:func:`repro.fddi.timed_token.sync_capacity_check`.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError


def _validate(messages: Sequence[Tuple[float, float]], ttrt: float, bandwidth: float):
    if ttrt <= 0 or bandwidth <= 0:
        raise ConfigurationError("TTRT and bandwidth must be positive")
    for c, p in messages:
        if c <= 0 or p <= 0:
            raise ConfigurationError("message sizes and periods must be positive")
        if p < 2 * ttrt:
            raise ConfigurationError(
                "the timed-token protocol cannot guarantee deadlines shorter "
                "than 2 * TTRT"
            )


def full_length_allocation(
    messages: Sequence[Tuple[float, float]], ttrt: float, bandwidth: float
) -> List[float]:
    """Allocate enough to send the whole message in one token visit.

    ``H_i = c_i / BW``: the simplest scheme — each message's entire payload
    fits in a single synchronous transmission.  Wasteful for long periods.
    """
    _validate(messages, ttrt, bandwidth)
    return [c / bandwidth for c, _ in messages]


def proportional_allocation(
    messages: Sequence[Tuple[float, float]], ttrt: float, bandwidth: float
) -> List[float]:
    """Allocate proportionally to each message's utilization.

    ``H_i = (c_i / (p_i * BW)) * TTRT``: the station gets a share of every
    rotation equal to its long-term utilization.  (Scheme from ref [1].)
    """
    _validate(messages, ttrt, bandwidth)
    return [(c / (p * bandwidth)) * ttrt for c, p in messages]


def normalized_proportional_allocation(
    messages: Sequence[Tuple[float, float]],
    ttrt: float,
    bandwidth: float,
    overhead: float = 0.0,
) -> List[float]:
    """Proportional allocation normalized to use the whole usable TTRT.

    ``H_i = (u_i / U) * (TTRT - Delta)`` with ``u_i = c_i / (p_i * BW)`` and
    ``U = sum(u_i)``: utilizations scaled so the allocations exactly fill
    the usable portion of the rotation.  (Scheme from ref [1].)
    """
    _validate(messages, ttrt, bandwidth)
    if overhead < 0 or overhead >= ttrt:
        raise ConfigurationError("overhead must be in [0, TTRT)")
    utils = [c / (p * bandwidth) for c, p in messages]
    total = sum(utils)
    if total == 0:
        return [0.0 for _ in messages]
    usable = ttrt - overhead
    return [(u / total) * usable for u in utils]


def equal_partition_allocation(
    messages: Sequence[Tuple[float, float]],
    ttrt: float,
    bandwidth: float,
    overhead: float = 0.0,
) -> List[float]:
    """Split the usable rotation equally among the stations.

    ``H_i = (TTRT - Delta) / n``: ignores message parameters entirely; the
    classic strawman baseline.
    """
    _validate(messages, ttrt, bandwidth)
    n = len(messages)
    if n == 0:
        return []
    return [(ttrt - overhead) / n] * n


def is_schedulable(
    messages: Sequence[Tuple[float, float]],
    allocations: Sequence[float],
    ttrt: float,
    bandwidth: float,
) -> bool:
    """The classical FDDI-only schedulability test.

    A periodic message (c, p) with allocation H meets its deadline (= its
    period) under the timed-token protocol iff the synchronous service
    guaranteed within the period covers the message:
    ``(floor(p / TTRT) - 1) * H * BW >= c``.
    """
    _validate(messages, ttrt, bandwidth)
    if len(allocations) != len(messages):
        raise ConfigurationError("one allocation per message required")
    for (c, p), h in zip(messages, allocations):
        granted = max(0.0, (math.floor(p / ttrt) - 1.0)) * h * bandwidth
        if granted < c - 1e-9:
            return False
    return True
