"""Allocation policies: how much of the feasible segment to grant.

The paper's algorithm (BetaPolicy) and the alternatives it argues against
(Section 5.3's discussion), plus an "FDDI-only style" local rule modeling
refs [1, 24] applied naively in the heterogeneous setting — the strawman
the paper's introduction warns about.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Dict, Optional, Tuple

from repro.config import CACConfig
from repro.core.delay import DelayReport

#: A feasibility probe: (h_s, h_r) -> delay reports, or None if infeasible.
FeasibilityCheck = Callable[[float, float], Optional[Dict[str, DelayReport]]]


@dataclasses.dataclass
class AllocationContext:
    """Everything a policy may consult while choosing an allocation.

    The search segment runs from ``h_min_abs`` to ``h_max_avail``; the policy
    may probe any point through ``check_feasible``.  ``reports_at_max`` holds
    the (already verified) delays at the maximum available allocation.
    Policies record their search results in ``observed_min_need`` /
    ``observed_max_need`` for instrumentation.
    """

    h_min_abs: Tuple[float, float]
    h_max_avail: Tuple[float, float]
    local: bool
    check_feasible: FeasibilityCheck
    reports_at_max: Dict[str, DelayReport]
    config: CACConfig
    #: Facts a *local* allocator would consult (used by FDDILocalPolicy).
    long_term_rate: float = 0.0
    ring_bandwidth: float = 0.0
    ttrt: float = 0.0
    observed_min_need: Optional[Tuple[float, float]] = None
    observed_max_need: Optional[Tuple[float, float]] = None

    def point(self, s: float) -> Tuple[float, float]:
        """The allocation at parameter ``s`` in [0, 1] along the segment.

        With ``config.use_origin_ray`` the segment is the ray through the
        origin (Rule 2 literally, clipped below at ``h_min_abs``); otherwise
        it joins ``h_min_abs`` to ``h_max_avail`` (Step 3 literally).
        """
        lo_s, lo_r = self.h_min_abs
        hi_s, hi_r = self.h_max_avail
        if self.config.use_origin_ray:
            base_s = max(lo_s, s * hi_s)
            base_r = 0.0 if self.local else max(lo_r, s * hi_r)
            return (base_s, base_r)
        h_s = lo_s + s * (hi_s - lo_s)
        h_r = 0.0 if self.local else lo_r + s * (hi_r - lo_r)
        return (h_s, h_r)


class AllocationPolicy(abc.ABC):
    """Strategy choosing the granted allocation inside the feasible segment."""

    @abc.abstractmethod
    def select(
        self, ctx: AllocationContext
    ) -> Optional[Tuple[Tuple[float, float], Dict[str, DelayReport]]]:
        """Return ``((h_s, h_r), reports)`` or ``None`` to reject.

        ``reports`` must be the delay reports of the returned allocation
        (the controller stores them as the admitted bounds).
        """


class BetaPolicy(AllocationPolicy):
    """The paper's policy: ``H = H^min_need + beta * (H^max_need - H^min_need)``.

    ``beta = 0`` grants the minimum that meets all deadlines; ``beta = 1``
    grants the maximum *useful* amount (more would not improve any delay);
    intermediate values trade future-admission headroom on the rings against
    slack in the admitted delays.
    """

    def __init__(self, beta: float) -> None:
        if not (0.0 <= beta <= 1.0):
            raise ValueError("beta must be within [0, 1]")
        self.beta = float(beta)

    # -- binary searches -------------------------------------------------

    def _search_min_need(self, ctx: AllocationContext) -> Optional[float]:
        """A feasible ``s`` by bisection (Step 3): 0 when ``s = 0`` is
        feasible, otherwise a point within ``search_tolerance`` above an
        infeasible one.

        It is the smallest feasible ``s`` only where feasibility is
        monotone in ``s``, and feasibility is not monotone: a larger
        ``H_S`` lets the source MAC pass larger bursts to the destination
        MAC, whose delay can rise by more than the source MAC's falls
        (``TestFeasibilityIsNotMonotone`` in
        ``tests/core/test_policies_and_region.py``).  Every returned point
        is feasible: ``hi`` is always ``s = 1``, which the controller
        verified, or a probed feasible point."""
        tol = ctx.config.search_tolerance
        lo, hi = 0.0, 1.0
        reports_lo = ctx.check_feasible(*ctx.point(0.0))
        if reports_lo is not None:
            return 0.0
        # s = 1 is feasible (the controller verified it).
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if ctx.check_feasible(*ctx.point(mid)) is not None:
                hi = mid
            else:
                lo = mid
        return hi

    def _delays_match_max(
        self, reports: Dict[str, DelayReport], ctx: AllocationContext
    ) -> bool:
        rtol = ctx.config.delay_equality_rtol
        for conn_id, at_max in ctx.reports_at_max.items():
            here = reports.get(conn_id)
            if here is None:
                return False
            if here.total_delay > at_max.total_delay * (1 + rtol) + 1e-12:
                return False
        return True

    def _search_max_need(self, ctx: AllocationContext, s_min: float) -> float:
        """Smallest ``s >= s_min`` whose delays equal those at s=1 (Step 4)."""
        tol = ctx.config.search_tolerance
        reports = ctx.check_feasible(*ctx.point(s_min))
        if reports is not None and self._delays_match_max(reports, ctx):
            return s_min
        lo, hi = s_min, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            reports = ctx.check_feasible(*ctx.point(mid))
            if reports is not None and self._delays_match_max(reports, ctx):
                hi = mid
            else:
                lo = mid
        return hi

    def select(self, ctx: AllocationContext):
        s_min = self._search_min_need(ctx)
        if s_min is None:
            return None
        ctx.observed_min_need = ctx.point(s_min)
        # reprolint: disable=RL003 -- exact config sentinel: beta=0.0 selects the pure min-need policy
        if self.beta == 0.0:
            s_star = s_min
        else:
            s_max = self._search_max_need(ctx, s_min)
            ctx.observed_max_need = ctx.point(s_max)
            s_star = s_min + self.beta * (s_max - s_min)
        reports = ctx.check_feasible(*ctx.point(s_star))
        if reports is None:
            # Numerical edge at the boundary: fall back to the verified top.
            s_star = 1.0
            reports = ctx.reports_at_max
        return ctx.point(s_star), reports


class MaxAvailPolicy(AllocationPolicy):
    """Grant everything available — the greedy strawman of Section 5.3.

    "This will result in the rejection of any future connection originated
    from or designated to these two rings simply because no bandwidth is
    available."
    """

    def select(self, ctx: AllocationContext):
        return ctx.h_max_avail, ctx.reports_at_max


class FDDILocalPolicy(AllocationPolicy):
    """An FDDI-only SBA rule applied blindly in the heterogeneous network.

    Each ring grants a *locally computed* share — the normalized-
    proportional style of refs [1, 24]: utilization times TTRT, inflated by
    ``headroom`` — with no regard for the end-to-end picture.  The request
    is accepted only if that exact point happens to be feasible; there is no
    search.  This models the paper's claim that homogeneous allocation
    cannot be transplanted into a heterogeneous network.
    """

    def __init__(self, headroom: float = 2.0) -> None:
        """``headroom`` scales the proportional grant (the classic schemes
        over-provision by a small factor to absorb token-timing jitter)."""
        if headroom <= 0:
            raise ValueError("headroom must be positive")
        self.headroom = float(headroom)

    def select(self, ctx: AllocationContext):
        if ctx.ring_bandwidth <= 0 or ctx.ttrt <= 0:
            return None
        util = ctx.long_term_rate / ctx.ring_bandwidth
        lo_s, lo_r = ctx.h_min_abs
        hi_s, hi_r = ctx.h_max_avail
        grant = self.headroom * util * ctx.ttrt
        h_s = min(hi_s, max(lo_s, grant))
        h_r = 0.0 if ctx.local else min(hi_r, max(lo_r, grant))
        reports = ctx.check_feasible(h_s, h_r)
        if reports is None:
            return None
        return (h_s, h_r), reports


class FixedPolicy(AllocationPolicy):
    """Grant a fixed, caller-chosen allocation (used by tests and the
    feasible-region explorer)."""

    def __init__(self, h_s: float, h_r: float) -> None:
        self.h_s = float(h_s)
        self.h_r = float(h_r)

    def select(self, ctx: AllocationContext):
        reports = ctx.check_feasible(self.h_s, self.h_r)
        if reports is None:
            return None
        return (self.h_s, self.h_r), reports
