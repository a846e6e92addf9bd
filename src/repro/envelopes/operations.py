"""Deviation and deconvolution operations on envelope curves.

These functions implement the quantities that the paper's server
theorems need:

* :func:`busy_interval` — Theorem 1(1): the maximal busy interval ``B``,
  the first instant at which the service staircase has caught up with the
  arrival envelope.  :class:`FifoBounds` reads ``B`` and the backlog
  within it from one grid, for the servers that need both.
* :func:`vertical_deviation` — Theorem 1(2): the worst-case backlog (buffer
  requirement) ``F``.
* :func:`horizontal_deviation` — Theorem 1(3): the worst-case delay ``chi``
  (and the FIFO output-port delay bound of refs [2, 14]).
* :func:`deconvolve` — Theorem 1(4) / Eq. (12): the output-traffic envelope
  ``sup_t [A(t + I) - S(t)]`` restricted to ``t`` in the busy interval.

Candidate extremal points are enumerated from the curves' breakpoints, and
between candidates the objective is affine.  The deviations are exact for
piecewise-linear inputs; :func:`deconvolve` evaluates its result on a
finite grid, and its docstring says which side each approximation errs on.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.envelopes.curve import EPS, Curve, _left_limits_at, _slopes_at
from repro.errors import CurveError
from repro.lru import LRUCache


class GridPlan:
    """The half of :class:`FifoBounds` that does not read ``S``'s values.

    Built from ``A`` and ``S``'s breakpoints alone: the merged grid
    ``union1d(A.xs, S.xs)``, ``A`` on it, and the segment of ``S`` each
    grid point falls on with its offset into that segment, for right
    values and (on first use) left limits.  :meth:`service_values` and
    :meth:`left_gaps` read any service with those breakpoints through the
    expression ``Curve.__call__`` evaluates at the same point, so one plan
    serves every allocation of a timed-token staircase (the steps sit at
    ``k * TTRT`` whatever ``H`` is) bit for bit as a fresh grid would.
    """

    __slots__ = (
        "arrival",
        "xs",
        "a_vals",
        "tol",
        "positive",
        "_service_xs",
        "_right",
        "_negative",
        "_left",
    )

    def __init__(self, arrival: Curve, service_xs: np.ndarray) -> None:
        xs = np.union1d(arrival.xs, service_xs)
        self.arrival = arrival
        self.xs = xs
        self.a_vals = arrival(xs)
        #: The catch-up tolerance at each grid point (see FifoBounds).
        self.tol = 1e-9 * np.maximum(1.0, np.abs(self.a_vals))
        self.positive = xs > 0
        self._service_xs = service_xs
        self._right = _locate(service_xs, xs, "right")
        # ``__call__`` reads 0 before t = 0; only a first breakpoint a
        # hair below 0 (within the constructor's tolerance) puts one there.
        self._negative = xs < 0.0 if xs[0] < 0.0 else None
        self._left: Optional[Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]] = None

    def service_values(self, service: Curve) -> np.ndarray:
        """``service(xs)`` for a service with the plan's breakpoints."""
        vals = _values_at(service, self._right)
        if self._negative is not None:
            vals = np.where(self._negative, 0.0, vals)
        return vals

    def left_gaps(self, service: Curve, cut: int) -> np.ndarray:
        """``A(x-) - S(x-)`` at the first ``cut`` grid points, each left
        limit as :func:`repro.envelopes.curve._left_limits_at` reads it."""
        if self._left is None or len(self._left[0]) < cut:
            # Only the points a caller has asked for: the busy interval
            # often ends long before the grid does.
            xs = self.xs[:cut]
            self._left = (
                _left_limits_at(self.arrival, xs),
                _locate(self._service_xs, xs, "left"),
            )
        a_left, (seg, offset) = self._left
        s_left = _values_at(service, (seg[:cut], offset[:cut]))
        s_left = np.where(self.xs[:cut] <= 0, 0.0, s_left)
        return a_left[:cut] - s_left


def _locate(
    breakpoints: np.ndarray, ts: np.ndarray, side: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Segment index and offset into it of each ``t``, on a curve with
    ``breakpoints``, as ``Curve.__call__`` (``side="right"``) or a left
    limit (``side="left"``) finds them."""
    seg = np.searchsorted(breakpoints, ts, side=side) - 1
    np.maximum(seg, 0, out=seg)
    return seg, ts - breakpoints[seg]


def _values_at(
    curve: Curve, located: Tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """``curve``'s value at points given by :func:`_locate`, the segment's
    value plus its slope times the offset, as ``Curve.__call__`` adds them."""
    seg, offset = located
    return curve.ys[seg] + curve.slopes[seg] * offset


class FifoBounds:
    """Busy interval and backlog of ``A`` against ``S`` from one grid.

    The grid, ``A`` on it and ``S``'s segment lookups come from a
    :class:`GridPlan`: a fresh one, or the one ``plans`` keeps for ``A``
    and ``S``'s breakpoints.  ``A - S`` is evaluated on it once.
    :attr:`busy` (what :func:`busy_interval` returns) is read from that
    grid on construction; :meth:`backlog` reads the backlog within the
    busy interval from the same arrays, only when a caller needs it,
    through the body :func:`vertical_deviation` runs.  It is bit for bit
    ``vertical_deviation(A, S, t_max=B)``: every value is the same
    elementwise expression on the same grid point.

    The catch-up test ``A - S <= 1e-9 * max(1, A)`` at a breakpoint errs
    **low**: ``B`` may end while ``A`` still exceeds ``S`` by less than
    that (a thousandth of a bit at a megabit), and the backlog and delay
    are then taken over the shorter window.  Only breakpoints are
    tested, so a catch-up inside a segment that ends in a jump of ``A``
    (both differences above the tolerance) is missed and ``B`` errs
    **high** there, which widens every later supremum (safe).
    """

    __slots__ = ("arrival", "service", "plan", "diff", "busy")

    def __init__(
        self,
        arrival: Curve,
        service: Curve,
        plans: "Optional[PlanCache]" = None,
    ) -> None:
        if plans is None:
            plan = GridPlan(arrival, service.xs)
        else:
            plan = plans.grid(arrival, service)
        self.arrival = arrival
        self.service = service
        self.plan = plan
        self.diff = plan.a_vals - plan.service_values(service)
        self.busy = _first_catch_up(arrival, service, plan, self.diff)

    def backlog(self) -> float:
        """``sup_{0 < t <= B} [A(t) - S(t)]``: the worst-case backlog.

        With ``B = inf`` (the unstable case) this is the supremum over
        every ``t``, which is ``+inf`` when ``A``'s final slope exceeds
        ``S``'s.
        """
        cut = int(np.searchsorted(self.plan.xs, self.busy, side="right"))
        return _backlog(
            self.arrival, self.service, self.plan, self.diff, cut, self.busy
        )


def _first_catch_up(
    arrival: Curve, service: Curve, plan: GridPlan, diff: np.ndarray
) -> float:
    """:attr:`FifoBounds.busy` from the plan's grid and the ``A - S``
    values on it."""
    xs, tol = plan.xs, plan.tol
    hits = plan.positive & (diff <= tol)
    if hits.any():
        # First breakpoint at which the service has caught up; locate the
        # crossing inside the preceding segment when the arrival was
        # still ahead there.
        k = int(np.argmax(hits))
        x = float(xs[k])
        if k >= 1 and float(diff[k - 1]) > float(tol[k]):
            sa = float(_slopes_at(arrival, xs[k - 1 : k])[0])
            ss = float(_slopes_at(service, xs[k - 1 : k])[0])
            dslope = sa - ss
            if dslope < -EPS:
                t_cross = float(xs[k - 1]) - float(diff[k - 1]) / dslope
                # The crossing may occur before the breakpoint (inside the
                # open segment) only if both curves are continuous there;
                # a jump in S at `x` can also close the gap.
                if t_cross < x - EPS:
                    return float(t_cross)
        return x
    # Beyond the last breakpoint both curves are affine.
    x0 = float(xs[-1])
    diff0 = float(diff[-1])
    dslope = arrival.final_slope - service.final_slope
    if diff0 <= float(tol[-1]):
        return x0 if x0 > 0 else 0.0
    if dslope >= -EPS:
        return math.inf
    return float(x0 - diff0 / dslope)


def busy_interval(arrival: Curve, service: Curve) -> float:
    """The maximal busy interval ``B = min { t > 0 : A(t) <= S(t) }``.

    Returns 0.0 when the server is never backlogged (``A <= S`` from the
    start), and ``math.inf`` when the arrival rate exceeds the service rate
    so the backlog never clears (the unstable case of Theorem 1).  The
    final affine segments make the unbounded search exact.  Callers that
    also need the backlog use :class:`FifoBounds`, which shares the grid;
    its docstring says which side the catch-up tolerance errs on.
    """
    return FifoBounds(arrival, service).busy


def vertical_deviation(
    arrival: Curve, service: Curve, t_max: float = math.inf
) -> float:
    """``sup_{0 < t <= t_max} [A(t) - S(t)]`` — the worst-case backlog.

    With ``t_max = inf`` the supremum over the final affine region is
    included (it is ``+inf`` when the arrival rate exceeds the service
    rate).
    """
    plan = GridPlan(arrival, service.xs)
    diff = plan.a_vals - plan.service_values(service)
    cut = int(np.searchsorted(plan.xs, t_max, side="right"))
    return _backlog(arrival, service, plan, diff, cut, t_max)


def _backlog(
    arrival: Curve,
    service: Curve,
    plan: GridPlan,
    diff: np.ndarray,
    cut: int,
    t_max: float,
) -> float:
    """:func:`vertical_deviation` from the plan's grid cut after its
    first ``cut`` points (those ``<= t_max``) and its ``A - S`` values."""
    # Right values at the breakpoints, and left limits (a jump *down* in
    # A - S happens when S jumps, so the supremum may sit just before a
    # breakpoint).
    if cut == 0:
        xs = np.asarray([0.0])
        right = arrival(xs) - service(xs)
        left = _left_limits_at(arrival, xs) - _left_limits_at(service, xs)
    else:
        right = diff[:cut]
        left = plan.left_gaps(service, cut)
    best = max(0.0, float(np.max(right)), float(np.max(left)))
    if math.isfinite(t_max):
        best = max(best, float(arrival(t_max) - service(t_max)))
        return best
    if arrival.final_slope > service.final_slope + EPS:
        return math.inf
    return best


def horizontal_deviation(
    arrival: Curve, service: Curve, t_max: float = math.inf
) -> float:
    """``sup_{0 < t <= t_max} min { d >= 0 : S(t + d) >= A(t) }``.

    This is the classical worst-case FIFO delay: the maximal horizontal
    distance from the arrival envelope to the service curve.  Returns
    ``math.inf`` when the system is unstable (``A``'s long-term rate exceeds
    ``S``'s) or when ``S`` plateaus below a value ``A`` reaches.

    Which side each tolerance errs on:

    * Each candidate ``c`` is also read at ``c + 1e-9 * max(1, c)``, to
      catch a supremum approached from the right but not attained there
      (the delay jumps up just past ``c``).  Every read is a true value
      of the delay function, and it falls at most one unit per unit of
      time, so the nudge errs **low** by at most the nudge itself (1 ns
      for ``c`` under a second).
    * With a finite ``t_max``, candidates up to ``t_max + EPS`` are kept.
      Those past ``t_max`` are still true delays, just outside the
      window, so the cut errs **high** (safe).
    """
    if math.isinf(t_max) and arrival.final_slope > service.final_slope + EPS:
        return math.inf

    # Candidate t values where the delay function d(t) = S^{-1}(A(t)) - t can
    # peak: arrival breakpoints (tail of a burst), and points where A(t)
    # crosses a service breakpoint value (d changes slope there).  Left
    # limits at service jumps and a nudge past each candidate cover suprema
    # that are approached but not attained.
    service_levels = np.concatenate(
        [service.ys, _left_limits_at(service, service.xs[1:])]
    )
    crossing_ts = arrival.pseudo_inverse_many(service_levels)
    crossing_ts = crossing_ts[np.isfinite(crossing_ts)]
    cands = np.concatenate([arrival.xs, crossing_ts])
    cands = np.concatenate([cands, cands + 1e-9 * np.maximum(1.0, cands)])
    if math.isfinite(t_max):
        cands = cands[cands <= t_max + EPS]
        cands = np.append(cands, float(t_max))
    cands = cands[cands >= 0.0]
    if len(cands) == 0:
        return 0.0

    arr_vals = arrival(cands)
    s_times = service.pseudo_inverse_many(arr_vals)
    if np.any(np.isinf(s_times)):
        return math.inf
    best = float(np.max(s_times - cands))

    # Beyond the last candidate the delay function is affine with slope
    # (rate_A / rate_S - 1) <= 0 in the stable case, so the supremum over the
    # tail is attained at the last breakpoint already considered; in the
    # bounded case t_max is included above.
    return max(best, 0.0)


def rate_latency_bounds(
    arrival: Curve, rate: float, latency: float
) -> Tuple[float, float, float]:
    """``(busy, backlog, delay)`` of ``A`` against ``S = R * (t - T)+``.

    Bit for bit ``FifoBounds(A, S).busy``, ``FifoBounds(A, S).backlog()``
    and ``horizontal_deviation(A, S, t_max=busy)`` with ``S =
    Curve.rate_latency(R, T)``, in one pass over ``A``'s breakpoints: no
    ``union1d``, four scalar searches and one vector search.  With an
    unbounded busy period the backlog and delay are not computed and all
    three are ``inf``.  The tolerances are those two functions', and err
    on the sides their docstrings state.

    Every value is the float expression the generic path evaluates at the
    same point (``S`` is ``[0]`` with slope ``R`` when ``T == 0``, else
    ``[0, T]`` with slopes ``[0, R]``; ``x - 0.0 == x`` and ``0.0 * x``
    is a zero for finite ``x``, so ``0.0 + 0.0 * (x - 0.0) == 0.0``):

    * Grid: ``union1d(A.xs, S.xs)`` is ``A.xs`` with ``0`` and ``T``
      inserted where absent; each point keeps ``A``'s segment as
      ``searchsorted(side="right") - 1`` (clamped at 0) finds it.
    * ``A`` on the grid: ``ys[i] + slopes[i] * (x - xs[i])`` on that
      segment, 0 before ``t = 0``, as ``Curve.__call__``; at ``A``'s own
      breakpoints that is ``ys + slopes * 0.0``.
    * ``S`` on the grid: ``0.0 + R * (x - T)`` from ``T`` on (from 0 when
      ``T == 0``), ``0.0`` before it, as ``GridPlan.service_values``.
    * Catch-up slope of ``S`` at the point before the first hit: ``R`` at
      or after ``T``, else ``0.0`` (that point is at or after 0, so
      always ``R`` when ``T == 0``).
    * Backlog: ``A``'s left limit at its breakpoint ``k`` is the previous
      segment's ``ys[k-1] + slopes[k-1] * (xs[k] - xs[k-1])``, and at an
      inserted point its right value; 0 at ``x <= 0``.  ``S``'s left
      limit equals its right value everywhere: both are ``0.0`` up to
      ``T`` (``0.0 + R * 0.0 == 0.0`` at ``T``) and the same expression
      past it.  ``busy`` is at or after the grid's first point, so the
      generic empty-window branch never runs, and it sits in the segment
      of the last grid point not past it, so ``A(busy)`` and ``S(busy)``
      are ``__call__``'s scalar expressions there.
    * Delay candidates: ``S``'s levels and left limits are all ``0.0``,
      so every crossing candidate is ``A.pseudo_inverse_many(0.0)``,
      which is ``0.0`` when ``A.ys[0] >= 0``; the candidates are ``A.xs``,
      the crossings, their ``1e-9`` nudges, cut at ``busy + EPS``, plus
      ``busy``.  A crossing equal to ``A.xs[0]`` repeats a candidate and
      is dropped: a maximum is order- and repeat-independent.
    * ``S.pseudo_inverse_many(v)``: ``T + v / R`` for ``v > 0`` (``inf``
      when ``R <= EPS``), ``0.0`` otherwise.
    """
    if rate < 0 or latency < 0:
        raise CurveError("rate-latency curve needs non-negative parameters")
    rate = float(rate)
    latency = float(latency)
    axs, ays, aslopes = arrival.xs, arrival.ys, arrival.slopes

    # The merged grid, A's segment at each point, and the grid positions
    # of 0 (``zero``) and of T (``start``, where S's rising segment starts).
    xs = axs
    seg = np.arange(len(axs))
    inserted: List[int] = []
    positions: List[int] = []
    for point in (0.0, latency) if latency > 0.0 else (0.0,):
        p = int(np.searchsorted(xs, point))
        if p == len(xs) or xs[p] != point:
            xs = np.concatenate((xs[:p], [point], xs[p:]))
            seg = np.concatenate((seg[:p], seg[p - 1 : p] if p else [0], seg[p:]))
            inserted.append(p)
        positions.append(p)
    zero, start = positions[0], positions[-1]
    a_vals = ays[seg] + aslopes[seg] * (xs - axs[seg])
    a_vals[:zero] = 0.0
    s_vals = np.zeros(len(xs))
    s_vals[start:] = 0.0 + rate * (xs[start:] - latency)
    diff = a_vals - s_vals
    tol = 1e-9 * np.maximum(1.0, np.abs(a_vals))

    # The busy interval, as ``_first_catch_up`` reads it; ``cut`` counts
    # the grid points at or before it.
    hits = diff <= tol
    hits[: zero + 1] = False
    if hits.any():
        k = int(np.argmax(hits))
        busy = float(xs[k])
        cut = k + 1
        if k >= 1 and float(diff[k - 1]) > float(tol[k]):
            sa = float(aslopes[seg[k - 1]])
            ss = rate if k - 1 >= start else 0.0
            dslope = sa - ss
            if dslope < -EPS:
                t_cross = float(xs[k - 1]) - float(diff[k - 1]) / dslope
                # t_cross lies in [xs[k - 1], xs[k]).
                if t_cross < busy - EPS:
                    busy = t_cross
                    cut = k
    else:
        x0 = float(xs[-1])
        diff0 = float(diff[-1])
        dslope = arrival.final_slope - rate
        cut = len(xs)
        if diff0 <= float(tol[-1]):
            busy = x0 if x0 > 0 else 0.0
        elif dslope >= -EPS:
            return math.inf, math.inf, math.inf
        else:
            busy = float(x0 - diff0 / dslope)

    # The backlog, as ``_backlog`` reads it from the same arrays.
    lseg = np.maximum(seg[:cut] - 1, 0)
    for p in inserted:
        if p < cut:
            lseg[p] = seg[p]
    gx = xs[:cut]
    a_left = ays[lseg] + aslopes[lseg] * (gx - axs[lseg])
    a_left[: zero + 1] = 0.0
    backlog = max(
        0.0, float(np.max(diff[:cut])), float(np.max(a_left - s_vals[:cut]))
    )
    i = int(seg[cut - 1])
    a_busy = float(ays[i]) + float(aslopes[i]) * (busy - float(axs[i]))
    s_busy = 0.0 + rate * (busy - latency) if busy >= latency else 0.0
    backlog = max(backlog, a_busy - s_busy)

    # The delay, as ``horizontal_deviation`` reads it up to ``busy``.
    # ``A.xs`` and its nudges both rise, so each filter keeps a run of
    # them; ``zero`` counts the breakpoints below 0, and every nudge is
    # past ``A.xs[0] >= -EPS``, so above 0 and on a segment >= 0.
    limit = busy + EPS
    hi = int(np.searchsorted(axs, limit, side="right"))
    nudged = axs[:hi] + 1e-9 * np.maximum(1.0, axs[:hi])
    nudged = nudged[: int(np.searchsorted(nudged, limit, side="right"))]
    idx = np.searchsorted(axs, nudged, side="right") - 1
    cand_parts = [axs[zero:hi], nudged, np.asarray([busy])]
    val_parts = [
        ays[zero:hi] + aslopes[zero:hi] * 0.0,
        ays[idx] + aslopes[idx] * (nudged - axs[idx]),
        np.asarray([a_busy]),
    ]
    crossing = 0.0 if ays[0] >= 0.0 else float(arrival.pseudo_inverse_many([0.0])[0])
    if math.isfinite(crossing) and crossing != axs[0]:
        extra = np.asarray([crossing, crossing + 1e-9 * max(1.0, crossing)])
        extra = extra[(extra <= limit) & (extra >= 0.0)]
        cand_parts.append(extra)
        val_parts.append(arrival(extra))
    cands = np.concatenate(cand_parts)
    vals = np.concatenate(val_parts)
    if rate > EPS:
        s_times = np.where(vals > 0.0, latency + vals / rate, 0.0)
    else:
        s_times = np.where(vals > 0.0, math.inf, 0.0)
    # An infinite pseudo-inverse makes the maximum ``inf``, which is what
    # ``horizontal_deviation`` returns then.
    delay = max(float(np.max(s_times - cands)), 0.0)
    return busy, backlog, delay


def token_bucket_majorant(curve: Curve) -> Tuple[float, float]:
    """The tightest (sigma, rho) with ``curve(t) <= sigma + rho * t``.

    ``rho`` is the curve's final slope; ``sigma`` the supremum of
    ``curve(t) - rho * t``, attained at a breakpoint (or a left limit just
    before one) because the difference is piecewise linear.
    """
    rho = curve.final_slope
    xs = curve.xs
    sigma = float(np.max(curve(xs) - rho * xs))
    if len(xs) > 1:
        lefts = _left_limits_at(curve, xs[1:]) - rho * xs[1:]
        sigma = max(sigma, float(np.max(lefts)))
    return max(0.0, sigma), rho


#: Size of the candidate ``I`` grid above which :func:`deconvolve` thins
#: it to an evenly spread subset (and returns a dominating staircase).
DECONVOLVE_MAX_CANDIDATES = 512

#: Element budget of each row-chunk temporary in :func:`deconvolve`.
_CHUNK_ELEMENTS = 262144

#: Branch 2 of :func:`deconvolve` reads one breakpoint per span while
#: ``_SPAN_COST * spans < arrival breakpoints``: counting a span costs
#: about twice scanning a breakpoint (timed on campus-churn and paper-u09
#: calls; 1 to 4 cost within 2 % of each other).
_SPAN_COST = 2

#: Plans of each kind a :class:`PlanCache` keeps.  The probes of one
#: admission decision revisit a few arrivals (a median of 3 over 20
#: Theorem-1 runs in a campus-churn run) and no arrival recurs across
#: decisions, so a few entries catch the repeats.
PLAN_CACHE_SIZE = 8

#: Elements a :class:`DeconvolutionPlan` keeps in its matrices.  A plan
#: over this budget keeps only its grids and rebuilds the matrices in
#: ``_CHUNK_ELEMENTS`` chunks on every apply, so a full cache holds at
#: most ``PLAN_CACHE_SIZE`` times this many floats of matrices.
PLAN_MATRIX_ELEMENTS = 65536


def _flat_segments(service: Curve) -> np.ndarray:
    """Which of ``service``'s segments are exactly flat."""
    # reprolint: disable=RL003 -- only an exactly zero slope keeps S's value bit-identical across a span
    return service.slopes == 0.0


class DeconvolutionPlan:
    """The half of :func:`deconvolve` that does not read ``S``'s values.

    Built from ``A``, ``t_limit``, ``S``'s breakpoints and which of its
    segments are flat (``flat_service``): the ``I`` grid and its
    thinning, the candidate ``t`` values, ``S``'s spans, and ``A``
    evaluated at every candidate ``t + I``.  :meth:`apply` reads the
    values of any service with those breakpoints and flat segments, with
    the expressions ``Curve.__call__`` evaluates, subtracts them and
    takes the maxima; a maximum is order-independent, so the result is
    bit for bit the one-shot :func:`deconvolve`'s.  One plan serves every
    allocation ``H`` of a timed-token staircase: its steps sit at
    ``k * TTRT`` and are flat whatever ``H`` is, and the busy interval
    ``t_limit`` is a whole number of rotations.

    The matrices are kept when they hold at most
    :data:`PLAN_MATRIX_ELEMENTS` elements, and rebuilt chunk by chunk on
    every apply otherwise.
    """

    __slots__ = (
        "arrival",
        "i_arr",
        "thinned",
        "per_span",
        "_t_sel",
        "_edges",
        "_t_limit",
        "_service_xs",
        "_points",
        "_height",
        "_matrices",
        "_dx",
    )

    def __init__(
        self,
        arrival: Curve,
        service_xs: np.ndarray,
        flat_service: np.ndarray,
        t_limit: float,
    ) -> None:
        if not math.isfinite(t_limit):
            raise ValueError("deconvolution needs a finite busy interval")
        t_limit = max(0.0, t_limit)
        i_max = arrival.last_breakpoint + t_limit + EPS
        sxs = service_xs

        # Candidate t values (within [0, t_limit]): breakpoints of S, and a
        # nudge before each jump of S, where S is still at its left limit.
        inner = sxs[(sxs > 0.0) & (sxs < t_limit)]
        nudge_src = np.concatenate([sxs, [t_limit]])
        nudge_src = nudge_src[(nudge_src > 0.0) & (nudge_src <= t_limit)]
        nudged = np.maximum(0.0, nudge_src - 1e-9 * np.maximum(1.0, nudge_src))
        t_base = np.unique(np.concatenate([[0.0, t_limit], inner, nudged]))

        # Candidate I grid: pairwise differences ax - t, plus the arrival
        # breakpoints themselves, clipped to (0, i_max).
        axs, ays, aslopes = arrival.xs, arrival.ys, arrival.slopes
        diffs = (axs[:, None] - t_base[None, :]).ravel()
        diffs = diffs[(diffs > 0.0) & (diffs < i_max)]
        ax_inner = axs[(axs > 0.0) & (axs < i_max)]
        i_arr = np.unique(np.concatenate([[0.0, float(i_max)], diffs, ax_inner]))
        thinned = len(i_arr) > DECONVOLVE_MAX_CANDIDATES
        if thinned:
            # Thin the grid but always keep the endpoints.  With step > 1
            # the picks rise strictly from 0 and stay below the last index.
            step = len(i_arr) / float(DECONVOLVE_MAX_CANDIDATES)
            picks = (np.arange(DECONVOLVE_MAX_CANDIDATES) * step).astype(np.intp)
            i_arr = i_arr[np.append(picks, len(i_arr) - 1)]

        # Spans of S meeting [0, t_limit]: span j holds the t that S
        # evaluates on its segment j, i.e. [edges[j], edges[j + 1]).  The
        # top edge is the float after t_limit, so the last span is closed
        # at t_limit.
        n_spans = max(1, int(np.searchsorted(sxs, t_limit, side="right")))
        edges = np.concatenate(
            [[0.0], sxs[1:n_spans], [np.nextafter(t_limit, math.inf)]]
        )
        # A's float evaluation is non-decreasing iff no segment's rounded
        # left limit exceeds the next breakpoint's value.
        a_left = ays[:-1] + aslopes[:-1] * (axs[1:] - axs[:-1])
        monotone = bool(np.all(aslopes >= 0.0) and np.all(a_left <= ays[1:]))
        flat = flat_service[:n_spans] & monotone

        # Branch 1 candidates: the right-most t of each flat span, every t
        # of a sloped one.
        t_span = np.searchsorted(sxs, t_base, side="right") - 1
        np.maximum(t_span, 0, out=t_span)
        last = np.append(t_span[1:] != t_span[:-1], True)
        t_sel = t_base[last | ~flat[t_span]]
        # Branch 2 reads one breakpoint per span when every span is flat
        # and counting them is cheaper than scanning every arrival
        # breakpoint.  Branch 1 then has one row per span too, and both
        # subtract the span's level: the plan keeps their larger A value,
        # and S is read once per span.
        per_span = bool(flat.all()) and _SPAN_COST * n_spans < len(axs)
        if per_span:
            self._points = _locate(sxs, edges[:-1], "right")
            height = n_spans + 1
        else:
            self._points = _locate(sxs, t_sel, "right")
            height = max(len(t_sel), len(axs))

        self.arrival = arrival
        self.i_arr = i_arr
        self.thinned = thinned
        self.per_span = per_span
        self._t_sel = t_sel
        self._edges = edges
        self._t_limit = t_limit
        self._service_xs = sxs
        self._height = height
        self._dx = np.diff(i_arr)
        self._matrices: Optional[Tuple[np.ndarray, ...]] = None
        kept = (n_spans if per_span else len(t_sel) + 3 * len(axs)) * len(i_arr)
        if kept <= PLAN_MATRIX_ELEMENTS:
            self._matrices = self._build(0, len(i_arr))

    def _build(self, lo: int, hi: int) -> Tuple[np.ndarray, ...]:
        """The matrices for the ``I`` columns ``lo:hi``: one candidate per
        row, one ``I`` per column, so each column maximum runs over a few
        long rows."""
        axs, ays = self.arrival.xs, self.arrival.ys
        cols = self.i_arr[None, lo:hi]
        # Branch 1: A at every candidate t + I, evaluated inline (every
        # point is >= 0, so ``__call__``'s negative-t clamp is a no-op).
        pts = self._t_sel[:, None] + cols
        a_vals = _values_at(self.arrival, _locate(axs, pts, "right"))
        if self.per_span:
            # The last arrival breakpoint with ax - I inside each span.
            below = _count_below(axs, cols, self._edges[:, None])
            hit = below[1:] > below[:-1]
            np.maximum(
                a_vals, np.where(hit, ays[below[1:] - 1], -math.inf), out=a_vals
            )
            return (a_vals,)
        # Every arrival breakpoint with ax - I in [0, t_limit], and where
        # ax - I falls on S.
        t_mat = axs[:, None] - cols
        valid = (t_mat >= 0.0) & (t_mat <= self._t_limit)
        seg, offset = _locate(self._service_xs, t_mat, "right")
        return (a_vals, np.where(valid, ays[:, None], -math.inf), seg, offset)

    def apply(self, service: Curve) -> Curve:
        """The output envelope against ``service``, which must have the
        breakpoints and flat segments the plan was built from."""
        s_at = _values_at(service, self._points)[:, None]
        n = len(self.i_arr)
        values = np.empty(n)
        # Every temporary stays within the chunk budget, and a maximum is
        # order-independent, so neither the layout nor the chunking can
        # change a bit.
        chunk = n if self._matrices is not None else max(
            1, _CHUNK_ELEMENTS // self._height
        )
        for lo in range(0, n, chunk):
            mats = self._matrices
            if mats is None:
                mats = self._build(lo, lo + chunk)
            # Branch 1 (and branch 2, folded in per span).
            best = np.max(mats[0] - s_at, axis=0)
            if not self.per_span:
                # Branch 2: A's jump at ax minus S at ax - I, with S
                # evaluated inline as ``__call__`` does; -inf marks an
                # ax - I outside [0, t_limit].
                _, a_valid, seg, offset = mats
                s_vals = _values_at(service, (seg, offset))
                np.maximum(best, np.max(a_valid - s_vals, axis=0), out=best)
            values[lo:lo + chunk] = best

        # O is non-decreasing in I; enforce against numerical noise.
        values = np.maximum.accumulate(values)
        slopes = np.empty(n)
        slopes[-1] = self.arrival.final_slope
        if self.thinned:
            # Linear interpolation between thinned samples could undercut
            # the true (non-decreasing) function; a right-continuous
            # staircase through the *next* sample dominates it everywhere.
            ys = np.concatenate([values[1:], values[-1:]])
            slopes[:-1] = 0.0
            return Curve(self.i_arr, ys, slopes, validate=False).simplify()
        # The curve through the samples, as ``Curve.from_breakpoints``
        # builds it.  Its checks cannot fail here: the grid rises strictly
        # from 0 and the values are non-decreasing.
        slopes[:-1] = np.diff(values) / self._dx
        return Curve(self.i_arr, values, slopes, validate=False).simplify()


def deconvolve(
    arrival: Curve,
    service: Curve,
    t_limit: float,
    plans: "Optional[PlanCache]" = None,
) -> Curve:
    """Output envelope ``O(I) = sup_{0 <= t <= t_limit} [A(t + I) - S(t)]``.

    ``t_limit`` should be the server's busy interval ``B`` (Theorem 1(4)
    restricts the supremum to the busy interval).  Past ``I_max =
    A.last_breakpoint + t_limit`` every ``A(t + I)`` is affine in ``I``,
    so the result continues there with ``A``'s final slope.

    The work splits into a :class:`DeconvolutionPlan`, which reads only
    ``S``'s breakpoints and flat segments, and its apply, which reads
    ``S``'s values.  The plan is fresh, or the one ``plans`` keeps for
    the same ``A``, breakpoints, flat segments and ``t_limit``; either
    way the result is the same bit for bit.

    The supremum is evaluated on a grid of ``I`` values: ``0``, ``I_max``,
    ``A``'s breakpoints, and every difference ``ax - t`` of an arrival
    breakpoint and a candidate ``t`` (``0``, ``t_limit``, ``S``'s
    breakpoints, and a point just before each jump of ``S``).  At each
    grid ``I`` two candidate sets are scanned: the candidate ``t`` values
    (branch 1), and ``t = ax - I`` for every arrival breakpoint, where
    ``A`` has jumped to its right value (branch 2).

    Where ``S`` is flat, one candidate per span and ``I`` suffices:
    ``A(t + I) - level`` is non-decreasing in ``t`` there.  So branch 1
    reads only the right-most candidate ``t`` of each flat span.  Branch
    2, when every span is flat and spans are fewer than half the arrival
    breakpoints, reads only the last arrival breakpoint landing in each
    span; otherwise scanning every breakpoint costs less.  Both branches
    then subtract the span's level from one ``A`` value per span, and
    since a float subtraction of the same level is monotone, the plan
    keeps the larger of the two.  Every span of a timed-token staircase
    is flat up to its affine tail.  The reduction holds bit for
    bit whenever ``A``'s own float evaluation is non-decreasing (checked
    once per plan), because every rounding step involved is monotone: the
    result is byte-identical to scanning every candidate.  Sloped spans
    (an affine tail, a rate-latency service), and every span when ``A``
    fails the check, scan all their candidates.

    Which side each approximation errs on, with ``d = 1e-9 * max(1, x)``
    the nudge before a jump of ``S`` at ``x`` (1 ns for ``x`` under a
    second):

    * Linear interpolation between grid points errs **high** (safe):
      every candidate is affine between adjacent grid points, so their
      supremum is convex there and lies on or below the chord.  The one
      exception is where ``t = ax - I`` crosses a jump of ``S``: the true
      ``O`` steps up just past that grid point, and the chord reaches the
      new level only at the grid point ``d`` later (from the nudged
      ``t``).  Inside that window of width ``d`` it errs **low**.
    * A grid of more than :data:`DECONVOLVE_MAX_CANDIDATES` points is
      thinned, and the result is the right-continuous staircase through
      each *next* sample, which dominates the non-decreasing ``O``: errs
      **high** (safe).  Busy intervals of many token rotations hit this
      often (40 % of the calls in a campus-churn run).
    * The left limit before a jump of ``S`` at ``x`` is read at
      ``x - d``: errs **low**.  Jumps of ``A`` inside that last ``d`` are
      caught by branch 2, so the shortfall is at most ``A``'s steepest
      slope times ``d``: under 0.1 bit for an arrival no steeper than
      100 Mb/s.

    Together, ``result(I) >= O(I - d) - d * (A's steepest slope)``: the
    result lags the true envelope by at most ``d`` in time.
    """
    if plans is None:
        plan = DeconvolutionPlan(
            arrival, service.xs, _flat_segments(service), t_limit
        )
    else:
        plan = plans.deconvolution(arrival, service, t_limit)
    return plan.apply(service)


class PlanCache:
    """The last few :class:`GridPlan` and :class:`DeconvolutionPlan` objects.

    The probes of one admission decision rerun Theorem 1 on the same
    arrival with another allocation ``H``; the staircase's breakpoints,
    its flat segments and (often) the busy interval repeat, so the plans
    do.  A grid plan is keyed by ``A``'s fingerprint and ``S``'s
    breakpoints, a deconvolution plan also by ``S``'s flat segments and
    ``t_limit``: keying on breakpoints rather than server parameters
    covers coarsened staircases and 802.5 rings alike.  Each kind keeps
    :data:`PLAN_CACHE_SIZE` plans.
    """

    __slots__ = ("_grids", "_deconvolutions")

    def __init__(self) -> None:
        self._grids = LRUCache(PLAN_CACHE_SIZE)
        self._deconvolutions = LRUCache(PLAN_CACHE_SIZE)

    def grid(self, arrival: Curve, service: Curve) -> GridPlan:
        key = (arrival.fingerprint(), service.xs.tobytes())
        plan = self._grids.get(key)
        if plan is None:
            plan = GridPlan(arrival, service.xs)
            self._grids.put(key, plan)
        return plan

    def deconvolution(
        self, arrival: Curve, service: Curve, t_limit: float
    ) -> DeconvolutionPlan:
        flat = _flat_segments(service)
        key = (arrival.fingerprint(), service.xs.tobytes(), flat.tobytes(), t_limit)
        plan = self._deconvolutions.get(key)
        if plan is None:
            plan = DeconvolutionPlan(arrival, service.xs, flat, t_limit)
            self._deconvolutions.put(key, plan)
        return plan

    def stats(self) -> Dict[str, float]:
        """Hits, misses, evictions and size over both kinds of plan."""
        grids = self._grids.stats()
        deconvolutions = self._deconvolutions.stats()
        out = {
            field: grids[field] + deconvolutions[field]
            for field in ("size", "maxsize", "hits", "misses", "evictions")
        }
        lookups = out["hits"] + out["misses"]
        out["hit_rate"] = out["hits"] / lookups if lookups else 0.0
        return out


def _count_below(axs: np.ndarray, cols: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``#{k : fl(axs[k] - I) < edge}`` for each edge (row) and ``I`` (column).

    ``searchsorted`` on ``edge + I`` rounds differently from ``ax - I``,
    and the candidate grid makes near-ties the rule, so each count is
    stepped until it agrees with the rounded subtraction (``fl(ax - I)``
    is non-decreasing in ``ax``, so that count is unique).
    """
    padded = np.concatenate([[-math.inf], axs, [math.inf]])
    count = np.searchsorted(axs, edges + cols)
    while True:
        up = padded[count + 1] - cols < edges
        down = padded[count] - cols >= edges
        if not (up.any() or down.any()):
            return count
        count += up
        count -= down
