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
from typing import Tuple

import numpy as np

from repro.envelopes.curve import EPS, Curve, _left_limits_at, _slopes_at


class FifoBounds:
    """Busy interval and backlog of ``A`` against ``S`` from one grid.

    ``union1d(A.xs, S.xs)`` is built, and ``A`` and ``A - S`` evaluated
    on it, once.  :attr:`busy` (what :func:`busy_interval` returns) is
    read from that grid on construction; :meth:`backlog` reads the
    backlog within the busy interval from the same arrays, only when a
    caller needs it, through the body :func:`vertical_deviation` runs.
    It is bit for bit ``vertical_deviation(A, S, t_max=B)``: every value
    is the same elementwise expression on the same grid point.

    The catch-up test ``A - S <= 1e-9 * max(1, A)`` at a breakpoint errs
    **low**: ``B`` may end while ``A`` still exceeds ``S`` by less than
    that (a thousandth of a bit at a megabit), and the backlog and delay
    are then taken over the shorter window.  Only breakpoints are
    tested, so a catch-up inside a segment that ends in a jump of ``A``
    (both differences above the tolerance) is missed and ``B`` errs
    **high** there, which widens every later supremum (safe).
    """

    __slots__ = ("arrival", "service", "xs", "diff", "busy")

    def __init__(self, arrival: Curve, service: Curve) -> None:
        self.arrival = arrival
        self.service = service
        xs = np.union1d(arrival.xs, service.xs)
        a_vals = arrival(xs)
        diff = a_vals - service(xs)
        self.xs = xs
        self.diff = diff
        self.busy = _first_catch_up(arrival, service, xs, a_vals, diff)

    def backlog(self) -> float:
        """``sup_{0 < t <= B} [A(t) - S(t)]``: the worst-case backlog.

        With ``B = inf`` (the unstable case) this is the supremum over
        every ``t``, which is ``+inf`` when ``A``'s final slope exceeds
        ``S``'s.
        """
        cut = int(np.searchsorted(self.xs, self.busy, side="right"))
        return _backlog(
            self.arrival, self.service, self.xs[:cut], self.diff[:cut], self.busy
        )


def _first_catch_up(
    arrival: Curve,
    service: Curve,
    xs: np.ndarray,
    a_vals: np.ndarray,
    diff: np.ndarray,
) -> float:
    """:attr:`FifoBounds.busy` from the merged grid's values."""
    tol = 1e-9 * np.maximum(1.0, np.abs(a_vals))
    hits = (xs > 0) & (diff <= tol)
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
    xs = np.union1d(arrival.xs, service.xs)
    xs = xs[xs <= t_max]
    return _backlog(arrival, service, xs, arrival(xs) - service(xs), t_max)


def _backlog(
    arrival: Curve,
    service: Curve,
    xs: np.ndarray,
    diff: np.ndarray,
    t_max: float,
) -> float:
    """:func:`vertical_deviation` from the merged grid cut at ``t_max``
    and its ``A - S`` values."""
    if len(xs) == 0:
        xs = np.asarray([0.0])
        diff = arrival(xs) - service(xs)
    # Right values at the breakpoints, and left limits (a jump *down* in
    # A - S happens when S jumps, so the supremum may sit just before a
    # breakpoint).
    right = np.max(diff)
    left = np.max(_left_limits_at(arrival, xs) - _left_limits_at(service, xs))
    best = max(0.0, float(right), float(left))
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


def deconvolve(arrival: Curve, service: Curve, t_limit: float) -> Curve:
    """Output envelope ``O(I) = sup_{0 <= t <= t_limit} [A(t + I) - S(t)]``.

    ``t_limit`` should be the server's busy interval ``B`` (Theorem 1(4)
    restricts the supremum to the busy interval).  Past ``I_max =
    A.last_breakpoint + t_limit`` every ``A(t + I)`` is affine in ``I``,
    so the result continues there with ``A``'s final slope.

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
    span; otherwise scanning every breakpoint costs less.  Every span of
    a timed-token staircase is flat up to its affine tail, also after
    ``Curve.coarsen(direction="lower")``.  The reduction holds bit for
    bit whenever ``A``'s own float evaluation is non-decreasing (checked
    once per call), because every rounding step involved is monotone: the
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
    if not math.isfinite(t_limit):
        raise ValueError("deconvolution needs a finite busy interval")
    t_limit = max(0.0, t_limit)
    i_max = arrival.last_breakpoint + t_limit + EPS

    # Candidate t values (within [0, t_limit]): breakpoints of S, and a
    # nudge before each jump of S, where S is still at its left limit.
    inner = service.xs[(service.xs > 0.0) & (service.xs < t_limit)]
    nudge_src = np.concatenate([service.xs, [t_limit]])
    nudge_src = nudge_src[(nudge_src > 0.0) & (nudge_src <= t_limit)]
    nudged = np.maximum(0.0, nudge_src - 1e-9 * np.maximum(1.0, nudge_src))
    t_base = np.unique(np.concatenate([[0.0, t_limit], inner, nudged]))

    # Candidate I grid: pairwise differences ax - t, plus the arrival
    # breakpoints themselves, clipped to (0, i_max).
    diffs = (arrival.xs[:, None] - t_base[None, :]).ravel()
    diffs = diffs[(diffs > 0.0) & (diffs < i_max)]
    ax_inner = arrival.xs[(arrival.xs > 0.0) & (arrival.xs < i_max)]
    i_arr = np.unique(np.concatenate([[0.0, float(i_max)], diffs, ax_inner]))
    thinned = len(i_arr) > DECONVOLVE_MAX_CANDIDATES
    if thinned:
        # Thin the grid but always keep the endpoints.  With step > 1 the
        # picks rise strictly from 0 and stay below the last index.
        step = len(i_arr) / float(DECONVOLVE_MAX_CANDIDATES)
        picks = (np.arange(DECONVOLVE_MAX_CANDIDATES) * step).astype(np.intp)
        i_arr = i_arr[np.append(picks, len(i_arr) - 1)]

    axs, ays, aslopes = arrival.xs, arrival.ys, arrival.slopes
    sxs, sys_, sslopes = service.xs, service.ys, service.slopes
    # Spans of S meeting [0, t_limit]: span j holds the t that S evaluates
    # on its segment j, i.e. [edges[j], edges[j + 1]).  The top edge is the
    # float after t_limit, so the last span is closed at t_limit.
    n_spans = max(1, int(np.searchsorted(sxs, t_limit, side="right")))
    edges = np.concatenate(
        [[0.0], sxs[1:n_spans], [np.nextafter(t_limit, math.inf)]]
    )
    levels = service(edges[:-1])
    # A's float evaluation is non-decreasing iff no segment's rounded
    # left limit exceeds the next breakpoint's value.
    a_left = ays[:-1] + aslopes[:-1] * (axs[1:] - axs[:-1])
    monotone = bool(np.all(aslopes >= 0.0) and np.all(a_left <= ays[1:]))
    # reprolint: disable=RL003 -- only an exactly zero slope keeps S's value bit-identical across a span
    flat = (sslopes[:n_spans] == 0.0) & monotone

    # Branch 1 candidates: the right-most t of each flat span, every t of
    # a sloped one.
    t_span = np.searchsorted(sxs, t_base, side="right") - 1
    np.maximum(t_span, 0, out=t_span)
    last = np.append(t_span[1:] != t_span[:-1], True)
    t_sel = t_base[last | ~flat[t_span]]
    s_sel = service(t_sel)
    # Branch 2 reads one breakpoint per span when every span is flat and
    # counting them is cheaper than scanning every arrival breakpoint.
    per_span = bool(flat.all()) and _SPAN_COST * n_spans < len(axs)

    # Matrices hold one candidate per row and one I per column, so each
    # column maximum runs over a few long rows.  Every temporary stays
    # within the chunk budget, and a maximum is order-independent, so
    # neither the layout nor the chunking can change a bit.
    height = max(len(t_sel), n_spans + 1 if per_span else len(axs))
    chunk = max(1, _CHUNK_ELEMENTS // height)
    values = np.empty(len(i_arr))
    for lo in range(0, len(i_arr), chunk):
        cols = i_arr[None, lo:lo + chunk]
        # Branch 1, with A evaluated inline (every point is >= 0, so
        # ``__call__``'s negative-t clamp is a no-op).
        pts = t_sel[:, None] + cols
        idx = np.searchsorted(axs, pts, side="right") - 1
        np.maximum(idx, 0, out=idx)
        a_vals = ays[idx] + aslopes[idx] * (pts - axs[idx])
        best = np.max(a_vals - s_sel[:, None], axis=0)
        if per_span:
            # The last arrival breakpoint with ax - I inside each span.
            below = _count_below(axs, cols, edges[:, None])
            hit = below[1:] > below[:-1]
            cands = np.where(hit, ays[below[1:] - 1] - levels[:, None], -math.inf)
        else:
            # Every arrival breakpoint with ax - I in [0, t_limit], with S
            # evaluated inline as ``__call__`` does.
            t_mat = axs[:, None] - cols
            t_idx = np.searchsorted(sxs, t_mat, side="right") - 1
            np.maximum(t_idx, 0, out=t_idx)
            s_vals = sys_[t_idx] + sslopes[t_idx] * (t_mat - sxs[t_idx])
            valid = (t_mat >= 0.0) & (t_mat <= t_limit)
            cands = np.where(valid, ays[:, None] - s_vals, -math.inf)
        np.maximum(best, np.max(cands, axis=0), out=best)
        values[lo:lo + chunk] = best

    # O is non-decreasing in I; enforce against numerical noise.
    values = np.maximum.accumulate(values)

    if thinned:
        # Linear interpolation between thinned samples could undercut the
        # true (non-decreasing) function; a right-continuous staircase
        # through the *next* sample dominates it everywhere.
        ys = np.concatenate([values[1:], values[-1:]])
        slopes = np.concatenate(
            [np.zeros(len(i_arr) - 1), [arrival.final_slope]]
        )
        return Curve(i_arr, ys, slopes, validate=False).simplify()

    out = Curve.from_breakpoints(i_arr, values, final_slope=arrival.final_slope)
    return out.simplify()


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
