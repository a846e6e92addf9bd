"""Pure-Python reference implementations of the envelope algebra.

Every function here recomputes, with per-segment Python loops and scalar
arithmetic, a quantity that the production code in
:mod:`repro.envelopes.curve` / :mod:`repro.envelopes.operations` computes
with vectorized numpy kernels.  They are a **correctness oracle**: the
property-based tests draw random curves and assert that the vectorized
kernels agree with these transparent implementations within
``MONOTONE_RTOL``.

They are deliberately *simple*, not fast: linear scans instead of binary
search, per-point loops instead of array expressions.  Do not call them
from production code.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from repro.envelopes.curve import EPS, Curve


def ref_eval(curve: Curve, t: float) -> float:
    """Right-continuous evaluation by linear scan over the segments."""
    if t < 0:
        return 0.0
    xs, ys, slopes = curve.xs, curve.ys, curve.slopes
    i = 0
    for k in range(len(xs)):
        if xs[k] <= t:
            i = k
        else:
            break
    return float(ys[i] + slopes[i] * (t - xs[i]))


def ref_left_limit(curve: Curve, t: float) -> float:
    """``lim_{s -> t^-} curve(s)`` by linear scan (0 for t <= 0)."""
    if t <= 0:
        return 0.0
    xs, ys, slopes = curve.xs, curve.ys, curve.slopes
    i = 0
    for k in range(len(xs)):
        if xs[k] < t:
            i = k
        else:
            break
    return float(ys[i] + slopes[i] * (t - xs[i]))


def ref_slope_at(curve: Curve, t: float) -> float:
    """Slope of the segment containing ``t`` (right-continuous)."""
    xs, slopes = curve.xs, curve.slopes
    i = 0
    for k in range(len(xs)):
        if xs[k] <= t:
            i = k
        else:
            break
    return float(slopes[i])


def _merged_grid(a: Curve, b: Curve) -> List[float]:
    return sorted({float(x) for x in a.xs} | {float(x) for x in b.xs})


def ref_add(a: Curve, b: Curve) -> Curve:
    """Pointwise sum over the merged breakpoint grid."""
    xs = _merged_grid(a, b)
    ys = [ref_eval(a, x) + ref_eval(b, x) for x in xs]
    slopes = [ref_slope_at(a, x) + ref_slope_at(b, x) for x in xs]
    return Curve(xs, ys, slopes, validate=False).simplify()


def ref_sum(curves: Iterable[Curve]) -> Curve:
    """N-ary sum as a pairwise fold of :func:`ref_add`."""
    total = Curve.zero()
    for c in curves:
        total = ref_add(total, c)
    return total


def ref_shift_right(curve: Curve, delay: float) -> Curve:
    """``result(t) = curve(t - delay)`` (zero before the shift)."""
    if delay < 0:
        raise ValueError("delay must be non-negative")
    if delay == 0:
        return curve
    xs = [0.0] + [float(x) + delay for x in curve.xs]
    ys = [0.0] + [float(y) for y in curve.ys]
    slopes = [0.0] + [float(s) for s in curve.slopes]
    return Curve(xs, ys, slopes, validate=False)


def ref_shift_left(curve: Curve, advance: float) -> Curve:
    """``result(t) = curve(t + advance)``."""
    if advance < 0:
        raise ValueError("advance must be non-negative")
    if advance == 0:
        return curve
    xs = [0.0]
    ys = [ref_eval(curve, advance)]
    slopes = [ref_slope_at(curve, advance)]
    for x, y, s in zip(curve.xs, curve.ys, curve.slopes):
        if x > advance:
            xs.append(float(x) - advance)
            ys.append(float(y))
            slopes.append(float(s))
    return Curve(xs, ys, slopes, validate=False)


def _ref_combine(a: Curve, b: Curve, use_min: bool) -> Curve:
    """Pointwise min/max with crossing points, one segment at a time."""
    base = _merged_grid(a, b)
    xs = list(base)
    for i, x in enumerate(base):
        seg_end = base[i + 1] if i + 1 < len(base) else math.inf
        va, vb = ref_eval(a, x), ref_eval(b, x)
        sa, sb = ref_slope_at(a, x), ref_slope_at(b, x)
        dslope = sa - sb
        if abs(dslope) < EPS:
            continue
        t_cross = -(va - vb) / dslope
        x_cross = x + t_cross
        if t_cross > EPS and x_cross < seg_end - EPS:
            xs.append(x_cross)
    xs = sorted(set(xs))
    ys = []
    slopes = []
    for x in xs:
        va, vb = ref_eval(a, x), ref_eval(b, x)
        sa, sb = ref_slope_at(a, x), ref_slope_at(b, x)
        ys.append(min(va, vb) if use_min else max(va, vb))
        if abs(va - vb) <= 1e-12 * max(1.0, abs(va)):
            slopes.append(min(sa, sb) if use_min else max(sa, sb))
        elif (va < vb) == use_min:
            slopes.append(sa)
        else:
            slopes.append(sb)
    return Curve(xs, ys, slopes, validate=False).simplify()


def ref_minimum(a: Curve, b: Curve) -> Curve:
    return _ref_combine(a, b, use_min=True)


def ref_maximum(a: Curve, b: Curve) -> Curve:
    return _ref_combine(a, b, use_min=False)


def ref_pseudo_inverse(curve: Curve, y: float) -> float:
    """``inf { t >= 0 : curve(t) >= y }`` by scanning segments in order."""
    xs, ys, slopes = curve.xs, curve.ys, curve.slopes
    n = len(xs)
    if y <= ys[0]:
        return 0.0
    for i in range(n):
        seg_end = float(xs[i + 1]) if i + 1 < n else math.inf
        if y <= ys[i]:
            # The jump at breakpoint i reaches y.
            return float(xs[i])
        if slopes[i] > EPS:
            t = float(xs[i]) + (y - float(ys[i])) / float(slopes[i])
            if t <= seg_end:
                return t
    return math.inf


def ref_busy_interval(arrival: Curve, service: Curve) -> float:
    """Sequential scan for ``min { t > 0 : A(t) <= S(t) }``."""
    grid = _merged_grid(arrival, service)
    prev_x = None
    prev_diff = None
    for x in grid:
        a_val = ref_eval(arrival, x)
        diff = a_val - ref_eval(service, x)
        tol = 1e-9 * max(1.0, abs(a_val))
        if x > 0 and diff <= tol:
            if prev_x is not None and prev_diff is not None and prev_diff > tol:
                dslope = ref_slope_at(arrival, prev_x) - ref_slope_at(service, prev_x)
                if dslope < -EPS:
                    t_cross = prev_x - prev_diff / dslope
                    if t_cross < x - EPS:
                        return float(t_cross)
            return float(x)
        prev_x, prev_diff = x, diff
    x0 = grid[-1]
    a0 = ref_eval(arrival, x0)
    diff0 = a0 - ref_eval(service, x0)
    if diff0 <= 1e-9 * max(1.0, abs(a0)):
        return x0 if x0 > 0 else 0.0
    dslope = arrival.final_slope - service.final_slope
    if dslope >= -EPS:
        return math.inf
    return float(x0 - diff0 / dslope)


def ref_vertical_deviation(
    arrival: Curve, service: Curve, t_max: float = math.inf
) -> float:
    """``sup_{0 < t <= t_max} [A(t) - S(t)]`` over breakpoints + left limits."""
    grid = [x for x in _merged_grid(arrival, service) if x <= t_max] or [0.0]
    best = 0.0
    for x in grid:
        best = max(best, ref_eval(arrival, x) - ref_eval(service, x))
        best = max(best, ref_left_limit(arrival, x) - ref_left_limit(service, x))
    if math.isfinite(t_max):
        return max(best, ref_eval(arrival, t_max) - ref_eval(service, t_max))
    if arrival.final_slope > service.final_slope + EPS:
        return math.inf
    return best


def ref_horizontal_deviation(
    arrival: Curve, service: Curve, t_max: float = math.inf
) -> float:
    """``sup_t min { d >= 0 : S(t + d) >= A(t) }`` via per-candidate scans."""
    if math.isinf(t_max) and arrival.final_slope > service.final_slope + EPS:
        return math.inf
    levels = [float(y) for y in service.ys]
    levels += [ref_left_limit(service, float(x)) for x in service.xs[1:]]
    cands = [float(x) for x in arrival.xs]
    for level in levels:
        t = ref_pseudo_inverse(arrival, level)
        if math.isfinite(t):
            cands.append(t)
    cands += [c + 1e-9 * max(1.0, c) for c in cands]
    if math.isfinite(t_max):
        cands = [c for c in cands if c <= t_max + EPS]
        cands.append(float(t_max))
    cands = [c for c in cands if c >= 0.0]
    if not cands:
        return 0.0
    best = 0.0
    for t in cands:
        s_time = ref_pseudo_inverse(service, ref_eval(arrival, t))
        if math.isinf(s_time):
            return math.inf
        best = max(best, s_time - t)
    return max(best, 0.0)


def ref_deconvolve(arrival: Curve, service: Curve, t_limit: float) -> Curve:
    """``O(I) = sup_{0 <= t <= t_limit} [A(t + I) - S(t)]`` by nested loops."""
    if not math.isfinite(t_limit):
        raise ValueError("deconvolution needs a finite busy interval")
    t_limit = max(0.0, t_limit)
    i_max = arrival.last_breakpoint + t_limit + EPS

    t_cands = {0.0, t_limit}
    for x in list(service.xs) + [t_limit]:
        x = float(x)
        if 0.0 < x < t_limit:
            t_cands.add(x)
        if 0.0 < x <= t_limit:
            t_cands.add(max(0.0, x - 1e-9 * max(1.0, x)))
    t_sorted = sorted(t_cands)

    i_cands = {0.0, float(i_max)}
    for ax in arrival.xs:
        ax = float(ax)
        for t in t_sorted:
            d = ax - t
            if 0.0 < d < i_max:
                i_cands.add(d)
        if 0.0 < ax < i_max:
            i_cands.add(ax)
    i_grid = sorted(i_cands)

    values = []
    running = -math.inf
    for big_i in i_grid:
        best = -math.inf
        for t in t_sorted:
            best = max(best, ref_eval(arrival, t + big_i) - ref_eval(service, t))
        for ax in arrival.xs:
            t = float(ax) - big_i
            if 0.0 <= t <= t_limit:
                best = max(best, ref_eval(arrival, float(ax)) - ref_eval(service, t))
        running = max(running, best)
        values.append(running)
    points: Sequence[Tuple[float, float]] = list(zip(i_grid, values))
    return Curve.from_points(points, final_slope=arrival.final_slope).simplify()


def flat_span_staircase(curve: Curve, max_segments: int) -> Curve:
    """A curve below ``curve`` whose spans are flat and irregular.

    Keeps an evenly spread subset of at most ``max_segments`` breakpoints
    (the indices ``numpy.linspace`` rounds to), holds each span at the
    curve's right value at the span's start, and ends on the curve's own
    final segment.  On a timed-token staircase it gives the uneven flat
    spans ``deconvolve``'s per-span path reads, and as a stand-in for
    ``Curve.coarsen`` it is a tidy that rounds the wrong way.
    """
    n = len(curve.xs)
    if n <= max_segments:
        return curve
    step = (n - 1) / (max_segments - 1)
    idx = sorted({int(k * step) for k in range(max_segments - 1)} | {n - 1})
    slopes = [0.0] * len(idx)
    slopes[-1] = float(curve.slopes[idx[-1]])
    return Curve(
        [float(curve.xs[i]) for i in idx],
        [float(curve.ys[i]) for i in idx],
        slopes,
    ).simplify(tol=0.0)
