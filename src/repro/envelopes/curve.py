"""The :class:`Curve` class: non-decreasing piecewise-linear curves.

A curve is defined on ``[0, +inf)`` by a finite list of segments.  Segment
``i`` starts at ``x[i]`` with value ``y[i]`` and slope ``slope[i]``; it ends
where segment ``i + 1`` begins, and the final segment extends to infinity.
Jump discontinuities are allowed (``y[i+1]`` may exceed the left limit of
segment ``i``), and curves are *right-continuous*: ``curve(x[i]) == y[i]``.

This representation is closed under every operation the delay analysis
needs: addition, scalar multiplication, pointwise min/max, and time shifts
all produce curves of the same class, computed exactly (no sampling grid).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import CurveError

#: Relative/absolute tolerance used when comparing coordinates.
EPS = 1e-12

#: Relative tolerance for the monotonicity check at segment boundaries —
#: looser than EPS because left limits accumulate one multiply-add of error.
MONOTONE_RTOL = 1e-6


def _is_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Curve:
    """A non-decreasing, right-continuous piecewise-linear curve on [0, inf).

    Parameters
    ----------
    xs, ys, slopes:
        Parallel sequences describing the segments.  ``xs`` must be strictly
        increasing and start at 0; ``slopes`` must be non-negative; the curve
        must be non-decreasing across segment boundaries (jumps may only go
        up).

    Notes
    -----
    Instances are immutable; all operations return new curves.
    """

    __slots__ = ("xs", "ys", "slopes", "_lists", "_fingerprint", "_simplified_tol")

    def __init__(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        slopes: Sequence[float],
        validate: bool = True,
    ) -> None:
        xs_arr = np.asarray(xs, dtype=float)
        ys_arr = np.asarray(ys, dtype=float)
        slopes_arr = np.asarray(slopes, dtype=float)
        if validate:
            if not (len(xs_arr) == len(ys_arr) == len(slopes_arr)):
                raise CurveError("xs, ys and slopes must have equal length")
            if len(xs_arr) == 0:
                raise CurveError("a curve needs at least one segment")
            if abs(xs_arr[0]) > EPS:
                raise CurveError(f"first breakpoint must be at x=0, got {xs_arr[0]}")
            if np.any(np.diff(xs_arr) <= 0):
                raise CurveError("breakpoints must be strictly increasing")
            if np.any(slopes_arr < -EPS):
                raise CurveError("slopes must be non-negative for envelopes")
            # Non-decreasing across boundaries: y[i+1] >= left limit.
            if len(xs_arr) > 1:
                left_limits = ys_arr[:-1] + slopes_arr[:-1] * np.diff(xs_arr)
                if np.any(
                    ys_arr[1:]
                    < left_limits
                    - MONOTONE_RTOL * np.maximum(1.0, np.abs(left_limits))
                ):
                    raise CurveError("curve must be non-decreasing (downward jump found)")
        self.xs = xs_arr
        self.ys = ys_arr
        self.slopes = slopes_arr
        # Scalar-evaluation fast path: plain Python lists, materialized on
        # first scalar use (bisect + float arithmetic beats numpy indexing
        # for single points, and intermediate curves never pay for it).
        self._lists = None
        self._fingerprint = None
        # The largest ``tol`` at which ``simplify`` returned this curve.
        self._simplified_tol = -math.inf

    def _as_lists(self) -> Tuple[List[float], List[float], List[float]]:
        lists = self._lists
        if lists is None:
            lists = (self.xs.tolist(), self.ys.tolist(), self.slopes.tolist())
            self._lists = lists
        return lists

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def zero() -> "Curve":
        """The identically-zero curve."""
        return Curve([0.0], [0.0], [0.0], validate=False)

    @staticmethod
    def constant(value: float) -> "Curve":
        """A constant curve (jump to ``value`` at t=0)."""
        if value < 0:
            raise CurveError("constant envelope must be non-negative")
        return Curve([0.0], [value], [0.0], validate=False)

    @staticmethod
    def affine(burst: float, rate: float) -> "Curve":
        """The token-bucket curve ``burst + rate * t``.

        With ``burst=0`` this is the pure rate line ``rate * t`` — the
        service curve of a constant-rate link.
        """
        if burst < 0 or rate < 0:
            raise CurveError("affine curve needs non-negative burst and rate")
        return Curve([0.0], [burst], [rate], validate=False)

    @staticmethod
    def rate_latency(rate: float, latency: float) -> "Curve":
        """The rate-latency service curve ``max(0, rate * (t - latency))``."""
        if rate < 0 or latency < 0:
            raise CurveError("rate-latency curve needs non-negative parameters")
        if latency == 0:
            return Curve.affine(0.0, rate)
        return Curve([0.0, latency], [0.0, 0.0], [0.0, rate], validate=False)

    @staticmethod
    def from_points(
        points: Sequence[Tuple[float, float]], final_slope: float
    ) -> "Curve":
        """Build a continuous curve through ``points`` (sorted by x).

        ``points`` are ``(x, y)`` pairs; consecutive points are joined by
        straight segments and the curve continues past the last point with
        ``final_slope``.  The first point must have ``x == 0``.
        """
        if not points:
            raise CurveError("need at least one point")
        xs = np.asarray([p[0] for p in points], dtype=float)
        ys = np.asarray([p[1] for p in points], dtype=float)
        return Curve.from_breakpoints(xs, ys, final_slope)

    @staticmethod
    def from_breakpoints(
        xs: np.ndarray, ys: np.ndarray, final_slope: float
    ) -> "Curve":
        """Vectorized :meth:`from_points` over parallel coordinate arrays.

        Interior slopes are the divided differences ``(y[i+1] - y[i]) /
        (x[i+1] - x[i])``; the final segment continues with ``final_slope``.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if len(xs) == 0:
            raise CurveError("need at least one point")
        slopes = np.empty_like(xs)
        if len(xs) > 1:
            dx = np.diff(xs)
            if np.any(dx <= 0):
                raise CurveError("points must have strictly increasing x")
            slopes[:-1] = np.diff(ys) / dx
        slopes[-1] = float(final_slope)
        return Curve(xs, ys, slopes)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def __call__(self, t):
        """Evaluate the curve at ``t`` (scalar or array), right-continuously."""
        if isinstance(t, (int, float)):
            if t < 0:
                return 0.0
            xs, ys, slopes = self._as_lists()
            i = bisect_right(xs, t) - 1
            if i < 0:
                i = 0
            return ys[i] + slopes[i] * (t - xs[i])
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.xs, t_arr, side="right") - 1
        # searchsorted lands in [-1, n-1]; only the lower bound needs a clamp.
        np.maximum(idx, 0, out=idx)
        vals = self.ys[idx] + self.slopes[idx] * (t_arr - self.xs[idx])
        # For t < 0 the curve is 0 by convention.
        vals = np.where(t_arr < 0, 0.0, vals)
        if t_arr.ndim == 0:
            return float(vals)
        return vals

    def value(self, t: float) -> float:
        """Scalar evaluation (alias of ``__call__`` for readability)."""
        return float(self(t))

    def left_limit(self, t: float) -> float:
        """The left limit ``lim_{s -> t^-} curve(s)`` (0 at t <= 0).

        At a breakpoint ``t == xs[i+1]`` the ``side="left"`` bisection lands
        on segment ``i``, so the value comes from the segment *before* the
        jump — exactly the left limit.
        """
        if t <= 0:
            return 0.0
        xs, ys, slopes = self._as_lists()
        i = bisect_left(xs, t) - 1
        if i < 0:
            return 0.0
        return ys[i] + slopes[i] * (t - xs[i])

    @property
    def final_slope(self) -> float:
        """Slope of the last (infinite) segment — the long-term rate."""
        return float(self.slopes[-1])

    @property
    def last_breakpoint(self) -> float:
        """x-coordinate of the last breakpoint."""
        return float(self.xs[-1])

    def breakpoints(self) -> np.ndarray:
        """The x-coordinates of all breakpoints.

        Returns the curve's own contiguous float64 array *without copying*
        (the hot kernels share these arrays freely).  Treat it as
        read-only: in-place mutation would corrupt the immutable curve and
        every cache holding it.  reprolint RL004 flags mutation of names
        bound from this call.
        """
        return self.xs

    def fingerprint(self) -> int:
        """A content hash, used for memoizing analyses keyed by envelope."""
        if self._fingerprint is None:
            self._fingerprint = hash(
                (self.xs.tobytes(), self.ys.tobytes(), self.slopes.tobytes())
            )
        return self._fingerprint

    def pseudo_inverse(self, y: float) -> float:
        """``inf { t >= 0 : curve(t) >= y }`` — the first time ``y`` is reached.

        Returns ``math.inf`` when the curve never reaches ``y``.  Because the
        curve is non-decreasing, the first segment whose span covers ``y``
        can be found by binary search on the breakpoint values.  Scalar fast
        path of :meth:`pseudo_inverse_many` (same arithmetic, no arrays).
        """
        xs, ys, slopes = self._as_lists()
        if y <= ys[0]:
            return 0.0
        n = len(xs)
        # i0 = index of the first breakpoint whose (right) value >= y; here
        # i0 >= 1 because y > ys[0].
        i0 = bisect_left(ys, y)
        # Default answer: the jump at breakpoint i0 (or inf past the end).
        out = xs[i0] if i0 < n else math.inf
        # Segment j = i0 - 1 may climb to y before breakpoint i0.
        j = i0 - 1
        slope_j = slopes[j]
        if slope_j > EPS:
            t_seg = xs[j] + (y - ys[j]) / slope_j
            seg_end = xs[j + 1] if j + 1 < n else math.inf
            if t_seg <= seg_end:
                return t_seg
        return out

    def pseudo_inverse_many(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`pseudo_inverse` for an array of values."""
        values = np.asarray(values, dtype=float)
        n = len(self.xs)
        # i0 = index of the first breakpoint whose (right) value >= y.
        i0 = np.searchsorted(self.ys, values, side="left")
        # Default answer: the jump at breakpoint i0 (or inf past the end).
        out = np.where(i0 < n, self.xs[np.minimum(i0, n - 1)], math.inf)
        # Segment j = i0 - 1 may climb to y before breakpoint i0.
        j = np.maximum(i0 - 1, 0)
        slope_j = self.slopes[j]
        safe_slope = np.where(slope_j > EPS, slope_j, 1.0)
        t_seg = self.xs[j] + (values - self.ys[j]) / safe_slope
        seg_end = np.append(self.xs[1:], math.inf)[j]
        use_seg = (i0 >= 1) & (slope_j > EPS) & (t_seg <= seg_end)
        out = np.where(use_seg, t_seg, out)
        out = np.where((i0 == 0) | (values <= self.ys[0]), 0.0, out)
        return out

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _merged_xs(self, other: "Curve") -> np.ndarray:
        xs = np.union1d(self.xs, other.xs)
        return xs

    def __add__(self, other) -> "Curve":
        if isinstance(other, (int, float)):
            return Curve(self.xs, self.ys + float(other), self.slopes, validate=False)
        if not isinstance(other, Curve):
            return NotImplemented
        xs = self._merged_xs(other)
        ys = self(xs) + other(xs)
        slopes = _slopes_at(self, xs) + _slopes_at(other, xs)
        return Curve(xs, ys, slopes, validate=False).simplify()

    __radd__ = __add__

    def __mul__(self, factor) -> "Curve":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        if factor < 0:
            raise CurveError("cannot scale an envelope by a negative factor")
        return Curve(self.xs, self.ys * float(factor), self.slopes * float(factor), validate=False)

    __rmul__ = __mul__

    def shift_right(self, delay: float) -> "Curve":
        """Delay the curve by ``delay``: result(t) = curve(t - delay).

        Used for constant-delay servers: the output envelope of a pure delay
        element is the input envelope (traffic shape is unchanged), but the
        *service curve* of the chain shifts.  Also used to advance envelopes
        by a known delay bound.
        """
        if delay < 0:
            raise CurveError("delay must be non-negative")
        if delay == 0:
            return self
        xs = np.concatenate([[0.0], self.xs + delay])
        ys = np.concatenate([[0.0], self.ys])
        slopes = np.concatenate([[0.0], self.slopes])
        return Curve(xs, ys, slopes, validate=False)

    def shift_left(self, advance: float) -> "Curve":
        """Advance the curve: result(t) = curve(t + advance).

        The standard output-envelope bound of a FIFO server with delay bound
        ``d`` is the input envelope advanced by ``d`` (a bit that left by
        time ``t`` arrived no later than ``t``, and no earlier than
        ``t - d``).
        """
        if advance < 0:
            raise CurveError("advance must be non-negative")
        if advance == 0:
            return self
        # New value at t is old value at t + advance.
        keep = self.xs > advance
        xs = np.concatenate([[0.0], self.xs[keep] - advance])
        first_val = self(advance)
        ys = np.concatenate([[first_val], self.ys[keep]])
        # Slope at t=0 of the new curve is the slope of the segment containing
        # `advance` in the old curve.
        i = bisect_right(self._as_lists()[0], advance) - 1
        slopes = np.concatenate([[self.slopes[i]], self.slopes[keep]])
        return Curve(xs, ys, slopes, validate=False)

    # ------------------------------------------------------------------
    # Pointwise min / max
    # ------------------------------------------------------------------

    def minimum(self, other: "Curve") -> "Curve":
        """Pointwise minimum of two curves (exact, with crossing points)."""
        return _combine(self, other, min)

    def maximum(self, other: "Curve") -> "Curve":
        """Pointwise maximum of two curves (exact, with crossing points)."""
        return _combine(self, other, max)

    def cap(self, rate: float) -> "Curve":
        """``min(curve, rate * t)``: the envelope after a link of ``rate``.

        Bit for bit ``self.minimum(Curve.affine(0.0, rate))`` (for a curve
        whose first breakpoint is exactly 0, as every constructor writes),
        in linear time: the line adds no breakpoint of its own, so the
        merged grid is the curve's, and each crossing lands inside one
        known segment.  Every value and slope is the expression
        :func:`_combine` evaluates at the same point.

        Which side each tolerance errs on:

        * A crossing within ``EPS`` of its segment's ends is dropped.  At
          a dropped crossing the result follows whichever curve is lower
          at the segment's start, which is the steeper one and ends up
          above the other: errs **high** (safe for an arrival envelope).
        * Values within ``1e-12 * max(1, value)`` count as equal, and the
          result then takes the lower slope from the lower value.  That
          line lies under both curves, so it errs **low**, by at most the
          gap between the values.
        """
        if rate < 0:
            raise CurveError("cap rate must be non-negative")
        xs, ys, slopes = self.xs, self.ys, self.slopes
        # The curve's and the line's values at each breakpoint, as
        # ``__call__`` computes them there.
        va = ys + slopes * 0.0
        vb = 0.0 + rate * xs
        dslope = slopes - rate
        crossing = np.abs(dslope) >= EPS
        t_cross = -(va - vb) / np.where(crossing, dslope, 1.0)
        x_cross = xs + t_cross
        seg_end = np.append(xs[1:], math.inf)
        valid = crossing & (t_cross > EPS) & (x_cross < seg_end - EPS)
        # A crossing rounded onto its segment's start is that breakpoint.
        valid &= x_cross != xs
        if valid.any():
            # Segment index of every point, each crossing right after the
            # breakpoint that starts its segment.
            seg = np.repeat(np.arange(len(xs)), valid + 1)
            is_cross = np.append(False, seg[1:] == seg[:-1])
            xs_all = np.where(is_cross, x_cross[seg], xs[seg])
            slopes_a = slopes[seg]
            vals_a = ys[seg] + slopes_a * (xs_all - xs[seg])
            vals_b = 0.0 + rate * xs_all
        else:
            xs_all, slopes_a, vals_a, vals_b = xs, slopes, va, vb
        out_ys = np.minimum(vals_a, vals_b)
        pick_a = vals_a <= vals_b
        # At a point where the curves are equal, look ahead via slopes.
        equal = np.abs(vals_a - vals_b) <= 1e-12 * np.maximum(1.0, np.abs(vals_a))
        out_slopes = np.where(pick_a, slopes_a, rate)
        out_slopes = np.where(equal, np.minimum(slopes_a, rate), out_slopes)
        return Curve(xs_all, out_ys, out_slopes, validate=False).simplify()

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def simplify(self, tol: float = 1e-9) -> "Curve":
        """Merge consecutive collinear segments (no continuity jumps).

        A breakpoint is dropped when it sits exactly on its predecessor's
        line with the same slope; collinearity is transitive along a chain,
        so the pairwise vectorized test matches the sequential sweep.

        A curve remembers the largest ``tol`` at which it came back
        unchanged and returns itself at once for any ``tol`` at or below
        it: both tests only tighten as ``tol`` falls, so that answer is
        exact.
        """
        if len(self.xs) <= 1 or tol <= self._simplified_tol:
            return self
        dx = np.diff(self.xs)
        pred_y = self.ys[:-1] + self.slopes[:-1] * dx
        scale_y = np.maximum(1.0, np.maximum(np.abs(pred_y), np.abs(self.ys[1:])))
        scale_s = np.maximum(
            1.0, np.maximum(np.abs(self.slopes[:-1]), np.abs(self.slopes[1:]))
        )
        same = (np.abs(pred_y - self.ys[1:]) <= tol * scale_y) & (
            np.abs(self.slopes[:-1] - self.slopes[1:]) <= tol * scale_s
        )
        keep = np.concatenate([[True], ~same])
        if keep.all():
            self._simplified_tol = tol
            return self
        return Curve(
            self.xs[keep], self.ys[keep], self.slopes[keep], validate=False
        )

    def coarsen(self, max_segments: int) -> "Curve":
        """Return a *conservative approximation* with at most ``max_segments``.

        Used to keep arrival envelopes' breakpoint counts bounded when they
        accumulate structure across many servers.  The result dominates the
        original everywhere, so admitted traffic is over-estimated and
        downstream delay bounds remain valid (only more pessimistic).

        It keeps an evenly-spread subset of breakpoints and replaces each
        inter-breakpoint span by a constant: the original's supremum over
        the span (its left limit at the next kept breakpoint).  From the
        last kept breakpoint onwards the coarse curve equals the original
        exactly, so the long-term rate — and with it every stability check
        — is preserved.
        """
        if len(self.xs) <= max_segments:
            return self
        idx = np.unique(np.linspace(0, len(self.xs) - 1, max_segments).astype(int))
        new_xs = self.xs[idx]
        new_slopes = np.zeros(len(idx))
        new_slopes[-1] = self.slopes[idx[-1]]
        new_ys = np.empty(len(idx))
        new_ys[:-1] = _left_limits_at(self, self.xs[idx[1:]])
        new_ys[-1] = self.ys[idx[-1]]
        ys_arr = np.maximum.accumulate(new_ys)
        # Merge only *exactly* collinear breakpoints (tol=0): a tolerant
        # simplify may absorb the final segment's small positive slope into
        # a flat predecessor, and the coarse curve would eventually dip
        # below the original — breaking the conservativeness contract.
        return Curve(new_xs, ys_arr, new_slopes, validate=False).simplify(tol=0.0)

    # ------------------------------------------------------------------
    # Comparison helpers
    # ------------------------------------------------------------------

    def dominates(self, other: "Curve", tol: float = 1e-6) -> bool:
        """True if ``self(t) >= other(t) - tol`` for all t.

        The tolerance is scaled *symmetrically* — by the larger magnitude of
        the two curves at each checkpoint — so ``a.dominates(b)`` and
        ``b.dominates(a)`` agree on near-equal curves regardless of operand
        order (RL003: never let a float comparison depend on which side the
        rounding noise landed on).
        """
        xs = np.union1d(self.xs, other.xs)
        if self.final_slope < other.final_slope - EPS:
            return False
        # Check right values and left limits at all breakpoints.
        vals_self = self(xs)
        vals_other = other(xs)
        scale = np.maximum(1.0, np.maximum(np.abs(vals_self), np.abs(vals_other)))
        if np.any(vals_self < vals_other - tol * scale):
            return False
        ll_self = _left_limits_at(self, xs[1:])
        ll_other = _left_limits_at(other, xs[1:])
        scale_ll = np.maximum(
            1.0, np.maximum(np.abs(ll_self), np.abs(ll_other))
        )
        return not np.any(ll_self < ll_other - tol * scale_ll)

    def equals(self, other: "Curve", tol: float = 1e-9) -> bool:
        """Pointwise equality within tolerance."""
        return self.dominates(other, tol) and other.dominates(self, tol)

    def to_dict(self) -> dict:
        """A JSON-serializable description of the curve."""
        return {
            "xs": self.xs.tolist(),
            "ys": self.ys.tolist(),
            "slopes": self.slopes.tolist(),
        }

    @staticmethod
    def from_dict(data: dict) -> "Curve":
        """Rebuild a curve from :meth:`to_dict` output (validated)."""
        try:
            return Curve(data["xs"], data["ys"], data["slopes"])
        except KeyError as exc:
            raise CurveError(f"curve dict missing key {exc}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pieces = ", ".join(
            f"({x:.6g}: {y:.6g} @{s:.6g})"
            for x, y, s in zip(self.xs[:6], self.ys[:6], self.slopes[:6])
        )
        more = "…" if len(self.xs) > 6 else ""
        return f"Curve[{len(self.xs)} segs: {pieces}{more}]"


def _left_limits_at(curve: Curve, xs: np.ndarray) -> np.ndarray:
    """Vectorized left limits of ``curve`` at each x (0 for x <= 0)."""
    idx = np.searchsorted(curve.xs, xs, side="left") - 1
    np.maximum(idx, 0, out=idx)
    vals = curve.ys[idx] + curve.slopes[idx] * (xs - curve.xs[idx])
    return np.where(xs <= 0, 0.0, vals)


def _slopes_at(curve: Curve, xs: np.ndarray) -> np.ndarray:
    """The slope of ``curve`` on the segment starting at each x in ``xs``.

    ``xs`` must contain only points at or after 0.  For points beyond the
    last breakpoint the final slope applies.
    """
    idx = np.searchsorted(curve.xs, xs, side="right") - 1
    np.maximum(idx, 0, out=idx)
    return curve.slopes[idx]


def _combine(a: Curve, b: Curve, chooser) -> Curve:
    """Pointwise min or max of two curves, inserting crossing points."""
    base_xs = np.union1d(a.xs, b.xs)
    # Find crossings inside each interval [x_i, x_{i+1}) where both are
    # affine, plus in the final infinite segment.
    va, vb = a(base_xs), b(base_xs)
    sa, sb = _slopes_at(a, base_xs), _slopes_at(b, base_xs)
    dslope = sa - sb
    safe = np.where(np.abs(dslope) >= EPS, dslope, 1.0)
    t_cross = -(va - vb) / safe
    x_cross = base_xs + t_cross
    seg_end = np.append(base_xs[1:], math.inf)
    valid = (np.abs(dslope) >= EPS) & (t_cross > EPS) & (x_cross < seg_end - EPS)
    xs = np.unique(np.concatenate([base_xs, x_cross[valid]]))
    vals_a = a(xs)
    vals_b = b(xs)
    if chooser is min:
        ys = np.minimum(vals_a, vals_b)
        pick_a = vals_a <= vals_b
    else:
        ys = np.maximum(vals_a, vals_b)
        pick_a = vals_a >= vals_b
    slopes_a = _slopes_at(a, xs)
    slopes_b = _slopes_at(b, xs)
    # At a point where the curves are equal, the chooser must look ahead via
    # slopes: min picks the smaller slope, max the larger.
    equal = np.abs(vals_a - vals_b) <= 1e-12 * np.maximum(1.0, np.abs(vals_a))
    if chooser is min:
        slopes = np.where(pick_a, slopes_a, slopes_b)
        slopes = np.where(equal, np.minimum(slopes_a, slopes_b), slopes)
    else:
        slopes = np.where(pick_a, slopes_a, slopes_b)
        slopes = np.where(equal, np.maximum(slopes_a, slopes_b), slopes)
    return Curve(xs, ys, slopes, validate=False).simplify()


def sum_curves(curves: Iterable[Curve]) -> Curve:
    """Sum an iterable of curves (the aggregate envelope at a multiplexer).

    The merged breakpoint grid is built in one n-ary merge (a single sort
    over the concatenated breakpoints) instead of pairwise ``union1d``
    folds; each curve is then evaluated once over that grid.  Accumulation
    stays in input order so the float sums match a sequential fold exactly.

    One ``searchsorted`` per curve serves both terms: ``c(xs)`` and
    ``_slopes_at(c, xs)`` find the same segment (``side="right"``,
    clamped at 0), and the value is ``__call__``'s expression on it.
    """
    curves = list(curves)
    if not curves:
        return Curve.zero()
    if len(curves) == 1:
        xs = curves[0].xs
    else:
        xs = np.unique(np.concatenate([c.xs for c in curves]))
    # ``__call__`` reads 0 before t = 0; only a first breakpoint a hair
    # below 0 (within the constructor's tolerance) puts one on the grid.
    negative = xs < 0.0 if xs[0] < 0.0 else None
    ys = np.zeros_like(xs)
    slopes = np.zeros_like(xs)
    for c in curves:
        idx = np.searchsorted(c.xs, xs, side="right") - 1
        np.maximum(idx, 0, out=idx)
        c_slopes = c.slopes[idx]
        vals = c.ys[idx] + c_slopes * (xs - c.xs[idx])
        if negative is not None:
            vals = np.where(negative, 0.0, vals)
        ys += vals
        slopes += c_slopes
    return Curve(xs, ys, slopes, validate=False).simplify()
