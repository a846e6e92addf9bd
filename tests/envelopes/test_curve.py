"""Unit tests for the piecewise-linear Curve class."""

import math

import numpy as np
import pytest

from repro.envelopes.curve import Curve, sum_curves
from repro.errors import CurveError


class TestConstruction:
    def test_zero_curve_is_zero_everywhere(self):
        z = Curve.zero()
        assert z(0.0) == 0.0
        assert z(123.4) == 0.0

    def test_constant_curve(self):
        c = Curve.constant(5.0)
        assert c(0.0) == 5.0
        assert c(100.0) == 5.0

    def test_constant_rejects_negative(self):
        with pytest.raises(CurveError):
            Curve.constant(-1.0)

    def test_affine_curve(self):
        a = Curve.affine(2.0, 3.0)
        assert a(0.0) == 2.0
        assert a(1.0) == 5.0
        assert a(10.0) == 32.0

    def test_affine_rejects_negative_rate(self):
        with pytest.raises(CurveError):
            Curve.affine(0.0, -1.0)

    def test_rate_latency(self):
        s = Curve.rate_latency(rate=10.0, latency=2.0)
        assert s(0.0) == 0.0
        assert s(2.0) == 0.0
        assert s(3.0) == pytest.approx(10.0)

    def test_rate_latency_zero_latency(self):
        s = Curve.rate_latency(rate=4.0, latency=0.0)
        assert s(1.0) == 4.0

    def test_from_points(self):
        c = Curve.from_points([(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)], final_slope=1.0)
        assert c(0.5) == pytest.approx(1.0)
        assert c(2.0) == pytest.approx(2.0)
        assert c(4.0) == pytest.approx(3.0)

    def test_from_points_rejects_unsorted(self):
        with pytest.raises(CurveError):
            Curve.from_points([(0.0, 0.0), (2.0, 1.0), (1.0, 2.0)], final_slope=0.0)

    def test_first_breakpoint_must_be_zero(self):
        with pytest.raises(CurveError):
            Curve([1.0], [0.0], [0.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(CurveError):
            Curve([0.0, 1.0], [0.0], [0.0, 0.0])

    def test_decreasing_jump_rejected(self):
        with pytest.raises(CurveError):
            Curve([0.0, 1.0], [5.0, 1.0], [0.0, 0.0])

    def test_negative_slope_rejected(self):
        with pytest.raises(CurveError):
            Curve([0.0], [0.0], [-1.0])


class TestEvaluation:
    def test_right_continuity_at_jump(self):
        # Jump from 0 to 10 at t=1.
        c = Curve([0.0, 1.0], [0.0, 10.0], [0.0, 0.0])
        assert c(1.0) == 10.0
        assert c.left_limit(1.0) == 0.0

    def test_negative_time_is_zero(self):
        c = Curve.constant(7.0)
        assert c(-1.0) == 0.0

    def test_vectorized_evaluation(self):
        c = Curve.affine(1.0, 2.0)
        vals = c(np.array([0.0, 1.0, 2.0]))
        assert np.allclose(vals, [1.0, 3.0, 5.0])

    def test_left_limit_within_segment(self):
        c = Curve.affine(0.0, 2.0)
        assert c.left_limit(3.0) == pytest.approx(6.0)

    def test_final_slope(self):
        c = Curve.from_points([(0.0, 0.0), (1.0, 1.0)], final_slope=9.0)
        assert c.final_slope == 9.0

    def test_pseudo_inverse_basic(self):
        c = Curve.affine(0.0, 2.0)
        assert c.pseudo_inverse(4.0) == pytest.approx(2.0)

    def test_pseudo_inverse_with_jump(self):
        c = Curve([0.0, 1.0], [0.0, 10.0], [0.0, 0.0])
        # Values in (0, 10] are first reached exactly at the jump t=1.
        assert c.pseudo_inverse(5.0) == pytest.approx(1.0)
        assert c.pseudo_inverse(10.0) == pytest.approx(1.0)

    def test_pseudo_inverse_unreachable(self):
        c = Curve.constant(3.0)
        assert math.isinf(c.pseudo_inverse(4.0))

    def test_pseudo_inverse_at_or_below_start(self):
        c = Curve.constant(3.0)
        assert c.pseudo_inverse(0.0) == 0.0
        assert c.pseudo_inverse(3.0) == 0.0

    def test_pseudo_inverse_flat_then_rising(self):
        c = Curve.from_points([(0.0, 0.0), (2.0, 0.0)], final_slope=1.0)
        assert c.pseudo_inverse(3.0) == pytest.approx(5.0)


class TestArithmetic:
    def test_addition_of_curves(self):
        a = Curve.affine(1.0, 1.0)
        b = Curve.affine(2.0, 3.0)
        c = a + b
        for t in [0.0, 0.7, 5.0]:
            assert c(t) == pytest.approx(a(t) + b(t))

    def test_addition_merges_breakpoints(self):
        a = Curve.from_points([(0.0, 0.0), (1.0, 1.0)], final_slope=0.0)
        b = Curve.from_points([(0.0, 0.0), (2.0, 4.0)], final_slope=0.0)
        c = a + b
        assert c(1.5) == pytest.approx(a(1.5) + b(1.5))

    def test_add_scalar(self):
        a = Curve.affine(0.0, 1.0)
        c = a + 5.0
        assert c(2.0) == pytest.approx(7.0)

    def test_scale(self):
        a = Curve.affine(1.0, 2.0)
        c = a * 3.0
        assert c(2.0) == pytest.approx(15.0)

    def test_scale_negative_rejected(self):
        with pytest.raises(CurveError):
            Curve.affine(1.0, 2.0) * -1.0

    def test_sum_curves_empty(self):
        z = sum_curves([])
        assert z(10.0) == 0.0

    def test_sum_curves_many(self):
        curves = [Curve.affine(i, i) for i in range(1, 5)]
        total = sum_curves(curves)
        assert total(2.0) == pytest.approx(sum(i + 2 * i for i in range(1, 5)))


class TestShifts:
    def test_shift_right_delays(self):
        a = Curve.affine(5.0, 1.0)
        d = a.shift_right(2.0)
        assert d(1.0) == 0.0
        assert d(2.0) == pytest.approx(5.0)
        assert d(3.0) == pytest.approx(6.0)

    def test_shift_right_zero_is_identity(self):
        a = Curve.affine(5.0, 1.0)
        assert a.shift_right(0.0) is a

    def test_shift_left_advances(self):
        a = Curve.from_points([(0.0, 0.0), (2.0, 4.0)], final_slope=0.0)
        s = a.shift_left(1.0)
        assert s(0.0) == pytest.approx(a(1.0))
        assert s(1.0) == pytest.approx(a(2.0))
        assert s(5.0) == pytest.approx(a(6.0))

    def test_shift_left_beyond_breakpoints(self):
        a = Curve.from_points([(0.0, 0.0), (1.0, 3.0)], final_slope=2.0)
        s = a.shift_left(10.0)
        assert s(0.0) == pytest.approx(a(10.0))
        assert s(4.0) == pytest.approx(a(14.0))

    def test_shift_negative_rejected(self):
        a = Curve.affine(0.0, 1.0)
        with pytest.raises(CurveError):
            a.shift_right(-1.0)
        with pytest.raises(CurveError):
            a.shift_left(-1.0)


class TestMinMax:
    def test_min_of_crossing_lines(self):
        a = Curve.affine(0.0, 2.0)   # 2t
        b = Curve.affine(3.0, 1.0)   # 3 + t
        m = a.minimum(b)
        # Cross at t=3.
        assert m(1.0) == pytest.approx(2.0)
        assert m(3.0) == pytest.approx(6.0)
        assert m(5.0) == pytest.approx(8.0)

    def test_max_of_crossing_lines(self):
        a = Curve.affine(0.0, 2.0)
        b = Curve.affine(3.0, 1.0)
        m = a.maximum(b)
        assert m(1.0) == pytest.approx(4.0)
        assert m(5.0) == pytest.approx(10.0)

    def test_min_with_staircase(self):
        stair = Curve([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        line = Curve.affine(0.0, 1.5)
        m = stair.minimum(line)
        for t in [0.0, 0.4, 0.8, 1.0, 1.5, 2.5, 4.0]:
            assert m(t) == pytest.approx(min(stair(t), line(t)))

    def test_min_is_commutative(self):
        a = Curve.from_points([(0.0, 1.0), (2.0, 3.0)], final_slope=0.5)
        b = Curve.affine(0.0, 2.0)
        assert a.minimum(b).equals(b.minimum(a))


class TestDominance:
    def test_dominates_itself(self):
        a = Curve.affine(1.0, 2.0)
        assert a.dominates(a)

    def test_strictly_above_dominates(self):
        lo = Curve.affine(0.0, 1.0)
        hi = Curve.affine(1.0, 2.0)
        assert hi.dominates(lo)
        assert not lo.dominates(hi)

    def test_final_slope_matters(self):
        lo = Curve.affine(0.0, 1.0)
        hi = Curve.affine(100.0, 0.5)
        # hi starts above but falls behind eventually.
        assert not hi.dominates(lo)

    def test_equals(self):
        a = Curve.affine(1.0, 1.0)
        b = Curve.from_points([(0.0, 1.0), (5.0, 6.0)], final_slope=1.0)
        assert a.equals(b)


class TestSimplify:
    def test_simplify_merges_collinear(self):
        c = Curve.from_points(
            [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)], final_slope=1.0
        )
        s = c.simplify()
        assert len(s.xs) == 1
        assert s(2.5) == pytest.approx(2.5)

    def test_simplify_keeps_jumps(self):
        c = Curve([0.0, 1.0], [0.0, 5.0], [0.0, 0.0])
        s = c.simplify()
        assert len(s.xs) == 2

    def test_repeat_simplify_is_remembered(self, monkeypatch):
        """A curve that came back unchanged at ``tol`` answers any
        ``tol`` at or below it without array work, and the answer is the
        one a fresh ``simplify`` gives, bit for bit."""
        import repro.envelopes.curve as curve_module

        # Nearly collinear: merged at a loose tolerance only.
        xs = [0.0, 1.0, 2.0, 3.0]
        ys = [0.0, 1.0 + 1e-7, 2.0, 3.0 + 1e-7]
        slopes = [1.0, 1.0, 1.0, 0.5]
        c = Curve(xs, ys, slopes)
        assert c.simplify(1e-9) is c
        fresh = {
            tol: Curve(xs, ys, slopes).simplify(tol) for tol in (1e-9, 1e-12, 0.0, 1e-3)
        }
        monkeypatch.setattr(curve_module, "np", None)  # any array work fails
        for tol in (1e-9, 1e-12, 0.0):
            assert c.simplify(tol) is c
        monkeypatch.undo()
        for tol, expected in fresh.items():
            got = c.simplify(tol)
            for a, b in ((got.xs, expected.xs), (got.ys, expected.ys), (got.slopes, expected.slopes)):
                assert a.tobytes() == b.tobytes()
        # A looser tolerance still does the work, and merges.
        assert len(c.simplify(1e-3).xs) == 2

    def test_coarsen_returns_dominating_curve(self):
        xs = [float(k) for k in range(20)]
        ys = [float(k * k) for k in range(20)]
        slopes = [0.0] * 20
        c = Curve(xs, ys, slopes)
        coarse = c.coarsen(5)
        assert len(coarse.xs) <= 5
        assert coarse.dominates(c)

    def test_coarsen_noop_when_small(self):
        c = Curve.affine(1.0, 1.0)
        assert c.coarsen(10) is c
