"""Vectorized kernels vs. the pure-Python reference oracle.

Every hot kernel rewritten as a numpy array operation is checked here
against the transparent per-segment implementation in
:mod:`tests.envelopes.reference`, on randomized curves, within
``MONOTONE_RTOL``.  A second group pins the conservativeness contract of
``Curve.coarsen`` in both directions, and a third the symmetric-tolerance
semantics of ``Curve.dominates``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envelopes.curve import MONOTONE_RTOL, Curve, sum_curves
from repro.envelopes.operations import (
    busy_interval,
    deconvolve,
    horizontal_deviation,
    vertical_deviation,
)
from repro.envelopes.staircase import timed_token_staircase
from tests.envelopes import reference as ref

RTOL = MONOTONE_RTOL


@st.composite
def staircase_curves(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    gaps = draw(
        st.lists(st.floats(0.1, 5.0), min_size=n - 1, max_size=n - 1)
        if n > 1
        else st.just([])
    )
    xs = [0.0]
    for g in gaps:
        xs.append(xs[-1] + g)
    jumps = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    ys = []
    acc = 0.0
    for j in jumps:
        acc += j
        ys.append(acc)
    slopes = [0.0] * (n - 1) + [draw(st.floats(0.0, 5.0))]
    return Curve(xs, ys, slopes)


@st.composite
def pl_curves(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    gaps = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    slopes = draw(st.lists(st.floats(0.0, 8.0), min_size=n, max_size=n))
    points = [(0.0, draw(st.floats(0.0, 5.0)))]
    for i in range(n - 1):
        x, y = points[-1]
        points.append((x + gaps[i], y + slopes[i] * gaps[i]))
    return Curve.from_points(points, final_slope=slopes[-1])


curves = st.one_of(staircase_curves(), pl_curves())


def _probe_grid(*cs: Curve) -> np.ndarray:
    """Breakpoints of all curves plus segment midpoints and a tail point."""
    xs = np.unique(np.concatenate([c.xs for c in cs]))
    mids = (xs[:-1] + xs[1:]) / 2.0 if len(xs) > 1 else np.empty(0)
    return np.unique(np.concatenate([xs, mids, [float(xs[-1]) + 3.0]]))


def _assert_curves_agree(a: Curve, b: Curve, *, context: str) -> None:
    for t in _probe_grid(a, b):
        va, vb = a(float(t)), b(float(t))
        assert abs(va - vb) <= RTOL * max(1.0, abs(va), abs(vb)), (
            f"{context}: mismatch at t={t}: {va} vs {vb}"
        )


class TestKernelsMatchOracle:
    @given(curves)
    @settings(max_examples=50, deadline=None)
    def test_eval_and_left_limit(self, c):
        for t in _probe_grid(c):
            t = float(t)
            assert abs(c(t) - ref.ref_eval(c, t)) <= RTOL * max(1.0, abs(c(t)))
            ll = c.left_limit(t)
            assert abs(ll - ref.ref_left_limit(c, t)) <= RTOL * max(1.0, abs(ll))

    @given(curves, curves)
    @settings(max_examples=50, deadline=None)
    def test_add(self, a, b):
        _assert_curves_agree(a + b, ref.ref_add(a, b), context="add")

    @given(st.lists(curves, min_size=0, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_sum_curves(self, cs):
        _assert_curves_agree(sum_curves(cs), ref.ref_sum(cs), context="sum")

    @given(curves, curves)
    @settings(max_examples=50, deadline=None)
    def test_min_max(self, a, b):
        _assert_curves_agree(a.minimum(b), ref.ref_minimum(a, b), context="min")
        _assert_curves_agree(a.maximum(b), ref.ref_maximum(a, b), context="max")

    @given(curves, st.floats(0.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_shifts(self, c, d):
        _assert_curves_agree(
            c.shift_right(d), ref.ref_shift_right(c, d), context="shift_right"
        )
        _assert_curves_agree(
            c.shift_left(d), ref.ref_shift_left(c, d), context="shift_left"
        )

    @given(curves)
    @settings(max_examples=50, deadline=None)
    def test_pseudo_inverse(self, c):
        top = c(float(c.last_breakpoint) + 5.0)
        for y in np.linspace(0.0, top + 1.0, 17):
            got = c.pseudo_inverse(float(y))
            want = ref.ref_pseudo_inverse(c, float(y))
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert abs(got - want) <= RTOL * max(1.0, abs(want))

    @given(curves)
    @settings(max_examples=50, deadline=None)
    def test_pseudo_inverse_many_matches_scalar(self, c):
        top = c(float(c.last_breakpoint) + 5.0)
        ys = np.linspace(0.0, top + 1.0, 17)
        many = c.pseudo_inverse_many(ys)
        for y, got in zip(ys, many):
            assert float(got) == c.pseudo_inverse(float(y))


class TestDeviationsMatchOracle:
    @given(curves, curves)
    @settings(max_examples=40, deadline=None)
    def test_busy_interval(self, a, s):
        got = busy_interval(a, s)
        want = ref.ref_busy_interval(a, s)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert abs(got - want) <= RTOL * max(1.0, abs(want))

    @given(curves, curves)
    @settings(max_examples=40, deadline=None)
    def test_vertical_deviation(self, a, s):
        horizon = float(max(a.last_breakpoint, s.last_breakpoint)) + 5.0
        got = vertical_deviation(a, s, t_max=horizon)
        want = ref.ref_vertical_deviation(a, s, t_max=horizon)
        assert abs(got - want) <= RTOL * max(1.0, abs(want))

    @given(curves, curves)
    @settings(max_examples=40, deadline=None)
    def test_horizontal_deviation(self, a, s):
        got = horizontal_deviation(a, s)
        want = ref.ref_horizontal_deviation(a, s)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert abs(got - want) <= RTOL * max(1.0, abs(want))

    @given(curves, curves)
    @settings(max_examples=25, deadline=None)
    def test_deconvolve(self, a, s):
        b = busy_interval(a, s)
        if math.isinf(b):
            return
        got = deconvolve(a, s, t_limit=b)
        want = ref.ref_deconvolve(a, s, t_limit=b)
        _assert_curves_agree(got, want, context="deconvolve")

    @given(curves, st.data())
    @settings(max_examples=40, deadline=None)
    def test_deconvolve_timed_token_staircase(self, a, data):
        # The services Theorem 1 passes: flat spans between jumps at
        # k * TTRT, an affine tail past n_steps, and sometimes a
        # staircase with uneven flat spans.
        ttrt = data.draw(st.floats(0.2, 2.0))
        rate = a.final_slope * data.draw(st.floats(1.05, 3.0)) + 0.5
        n_steps = data.draw(st.integers(2, 12))
        s = timed_token_staircase(rate * ttrt, ttrt, 1.0, n_steps=n_steps)
        if data.draw(st.booleans()):
            s = ref.flat_span_staircase(s, data.draw(st.integers(8, 12)))
        b = busy_interval(a, s)
        if math.isinf(b):
            return
        got = deconvolve(a, s, t_limit=b)
        want = ref.ref_deconvolve(a, s, t_limit=b)
        _assert_curves_agree(got, want, context="deconvolve/staircase")


class TestCoarsenConservative:
    @given(curves, st.integers(8, 16))
    @settings(max_examples=50, deadline=None)
    def test_upper_dominates_input(self, c, n):
        coarse = c.coarsen(n)
        assert len(coarse.xs) <= n
        assert coarse.dominates(c, tol=1e-7)
        # Explicit pointwise check at every merged breakpoint.
        for x in np.unique(np.concatenate([c.xs, coarse.xs])):
            x = float(x)
            assert coarse(x) >= c(x) - 1e-7 * max(1.0, abs(c(x)))

    @given(curves, st.integers(8, 16))
    @settings(max_examples=30, deadline=None)
    def test_both_directions_preserve_final_slope(self, c, n):
        # Stability checks downstream read final_slope; neither coarsening
        # above (Curve.coarsen) nor the flat-span staircase below it that
        # the deconvolve and FIFO tests feed in may change the long-term rate.
        for coarse in (c.coarsen(n), ref.flat_span_staircase(c, n)):
            assert len(coarse.xs) <= n
            assert coarse.final_slope == c.final_slope


class TestDominatesSymmetricTolerance:
    """Regression tests for the RL003-consistent symmetric scale in
    ``Curve.dominates`` (near-equal curves at segment boundaries)."""

    def test_near_equal_large_curves_dominate_each_other(self):
        # Two staircases that differ by 5e-7 relative at a boundary of
        # magnitude 2e6 — inside the default 1e-6 tolerance, so domination
        # must hold in BOTH directions (the check is symmetric in scale).
        a = Curve([0.0, 1.0], [2e6, 4e6], [0.0, 0.0])
        b = Curve([0.0, 1.0], [2e6 - 1.0, 4e6 - 2.0], [0.0, 0.0])
        assert a.dominates(b)
        assert b.dominates(a)
        assert a.equals(b, tol=1e-6)

    def test_clear_domination_is_one_sided(self):
        a = Curve([0.0], [10.0], [1.0])
        b = Curve([0.0], [5.0], [1.0])
        assert a.dominates(b)
        assert not b.dominates(a)

    def test_boundary_jump_within_tolerance(self):
        # b jumps a hair *later* than a; at the shared boundary the left
        # limits differ by a relative 1e-9 — far below tol, so the curves
        # still count as mutually dominating.
        a = Curve([0.0, 1.0], [0.0, 1e9], [0.0, 0.0])
        b = Curve([0.0, 1.0], [0.0, 1e9 * (1 - 1e-9)], [0.0, 0.0])
        assert a.dominates(b)
        assert b.dominates(a)

    def test_violation_beyond_tolerance_detected(self):
        a = Curve([0.0, 1.0], [0.0, 1e9], [0.0, 0.0])
        c = Curve([0.0, 1.0], [0.0, 1e9 * (1 - 1e-4)], [0.0, 0.0])
        assert a.dominates(c)
        assert not c.dominates(a)
