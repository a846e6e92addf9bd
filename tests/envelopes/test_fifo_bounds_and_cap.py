"""The one-grid FIFO bounds kernel and the linear-time rate cap.

:class:`FifoBounds` must give bit for bit what ``busy_interval``
followed by ``vertical_deviation(t_max=B)`` gives, and ``Curve.cap``
bit for bit what ``minimum(Curve.affine(0.0, rate))`` gives: on jumpy
curves, sloped curves, a rate equal to a segment's slope, a zero rate,
curves the line never crosses, and unstable servers (``B = inf``).
Also pins which side the busy interval's catch-up tolerance errs on.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envelopes.curve import Curve
from repro.envelopes.operations import (
    FifoBounds,
    busy_interval,
    vertical_deviation,
)
from repro.envelopes.staircase import periodic_burst_staircase, timed_token_staircase
from tests.envelopes import reference as ref


@st.composite
def jumpy_curves(draw):
    """Piecewise-linear curves with optional jumps at every breakpoint."""
    n = draw(st.integers(min_value=1, max_value=8))
    xs = [0.0]
    for _ in range(n - 1):
        xs.append(xs[-1] + draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 4.0)))
    slopes = [draw(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 6.0)) for _ in xs]
    ys = [draw(st.sampled_from([0.0]) | st.floats(0.0, 5.0))]
    for i in range(1, n):
        jump = draw(st.sampled_from([0.0]) | st.floats(0.0, 4.0))
        ys.append(ys[-1] + slopes[i - 1] * (xs[i] - xs[i - 1]) + jump)
    return Curve(xs, ys, slopes)


def _bytes(curve):
    return (curve.xs.tobytes(), curve.ys.tobytes(), curve.slopes.tobytes())


def _assert_cap_matches(curve, rate):
    assert _bytes(curve.cap(rate)) == _bytes(curve.minimum(Curve.affine(0.0, rate)))


class TestCapIsMinimumWithRateLine:
    @given(jumpy_curves(), st.floats(0.0, 8.0))
    @settings(max_examples=300, deadline=None)
    def test_any_rate(self, curve, rate):
        _assert_cap_matches(curve, rate)

    @given(jumpy_curves(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rate_equal_to_a_segment_slope(self, curve, data):
        rate = float(data.draw(st.sampled_from(curve.slopes.tolist())))
        _assert_cap_matches(curve, rate)

    @given(jumpy_curves())
    @settings(max_examples=100, deadline=None)
    def test_zero_rate(self, curve):
        _assert_cap_matches(curve, 0.0)

    @given(jumpy_curves())
    @settings(max_examples=100, deadline=None)
    def test_no_crossing(self, curve):
        # A line no steeper than any segment stays under the curve, and a
        # line as steep as the steepest segment stays over a curve that
        # starts at zero without jumps: neither adds a breakpoint.
        under = float(curve.slopes.min())
        assert len(curve.cap(under).xs) <= len(curve.xs)
        _assert_cap_matches(curve, under)
        continuous = Curve.from_breakpoints(
            curve.xs, curve(curve.xs) - curve(0.0), curve.final_slope
        )
        over = float(continuous.slopes.max())
        assert len(continuous.cap(over).xs) <= len(continuous.xs)
        _assert_cap_matches(continuous, over)

    def test_crossing_rounded_onto_a_breakpoint(self):
        # One ulp below the line at x = 1e5, five times steeper: the
        # crossing lies 2.9e-12 later (past EPS) but rounds back onto x.
        below = math.nextafter(1e5, 0.0)
        curve = Curve([0.0, 1e5], [0.0, below], [0.99, 6.0])
        assert curve.xs[1] + (1e5 - below) / 5.0 == curve.xs[1]
        _assert_cap_matches(curve, 1.0)

    def test_timed_token_outputs(self):
        staircase = periodic_burst_staircase(2.36e5, 0.01, 64, peak_rate=math.inf)
        for rate in (1e8, 2.36e7, 2.36e5 / 0.01, 0.0):
            _assert_cap_matches(staircase, rate)
        ramps = periodic_burst_staircase(1.2e5, 0.01, 64, peak_rate=1e8)
        for rate in (1e8, 5e7, 1.2e7):
            _assert_cap_matches(ramps, rate)


class TestFifoBoundsIsBusyThenBacklog:
    @given(jumpy_curves(), jumpy_curves())
    @settings(max_examples=300, deadline=None)
    def test_random_pairs(self, arrival, service):
        bounds = FifoBounds(arrival, service)
        busy = busy_interval(arrival, service)
        assert repr(bounds.busy) == repr(busy)
        assert repr(bounds.busy) == repr(ref.ref_busy_interval(arrival, service))
        want = vertical_deviation(arrival, service, t_max=busy)
        assert repr(bounds.backlog()) == repr(want)

    @given(jumpy_curves(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_timed_token_staircases(self, arrival, data):
        ttrt = data.draw(st.floats(0.2, 2.0))
        rate = arrival.final_slope * data.draw(st.floats(0.5, 3.0)) + 0.5
        service = timed_token_staircase(
            rate * ttrt, ttrt, 1.0, n_steps=data.draw(st.integers(2, 12))
        )
        if data.draw(st.booleans()):
            service = ref.flat_span_staircase(service, data.draw(st.integers(8, 12)))
        bounds = FifoBounds(arrival, service)
        busy = busy_interval(arrival, service)
        assert repr(bounds.busy) == repr(busy)
        want = vertical_deviation(arrival, service, t_max=busy)
        assert repr(bounds.backlog()) == repr(want)

    def test_unstable_busy_interval_is_infinite(self):
        # Arrivals outrun the service: both B and the backlog are inf.
        overload = FifoBounds(Curve.affine(1.0, 2.0), Curve.affine(0.0, 1.0))
        assert overload.busy == math.inf
        assert overload.backlog() == math.inf
        assert overload.backlog() == vertical_deviation(
            Curve.affine(1.0, 2.0), Curve.affine(0.0, 1.0), t_max=math.inf
        )
        # Equal rates with a head start never catch up; the backlog is
        # the finite head start.
        level = FifoBounds(Curve.affine(1.0, 1.0), Curve.affine(0.0, 1.0))
        assert level.busy == math.inf
        assert repr(level.backlog()) == repr(
            vertical_deviation(Curve.affine(1.0, 1.0), Curve.affine(0.0, 1.0))
        )

    def test_crossing_inside_a_segment(self):
        # Caught up at t = 6, between the service's breakpoints 1 and 10.
        arrival = Curve.affine(2.0, 0.5)
        service = Curve([0.0, 1.0, 10.0], [0.0, 0.0, 9.0], [0.0, 1.0, 1.0])
        bounds = FifoBounds(arrival, service)
        assert bounds.busy == 6.0
        assert bounds.backlog() == vertical_deviation(arrival, service, t_max=6.0)

    def test_catch_up_past_the_last_breakpoint(self):
        arrival = Curve.affine(10.0, 1.0)
        service = Curve.rate_latency(2.0, 1.0)
        bounds = FifoBounds(arrival, service)
        assert bounds.busy == 12.0
        assert bounds.backlog() == vertical_deviation(arrival, service, t_max=12.0)


def test_busy_interval_has_no_cut_off():
    # The old ``t_max`` searched a truncated grid and extrapolated past
    # it (10.0 for a cut-off of 0.5); the busy interval is 12.
    assert busy_interval(Curve.affine(10.0, 1.0), Curve.rate_latency(2.0, 1.0)) == 12.0


def test_catch_up_tolerance_errs_low():
    # At t = 1 the arrival still exceeds the service by 5e-10, within the
    # 1e-9 * max(1, A) tolerance, so B ends there; the true catch-up is
    # 5e-10 later, inside the flat span that follows.
    arrival = Curve([0.0, 1.0, 2.0], [0.5, 1.0 + 5e-10, 3.0], [0.5, 0.0, 0.5])
    service = Curve.affine(0.0, 1.0)
    b = busy_interval(arrival, service)
    assert b == 1.0
    assert 0.0 < arrival(b) - service(b) <= 1e-9 * max(1.0, arrival(b))
    assert ref.ref_busy_interval(arrival, service) == b
