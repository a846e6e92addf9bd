"""Unit tests for deviation / deconvolution operations."""

import math

import pytest

from repro.envelopes.curve import Curve
from repro.envelopes.operations import (
    busy_interval,
    deconvolve,
    horizontal_deviation,
    token_bucket_majorant,
    vertical_deviation,
)


class TestBusyInterval:
    def test_no_backlog_returns_zero(self):
        arrival = Curve.affine(0.0, 1.0)
        service = Curve.affine(0.0, 2.0)
        assert busy_interval(arrival, service) == 0.0

    def test_burst_drains_linearly(self):
        # 10 bits at t=0, service 2 bits/s: clears at t=5.
        arrival = Curve.constant(10.0)
        service = Curve.affine(0.0, 2.0)
        assert busy_interval(arrival, service) == pytest.approx(5.0)

    def test_unstable_returns_inf(self):
        arrival = Curve.affine(5.0, 3.0)
        service = Curve.affine(0.0, 2.0)
        assert math.isinf(busy_interval(arrival, service))

    def test_staircase_service(self):
        # Burst of 10; service steps of 4 at t=1,2,3...
        arrival = Curve.constant(10.0)
        service = Curve(
            [0.0, 1.0, 2.0, 3.0], [0.0, 4.0, 8.0, 12.0], [0.0, 0.0, 0.0, 4.0]
        )
        # Caught up at t=3 (12 >= 10)... actually at the t=3 jump.
        assert busy_interval(arrival, service) == pytest.approx(3.0)

    def test_crossing_inside_segment(self):
        # Arrival: burst 10 then rate 1; service rate 3 -> crossing at t=5.
        arrival = Curve.affine(10.0, 1.0)
        service = Curve.affine(0.0, 3.0)
        assert busy_interval(arrival, service) == pytest.approx(5.0)

    def test_equal_rates_with_backlog_is_inf(self):
        arrival = Curve.affine(1.0, 2.0)
        service = Curve.affine(0.0, 2.0)
        assert math.isinf(busy_interval(arrival, service))


class TestVerticalDeviation:
    def test_simple_burst(self):
        arrival = Curve.constant(10.0)
        service = Curve.affine(0.0, 2.0)
        assert vertical_deviation(arrival, service) == pytest.approx(10.0)

    def test_zero_when_service_dominates(self):
        arrival = Curve.affine(0.0, 1.0)
        service = Curve.affine(5.0, 2.0)
        assert vertical_deviation(arrival, service) == 0.0

    def test_unstable_is_inf(self):
        arrival = Curve.affine(0.0, 3.0)
        service = Curve.affine(0.0, 2.0)
        assert math.isinf(vertical_deviation(arrival, service))

    def test_supremum_before_service_jump(self):
        # Arrival climbs at rate 2; service jumps by 10 every 2s starting t=2.
        arrival = Curve.affine(0.0, 2.0)
        service = Curve([0.0, 2.0, 4.0], [0.0, 10.0, 20.0], [0.0, 0.0, 5.0])
        # Just before t=2 the backlog is 4; just before t=4, 8-10<0...
        assert vertical_deviation(arrival, service, t_max=4.0) == pytest.approx(4.0)

    def test_bounded_horizon(self):
        arrival = Curve.affine(0.0, 3.0)
        service = Curve.affine(0.0, 2.0)
        assert vertical_deviation(arrival, service, t_max=10.0) == pytest.approx(10.0)


class TestHorizontalDeviation:
    def test_burst_over_link(self):
        # 10-bit burst, 2 bit/s link: last bit leaves after 5s.
        arrival = Curve.constant(10.0)
        service = Curve.affine(0.0, 2.0)
        assert horizontal_deviation(arrival, service) == pytest.approx(5.0)

    def test_token_bucket_through_rate_latency(self):
        # Classic result: delay = latency + burst / rate.
        arrival = Curve.affine(4.0, 1.0)
        service = Curve.rate_latency(rate=2.0, latency=3.0)
        assert horizontal_deviation(arrival, service) == pytest.approx(3.0 + 4.0 / 2.0)

    def test_zero_delay_when_service_instant(self):
        arrival = Curve.affine(0.0, 1.0)
        service = Curve.affine(100.0, 10.0)
        assert horizontal_deviation(arrival, service) == 0.0

    def test_unstable_is_inf(self):
        arrival = Curve.affine(0.0, 3.0)
        service = Curve.affine(0.0, 2.0)
        assert math.isinf(horizontal_deviation(arrival, service))

    def test_service_plateau_below_arrival_is_inf(self):
        arrival = Curve.constant(10.0)
        service = Curve.constant(5.0)  # never reaches 10
        assert math.isinf(horizontal_deviation(arrival, service))

    def test_staircase_service_delay(self):
        # One 10-bit burst at t=0; token staircase gives 6 bits at t=2, 12 at t=4.
        arrival = Curve.constant(10.0)
        service = Curve([0.0, 2.0, 4.0], [0.0, 6.0, 12.0], [0.0, 0.0, 3.0])
        assert horizontal_deviation(arrival, service) == pytest.approx(4.0)

    def test_continuous_arrival_across_plateau(self):
        # Arrival rate 1; staircase service: 5 at t=1, 10 at t=6 ...
        # A bit arriving just after t=5 (cumulative just over 5) waits until
        # t=6: delay just under 1.0 but the sup is ~1.0 (non-attained).
        arrival = Curve.affine(0.0, 1.0)
        service = Curve([0.0, 1.0, 6.0], [0.0, 5.0, 10.0], [0.0, 0.0, 1.0])
        d = horizontal_deviation(arrival, service)
        assert d == pytest.approx(1.0, abs=1e-6)


class TestDeconvolve:
    def test_infinite_busy_interval_rejected(self):
        a = Curve.affine(0.0, 2.0)
        s = Curve.affine(0.0, 1.0)
        with pytest.raises(ValueError):
            deconvolve(a, s, math.inf)

    def test_burst_through_link(self):
        # Burst 10 through a 2 bit/s link; busy interval 5.
        arrival = Curve.constant(10.0)
        service = Curve.affine(0.0, 2.0)
        out = deconvolve(arrival, service, t_limit=5.0)
        # Output in any window of length I is at most min(10, ...) and at
        # I=0 the whole backlog could already be in flight: O(0) >= A(0) - 0.
        assert out(0.0) >= 10.0 - 1e-9
        assert out.final_slope == pytest.approx(0.0)

    def test_output_dominates_necessary_lower_bound(self):
        # The output envelope must be at least A(I) - backlog-cleared bound;
        # in particular O(I) >= A(I) - A(0) shape-wise.  Check dominance over
        # a few sampled points against a brute-force sup.
        arrival = Curve.from_points([(0.0, 4.0), (2.0, 6.0)], final_slope=1.0)
        service = Curve.affine(0.0, 3.0)
        b = busy_interval(arrival, service)
        out = deconvolve(arrival, service, t_limit=b)
        import numpy as np

        for big_i in np.linspace(0.0, 8.0, 33):
            ts = np.linspace(0.0, b, 200)
            brute = max(arrival(t + big_i) - service(t) for t in ts)
            assert out(big_i) >= brute - 1e-6

    def test_smoothing_by_zero_busy_interval(self):
        # t_limit=0 reduces to O(I) = A(I).
        arrival = Curve.affine(5.0, 1.0)
        service = Curve.affine(0.0, 100.0)
        out = deconvolve(arrival, service, t_limit=0.0)
        for t in [0.0, 1.0, 3.0]:
            assert out(t) == pytest.approx(arrival(t))

    def test_monotone_nondecreasing(self):
        arrival = Curve.from_points([(0.0, 2.0), (1.0, 2.0), (1.5, 5.0)], final_slope=0.5)
        service = Curve.affine(0.0, 2.0)
        b = busy_interval(arrival, service)
        out = deconvolve(arrival, service, t_limit=b)
        import numpy as np

        grid = np.linspace(0, 10, 101)
        vals = out(grid)
        assert all(vals[i + 1] >= vals[i] - 1e-9 for i in range(len(vals) - 1))


class TestTokenBucketMajorant:
    def test_affine_curve_is_its_own_majorant(self):
        sigma, rho = token_bucket_majorant(Curve.affine(100.0, 5.0))
        assert sigma == pytest.approx(100.0)
        assert rho == pytest.approx(5.0)

    def test_staircase_majorant(self):
        stair = Curve([0.0, 1.0], [10.0, 20.0], [0.0, 10.0])
        sigma, rho = token_bucket_majorant(stair)
        # rho = 10; sigma must cover the left limit at t=1: 10 - 10*1 = 0,
        # and the initial burst 10 at t=0.
        assert rho == 10.0
        assert sigma == pytest.approx(10.0)

    def test_majorant_dominates(self):
        import numpy as np

        c = Curve([0.0, 0.5, 2.0], [5.0, 9.0, 12.0], [0.0, 0.0, 3.0])
        sigma, rho = token_bucket_majorant(c)
        for t in np.linspace(0, 10, 101):
            assert sigma + rho * t >= c(float(t)) - 1e-9
