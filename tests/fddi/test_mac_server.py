"""Tests for the Theorem-1 FDDI MAC server analysis."""

import math

import numpy as np
import pytest

from repro.envelopes.curve import Curve
from repro.errors import BufferOverflowError, ConfigurationError, UnstableSystemError
from repro.fddi import FDDIMacServer, TokenRing8025MacServer
from repro.traffic import DualPeriodicTraffic, PeriodicTraffic
from repro.units import MBIT

TTRT = 0.008  # 8 ms
BW = 100 * MBIT


def make_server(h=0.001, buffer_bits=math.inf):
    return FDDIMacServer(h, TTRT, BW, buffer_bits=buffer_bits)


class TestGuarantees:
    def test_guaranteed_rate(self):
        s = make_server(h=0.001)
        assert s.guaranteed_rate == pytest.approx(0.001 * BW / TTRT)

    def test_availability_matches_theorem(self):
        s = make_server(h=0.001)
        avail = s.availability(16)
        for t in np.linspace(0, 0.1, 100):
            true = max(0.0, (math.floor(t / TTRT) - 1) * 0.001 * BW)
            assert avail(float(t)) <= true + 1e-3


class TestStability:
    def test_unstable_arrival_raises(self):
        s = make_server(h=0.0001)  # 1.25 Mbps guaranteed
        heavy = Curve.affine(0.0, 10 * MBIT)
        with pytest.raises(UnstableSystemError):
            s.analyze(heavy)

    def test_zero_allocation_raises(self):
        s = FDDIMacServer(0.0, TTRT, BW)
        with pytest.raises(UnstableSystemError):
            s.analyze(Curve.constant(100.0))

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            FDDIMacServer(-0.001, TTRT, BW)
        with pytest.raises(ConfigurationError):
            FDDIMacServer(0.001, 0.0, BW)
        with pytest.raises(ConfigurationError):
            FDDIMacServer(0.001, TTRT, BW, buffer_bits=0.0)


class TestDelayBound:
    def test_single_burst_delay(self):
        # One burst of exactly one rotation's worth of bits (H*BW).
        s = make_server(h=0.001)
        bits = 0.001 * BW
        r = s.analyze(Curve.constant(bits))
        # Service credit reaches `bits` at t = 2*TTRT; burst at t=0 waits
        # at most 2*TTRT.
        assert r.delay_bound == pytest.approx(2 * TTRT, rel=1e-6)

    def test_delay_decreases_with_allocation(self):
        traffic = PeriodicTraffic(c=50_000.0, p=0.05)
        env = traffic.envelope(1.0)
        # 0.0002s -> 20 kb/rotation: a 50 kb burst needs 3 credited
        # rotations; 0.002s -> 200 kb/rotation clears it in the first.
        d_small = make_server(h=0.0002).analyze(env).delay_bound
        d_large = make_server(h=0.002).analyze(env).delay_bound
        assert d_large < d_small

    def test_dual_periodic_traffic(self):
        traffic = DualPeriodicTraffic(c1=60_000.0, p1=0.03, c2=20_000.0, p2=0.005)
        env = traffic.envelope(1.0)
        s = make_server(h=0.001)
        r = s.analyze(env)
        assert r.delay_bound > 0
        assert math.isfinite(r.delay_bound)
        assert r.busy_interval > 0

    def test_busy_interval_finite_for_stable(self):
        traffic = PeriodicTraffic(c=10_000.0, p=0.05)
        r = make_server(h=0.001).analyze(traffic.envelope(1.0))
        assert math.isfinite(r.busy_interval)

    def test_delay_bound_conservative_vs_fluid(self):
        # The staircase delay must exceed the fluid-rate delay.
        traffic = PeriodicTraffic(c=50_000.0, p=0.05)
        env = traffic.envelope(1.0)
        s = make_server(h=0.001)
        r = s.analyze(env)
        fluid_delay = 50_000.0 / s.guaranteed_rate
        assert r.delay_bound >= fluid_delay - 1e-9


class TestBuffer:
    def test_overflow_raises(self):
        s = make_server(h=0.001, buffer_bits=1000.0)
        with pytest.raises(BufferOverflowError):
            s.analyze(Curve.constant(50_000.0))

    def test_backlog_reported(self):
        s = make_server(h=0.001)
        r = s.analyze(Curve.constant(50_000.0))
        # Backlog is the full burst until service starts at 2*TTRT.
        assert r.backlog_bound == pytest.approx(50_000.0)

    def test_big_buffer_ok(self):
        s = make_server(h=0.001, buffer_bits=60_000.0)
        r = s.analyze(Curve.constant(50_000.0))
        assert math.isfinite(r.delay_bound)


class TestOutputEnvelope:
    def test_output_capped_at_ring_rate(self):
        s = make_server(h=0.001)
        r = s.analyze(Curve.constant(50_000.0))
        # No instantaneous bursts at the ring exit.
        assert r.output(0.0) == pytest.approx(0.0)
        # Rate over small windows never exceeds BW.
        for i in [1e-5, 1e-4, 1e-3]:
            assert r.output(i) <= BW * i + 1e-3

    def test_output_preserves_long_term_rate(self):
        traffic = PeriodicTraffic(c=20_000.0, p=0.02)
        r = make_server(h=0.001).analyze(traffic.envelope(1.0))
        assert r.output.final_slope == pytest.approx(traffic.long_term_rate, rel=1e-6)

    def test_larger_allocation_smooths_less(self):
        # With more synchronous bandwidth the stored backlog is released
        # faster, so the output envelope at moderate windows is larger.
        traffic = PeriodicTraffic(c=50_000.0, p=0.05)
        env = traffic.envelope(1.0)
        out_small = make_server(h=0.0005).analyze(env).output
        out_large = make_server(h=0.003).analyze(env).output
        probe = 0.01
        assert out_large(probe) >= out_small(probe) - 1e-6

    def test_output_dominates_what_actually_left(self):
        # Whatever the MAC emits is bounded by avail over any busy window;
        # sanity: output at large I approaches input totals.
        traffic = PeriodicTraffic(c=10_000.0, p=0.02)
        env = traffic.envelope(0.5)
        r = make_server(h=0.001).analyze(env)
        big_i = 0.5
        assert r.output(big_i) >= env(big_i) * 0.5


class TestAdaptiveHorizon:
    def test_long_busy_interval_handled(self):
        # Nearly saturating traffic: long busy interval needs a bigger
        # staircase horizon than the initial 32 steps.
        s = make_server(h=0.001)  # 12.5 Mbps guaranteed
        rate = s.guaranteed_rate * 0.98
        burst = 0.001 * BW * 30  # 30 rotations' worth
        env = Curve.affine(burst, rate)
        r = s.analyze(env)
        assert math.isfinite(r.delay_bound)
        assert r.busy_interval > 32 * TTRT


class TestErrorMessages:
    """FDDI and 802.5 share one Theorem-1 routine but keep their wording."""

    @pytest.mark.parametrize(
        "server, arrival, error, message",
        [
            (
                FDDIMacServer(0.0, TTRT, BW, name="st"),
                Curve.constant(100.0),
                UnstableSystemError,
                "st: zero synchronous allocation cannot serve traffic",
            ),
            (
                TokenRing8025MacServer(0.0, TTRT, BW, name="st"),
                Curve.constant(100.0),
                UnstableSystemError,
                "st: zero holding time cannot serve traffic",
            ),
            (
                FDDIMacServer(0.001, TTRT, BW, name="st"),
                Curve.affine(0.0, 20 * MBIT),
                UnstableSystemError,
                "st: arrival rate 2e+07 b/s exceeds guaranteed synchronous "
                "rate 1.25e+07 b/s",
            ),
            (
                TokenRing8025MacServer(0.001, TTRT, BW, name="st"),
                Curve.affine(0.0, 20 * MBIT),
                UnstableSystemError,
                "st: arrival rate 2e+07 b/s exceeds guaranteed rate 1.25e+07 b/s",
            ),
            (
                FDDIMacServer(0.001, TTRT, BW, name="st"),
                Curve.affine(1000.0, 12.5 * MBIT),
                UnstableSystemError,
                "st: busy interval is unbounded",
            ),
            (
                TokenRing8025MacServer(0.001, TTRT, BW, name="st"),
                Curve.affine(1000.0, 12.5 * MBIT),
                UnstableSystemError,
                "st: unbounded busy interval",
            ),
            (
                FDDIMacServer(0.001, TTRT, BW, buffer_bits=1000.0, name="st"),
                Curve.constant(50_000.0),
                BufferOverflowError,
                "st: worst-case backlog 50000 bits exceeds buffer 1000 bits",
            ),
            (
                TokenRing8025MacServer(0.001, TTRT, BW, buffer_bits=1000.0, name="st"),
                Curve.constant(50_000.0),
                BufferOverflowError,
                "st: backlog 50000 bits exceeds buffer",
            ),
        ],
    )
    def test_wording(self, server, arrival, error, message):
        with pytest.raises(error) as caught:
            server.analyze(arrival)
        assert str(caught.value) == message
