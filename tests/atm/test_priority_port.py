"""Tests for the static-priority output port."""

import math

import pytest

from repro.atm import AtmLink
from repro.atm.priority_port import PriorityOutputPortServer
from repro.atm.output_port import OutputPortServer
from repro.envelopes.curve import Curve
from repro.envelopes.operations import token_bucket_majorant
from repro.errors import ConfigurationError, UnstableSystemError
from repro.traffic import DualPeriodicTraffic
from repro.units import MBIT


def make_port(**kw):
    return PriorityOutputPortServer(AtmLink("l", rate=155.52 * MBIT), **kw)


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


class TestPriorityClasses:
    def test_high_priority_unaffected_by_low(self):
        port = make_port()
        high = Curve.constant(100_000.0)
        low = Curve.constant(5_000_000.0)
        alone = port.analyze_classes({0: [high]})[0].delay_bound
        with_low = port.analyze_classes({0: [high], 1: [low]})[0].delay_bound
        # Only the single-cell blocking term separates them (already in both).
        assert with_low == pytest.approx(alone, rel=1e-9)

    def test_low_priority_pays_for_high(self):
        port = make_port()
        tagged = Curve.constant(100_000.0)
        heavy_high = Curve.affine(500_000.0, 50 * MBIT)
        alone = port.analyze_classes({1: [tagged]})[1].delay_bound
        crowded = port.analyze_classes({0: [heavy_high], 1: [tagged]})
        assert crowded[1].delay_bound > alone
        assert crowded[1].delay_bound > crowded[0].delay_bound
        assert crowded[0].backlog_bound >= 0

    def test_priority_beats_fifo_for_high_class(self):
        link = AtmLink("l", rate=155.52 * MBIT)
        prio = PriorityOutputPortServer(link)
        fifo = OutputPortServer(link)
        paper_source = DualPeriodicTraffic(c1=120_000.0, p1=0.015, c2=60_000.0, p2=0.005)
        for tagged, cross in (
            (Curve.constant(100_000.0), Curve.constant(2_000_000.0)),
            # The paper's source beside 60 Mbps + 2 Mb of best-effort traffic.
            (paper_source.envelope(0.5), Curve.affine(2_000_000.0, 60 * MBIT)),
        ):
            d_fifo = fifo.analyze_tagged(tagged, [cross]).delay_bound
            d_prio = prio.analyze_tagged(
                tagged, [], higher_class=[], lower_class=[cross]
            ).delay_bound
            # The FIFO bound is dominated by the cross burst; priority cuts
            # it to (roughly) the tagged burst plus one cell of blocking.
            assert d_prio < d_fifo / 3

    def test_overload_raises(self):
        port = make_port()
        with pytest.raises(UnstableSystemError):
            port.analyze_classes({0: [Curve.affine(0.0, 200 * MBIT)]})

    def test_cascade_overload_detected_at_lower_class(self):
        port = make_port()
        high = Curve.affine(0.0, 100 * MBIT)
        low = Curve.affine(0.0, 60 * MBIT)  # 160 total > 140.8 payload
        with pytest.raises(UnstableSystemError):
            port.analyze_classes({0: [high], 1: [low]})

    def test_port_latency_added(self):
        base = make_port().analyze_classes({0: [Curve.constant(1000.0)]})[0]
        slow = make_port(port_latency=0.001).analyze_classes(
            {0: [Curve.constant(1000.0)]}
        )[0]
        assert slow.delay_bound == pytest.approx(base.delay_bound + 0.001)

    def test_blocking_term_present(self):
        # Even the highest class waits for one cell already on the wire.
        port = make_port()
        res = port.analyze_classes({0: [Curve.constant(384.0)]})[0]
        assert res.leftover_latency > 0

    def test_tagged_output_capped(self):
        port = make_port()
        res = port.analyze_tagged(
            Curve.constant(500_000.0), [], higher_class=[Curve.constant(1000.0)]
        )
        assert res.output(0.0) == pytest.approx(0.0)

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            make_port(port_latency=-1.0)
        with pytest.raises(ConfigurationError):
            make_port(blocking_bits=-1.0)
