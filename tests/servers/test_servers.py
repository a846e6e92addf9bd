"""Tests for the server framework (constant-delay, chains)."""

import pytest

from repro.envelopes.curve import Curve
from repro.errors import ConfigurationError
from repro.servers import ConstantDelayServer


class TestConstantDelayServer:
    def test_delay_bound(self):
        s = ConstantDelayServer(0.005, name="prop")
        r = s.analyze(Curve.affine(10.0, 1.0))
        assert r.delay_bound == 0.005

    def test_output_unchanged(self):
        s = ConstantDelayServer(0.005)
        a = Curve.affine(10.0, 1.0)
        r = s.analyze(a)
        assert r.output is a

    def test_zero_delay_ok(self):
        assert ConstantDelayServer(0.0).analyze(Curve.zero()).delay_bound == 0.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantDelayServer(-1.0)

    def test_no_backlog(self):
        r = ConstantDelayServer(1.0).analyze(Curve.constant(100.0))
        assert r.backlog_bound == 0.0
