"""Tests for periodic, leaky-bucket and CBR descriptors and generators."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.traffic import (
    CBRTraffic,
    DualPeriodicTraffic,
    LeakyBucketTraffic,
    PeriodicTraffic,
    WorkloadGenerator,
    WorkloadSpec,
)


#: A valid parameter set of each journal-serializable descriptor.
VALID_PARAMETERS = {
    DualPeriodicTraffic: dict(c1=60_000.0, p1=0.015, c2=30_000.0, p2=0.005),
    PeriodicTraffic: dict(c=100.0, p=0.01),
    LeakyBucketTraffic: dict(sigma=1000.0, rho=1e5),
    CBRTraffic: dict(rate=1e6, packet_bits=424.0),
}
FIELD_CASES = [
    (cls, name) for cls, params in VALID_PARAMETERS.items() for name in params
]


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "cls,name", FIELD_CASES, ids=[f"{c.__name__}.{n}" for c, n in FIELD_CASES]
    )
    def test_rejected(self, cls, name, value):
        with pytest.raises(ConfigurationError):
            cls(**{**VALID_PARAMETERS[cls], name: value})

    @pytest.mark.parametrize(
        "cls", [DualPeriodicTraffic, PeriodicTraffic, LeakyBucketTraffic]
    )
    def test_peak_nan_rejected_but_infinite_peak_allowed(self, cls):
        with pytest.raises(ConfigurationError):
            cls(**VALID_PARAMETERS[cls], peak=math.nan)
        assert cls(**VALID_PARAMETERS[cls], peak=math.inf).peak_rate == math.inf


class TestPeriodic:
    def test_envelope_staircase(self):
        t = PeriodicTraffic(c=100.0, p=0.01)
        env = t.envelope(horizon=0.1)
        assert env(0.0) == pytest.approx(100.0)
        assert env(0.005) == pytest.approx(100.0)
        assert env(0.01) == pytest.approx(200.0)

    def test_long_term_rate(self):
        t = PeriodicTraffic(c=100.0, p=0.01)
        assert t.long_term_rate == pytest.approx(10_000.0)

    def test_rejects_bad(self):
        with pytest.raises(ConfigurationError):
            PeriodicTraffic(c=0.0, p=1.0)
        with pytest.raises(ConfigurationError):
            PeriodicTraffic(c=1.0, p=-1.0)

    def test_finite_peak(self):
        t = PeriodicTraffic(c=100.0, p=0.01, peak=100_000.0)
        assert t.peak_rate == 100_000.0
        env = t.envelope(0.05)
        assert env(0.0005) == pytest.approx(50.0)


class TestLeakyBucket:
    def test_envelope_affine(self):
        t = LeakyBucketTraffic(sigma=500.0, rho=1000.0)
        env = t.envelope(1.0)
        assert env(0.0) == pytest.approx(500.0)
        assert env(1.0) == pytest.approx(1500.0)

    def test_peak_cap(self):
        t = LeakyBucketTraffic(sigma=500.0, rho=1000.0, peak=2000.0)
        env = t.envelope(1.0)
        assert env(0.1) == pytest.approx(200.0)   # peak-limited early
        assert env(1.0) == pytest.approx(1500.0)  # bucket-limited later

    def test_rejects_peak_below_rho(self):
        with pytest.raises(ConfigurationError):
            LeakyBucketTraffic(sigma=1.0, rho=100.0, peak=50.0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            LeakyBucketTraffic(sigma=-1.0, rho=1.0)

    def test_stability_check(self):
        t = LeakyBucketTraffic(sigma=0.0, rho=100.0)
        assert t.is_stable_at(100.0)
        assert not t.is_stable_at(99.0)


class TestCBR:
    def test_fluid(self):
        t = CBRTraffic(rate=1000.0)
        assert t.peak_rate == 1000.0
        assert t.envelope(1.0)(2.0) == pytest.approx(2000.0)

    def test_packetized(self):
        t = CBRTraffic(rate=1000.0, packet_bits=424.0)
        assert math.isinf(t.peak_rate)
        assert t.envelope(1.0)(0.0) == pytest.approx(424.0)

    def test_rejects_zero_rate(self):
        with pytest.raises(ConfigurationError):
            CBRTraffic(rate=0.0)


class TestWorkloadGenerator:
    def spec(self, **kw):
        base = dict(
            c1=3000.0,
            p1=0.03,
            c2=1000.0,
            p2=0.005,
            deadline_min=0.05,
            deadline_max=0.2,
        )
        base.update(kw)
        return WorkloadSpec(**base)

    def test_sample_within_deadline_range(self):
        gen = WorkloadGenerator(self.spec(), random.Random(1))
        for _ in range(50):
            _, d = gen.sample()
            assert 0.05 <= d <= 0.2

    def test_jitter_scales_budgets(self):
        gen = WorkloadGenerator(self.spec(jitter=0.5), random.Random(2))
        rates = {gen.sample()[0].c1 for _ in range(20)}
        assert len(rates) > 1
        assert all(1500.0 <= c1 <= 4500.0 for c1 in rates)

    def test_zero_jitter_is_deterministic(self):
        gen = WorkloadGenerator(self.spec(), random.Random(3))
        t1, _ = gen.sample()
        t2, _ = gen.sample()
        assert t1.c1 == t2.c1

    def test_reproducible_with_seed(self):
        g1 = WorkloadGenerator(self.spec(jitter=0.3), random.Random(42))
        g2 = WorkloadGenerator(self.spec(jitter=0.3), random.Random(42))
        for _ in range(10):
            s1, d1 = g1.sample()
            s2, d2 = g2.sample()
            assert s1.c1 == s2.c1 and d1 == d2

    def test_rejects_bad_jitter(self):
        with pytest.raises(ConfigurationError):
            self.spec(jitter=1.5)

    def test_rejects_bad_deadlines(self):
        with pytest.raises(ConfigurationError):
            self.spec(deadline_min=0.3, deadline_max=0.1)

    def test_mean_rate(self):
        assert self.spec().mean_rate == pytest.approx(100_000.0)


class TestGammaInterface:
    def test_gamma_periodic(self):
        t = PeriodicTraffic(c=100.0, p=1.0)
        # In a window of 0.5 at most one burst: Gamma = 100/0.5.
        assert t.gamma(0.5) == pytest.approx(200.0)

    def test_gamma_rejects_negative_interval(self):
        t = PeriodicTraffic(c=100.0, p=1.0)
        with pytest.raises(ValueError):
            t.gamma(-1.0)

    def test_describe_default(self):
        t = LeakyBucketTraffic(sigma=10.0, rho=5.0)
        assert "LeakyBucket" in t.describe()
