"""Tests for the FDDI ring's allocation ledger and timed-token helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.fddi import (
    FDDIRing,
    max_token_rotation,
    min_sync_allocation,
    worst_case_token_wait,
)
from repro.fddi.timed_token import sync_capacity_check
from repro.units import MBIT

BW = 100 * MBIT


def make_ring(**kw):
    base = dict(ring_id="r1", ttrt=0.008, bandwidth=BW, overhead=0.0005)
    base.update(kw)
    return FDDIRing(**base)


class TestRingLedger:
    def test_available_initially(self):
        ring = make_ring()
        assert ring.available_sync_time == pytest.approx(0.0075)

    def test_allocate_reduces_available(self):
        ring = make_ring()
        ring.allocate("c1", 0.002)
        assert ring.available_sync_time == pytest.approx(0.0055)
        assert ring.allocated_sync_time == pytest.approx(0.002)

    def test_release_restores(self):
        ring = make_ring()
        ring.allocate("c1", 0.002)
        returned = ring.release("c1")
        assert returned == 0.002
        assert ring.available_sync_time == pytest.approx(0.0075)

    def test_over_allocation_rejected(self):
        ring = make_ring()
        with pytest.raises(ConfigurationError):
            ring.allocate("c1", 0.009)

    def test_double_allocation_rejected(self):
        ring = make_ring()
        ring.allocate("c1", 0.001)
        with pytest.raises(ConfigurationError):
            ring.allocate("c1", 0.001)

    def test_release_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_ring().release("ghost")

    def test_sync_bits_per_rotation(self):
        ring = make_ring()
        ring.allocate("c1", 0.001)
        assert ring.sync_bits_per_rotation("c1") == pytest.approx(0.001 * BW)
        assert ring.sync_bits_per_rotation("none") == 0.0

    def test_invalid_ring_params(self):
        with pytest.raises(ConfigurationError):
            make_ring(ttrt=0.0)
        with pytest.raises(ConfigurationError):
            make_ring(overhead=0.01)  # >= TTRT
        with pytest.raises(ConfigurationError):
            make_ring(propagation_delay=-1.0)

    def test_zero_allocation_rejected(self):
        with pytest.raises(ConfigurationError):
            make_ring().allocate("c1", 0.0)


class TestTimedTokenFacts:
    def test_max_rotation_is_twice_ttrt(self):
        assert max_token_rotation(0.008) == pytest.approx(0.016)

    def test_worst_case_wait(self):
        assert worst_case_token_wait(0.008) == pytest.approx(0.016)

    def test_min_allocation_covers_max_frame(self):
        h = min_sync_allocation(BW)
        assert h >= 4500 * 8 / BW

    def test_capacity_check(self):
        assert sync_capacity_check([0.002, 0.003], ttrt=0.008, overhead=0.001)
        assert not sync_capacity_check([0.005, 0.004], ttrt=0.008, overhead=0.001)

    def test_rejects_bad_ttrt(self):
        with pytest.raises(ConfigurationError):
            max_token_rotation(-1.0)

