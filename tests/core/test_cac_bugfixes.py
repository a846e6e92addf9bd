"""Regression tests for the CAC accounting and staleness fixes.

Two bugs fixed together with the incremental engine:

* a request that *raises* (duplicate connection id) used to inflate
  ``n_requests`` anyway, silently depressing the admission probability;
* ``release()`` used to leave the survivors' recorded ``delay_bound``
  at its pre-departure value, so anything reading the records directly
  (metrics, failover, the fault audit) saw stale, loose bounds.
"""

import pytest

from repro.config import CACConfig, build_network
from repro.core import AdmissionController
from repro.errors import ConfigurationError
from repro.network.connection import ConnectionSpec
from repro.traffic import DualPeriodicTraffic

TRAFFIC = DualPeriodicTraffic(c1=240_000.0, p1=0.030, c2=80_000.0, p2=0.005)


def make_cac(**kw):
    return AdmissionController(
        build_network(), cac_config=CACConfig(beta=0.5, **kw)
    )


def spec(conn_id, src="host1-1", dst="host2-1", deadline=0.15):
    return ConnectionSpec(conn_id, src, dst, TRAFFIC, deadline)


class TestDuplicateIdAccounting:
    def test_duplicate_does_not_inflate_counters(self):
        cac = make_cac()
        cac.request(spec("c1"))
        n_requests, n_admitted = cac.n_requests, cac.n_admitted
        history_len = len(cac.history)
        ap = cac.admission_probability
        with pytest.raises(ConfigurationError):
            cac.request(spec("c1"))
        assert cac.n_requests == n_requests
        assert cac.n_admitted == n_admitted
        assert len(cac.history) == history_len
        assert cac.admission_probability == ap

    def test_unroutable_request_does_not_inflate_counters(self):
        cac = make_cac()
        cac.request(spec("c1"))
        with pytest.raises(Exception):
            cac.request(spec("ghost", src="host1-1", dst="no-such-host"))
        assert cac.n_requests == 1
        assert len(cac.history) == 1

    def test_duplicate_leaves_active_set_usable(self):
        cac = make_cac()
        cac.request(spec("c1"))
        with pytest.raises(ConfigurationError):
            cac.request(spec("c1"))
        # The controller still admits and accounts correctly afterwards.
        res = cac.request(spec("c2", src="host2-2", dst="host3-1"))
        assert res.admitted
        assert cac.n_requests == 2
        assert cac.n_admitted == 2


class TestReleaseRefreshesBounds:
    @pytest.mark.parametrize("incremental", [False, True])
    def test_survivor_bound_tightens_after_release(self, incremental):
        cac = make_cac(incremental=incremental)
        # Two cross-backbone connections sharing the s1->s2 output port.
        assert cac.request(spec("a", "host1-1", "host2-1")).admitted
        bound_alone = cac.connections["a"].delay_bound
        assert cac.request(spec("b", "host1-2", "host2-2")).admitted
        bound_loaded = cac.connections["a"].delay_bound
        assert bound_loaded >= bound_alone  # interference only adds delay
        cac.release("b")
        refreshed = cac.connections["a"].delay_bound
        # The stale value would still be bound_loaded; the refreshed one
        # must equal the bound "a" had when it was alone.
        assert refreshed == pytest.approx(bound_alone, rel=0, abs=0)

    def test_release_refresh_matches_current_delays(self):
        cac = make_cac()
        for i, (src, dst) in enumerate(
            [("host1-1", "host2-1"), ("host1-2", "host2-2"), ("host2-3", "host3-1")]
        ):
            assert cac.request(spec(f"c{i}", src, dst)).admitted
        cac.release("c1")
        live = cac.current_delays()
        for cid, rec in cac.connections.items():
            assert rec.delay_bound == live[cid]


class TestTwoRingGrantRollback:
    """A destination-ring refusal after the source ring has allocated
    must propagate and leave both ledgers and the active set untouched."""

    @staticmethod
    def _ledgers(cac):
        return {
            ring_id: ring.allocated_sync_time
            for ring_id, ring in cac.topology.rings.items()
        }

    def _assert_unchanged(self, cac, ledgers, active):
        assert self._ledgers(cac) == ledgers
        assert cac.topology.rings["ring1"].allocation_of("c2") == 0.0
        assert all(leak == 0.0 for leak in cac.audit_allocations().values())
        assert dict(cac.connections) == active

    def test_decide_rolls_back_source_on_destination_refusal(
        self, monkeypatch
    ):
        cac = make_cac()
        assert cac.request(spec("c1")).admitted
        ledgers, active = self._ledgers(cac), dict(cac.connections)

        def refuse(conn_id, sync_time):
            raise ConfigurationError("destination ledger refuses")

        monkeypatch.setattr(cac.topology.rings["ring2"], "allocate", refuse)
        with pytest.raises(ConfigurationError, match="refuses"):
            cac.request(spec("c2", src="host1-2", dst="host2-2"))
        self._assert_unchanged(cac, ledgers, active)

    def test_restore_rolls_back_source_on_destination_refusal(self):
        cac = make_cac()
        assert cac.request(spec("c1")).admitted
        ledgers, active = self._ledgers(cac), dict(cac.connections)
        over_budget = cac.topology.rings["ring2"].ttrt
        with pytest.raises(ConfigurationError, match="exceeds available"):
            cac.restore(
                spec("c2", src="host1-2", dst="host2-2"),
                h_source=0.001,
                h_dest=over_budget,
            )
        self._assert_unchanged(cac, ledgers, active)
