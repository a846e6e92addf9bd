"""The terminal run's bounds-only stages and the lazy ``DelayReport.output``.

The engine analyzes the stages from a chain's tail on (the destination
MAC and its delay line, or a ring-local chain's MAC and delay line) for
their bounds only; ``DelayReport.output`` replays them with outputs on
first read.  These tests hold the replayed curve to an eager walk of the
whole chain, bit for bit, and check that the two kinds of cache entry
never stand in for each other.
"""

import pytest

import repro.fddi.mac_server as mac_server
from repro.config import build_network
from repro.core.delay import ConnectionLoad, DelayAnalyzer, DedicatedStage
from repro.fddi.token_ring_802_5 import TokenRing8025MacServer
from repro.network.connection import ConnectionSpec
from repro.network.routing import compute_route
from repro.traffic import DualPeriodicTraffic

TRAFFIC = DualPeriodicTraffic(c1=240_000.0, p1=0.030, c2=80_000.0, p2=0.005)


def _load(topo, src, dst, h_s=0.002, h_r=0.002, conn_id="c1"):
    spec = ConnectionSpec(conn_id, src, dst, TRAFFIC, 0.5)
    return ConnectionLoad(spec, compute_route(topo, src, dst), h_s, h_r)


def _bits(curve):
    return (curve.xs.tobytes(), curve.ys.tobytes(), curve.slopes.tobytes())


def _eager_output(analyzer, load):
    """The output of a lone ``load``, every stage analyzed with outputs
    and no analyzer cache involved."""
    envelope = analyzer.source_envelope(load.spec)
    for stage in analyzer.build_stages(load):
        if isinstance(stage, DedicatedStage):
            envelope = analyzer._tidy(stage.server.analyze(envelope).output)
        else:
            _, _, _, shift = analyzer._analyze_port(stage.port, {0: envelope})
            envelope = analyzer._port_output(envelope, stage.port.service_rate, shift)
    return envelope


class _TokenRingAnalyzer(DelayAnalyzer):
    """Builds 802.5 MAC stages (token holding time ``H``, cycle TTRT).

    The skeleton cache treats them as fixed stages, so each instance must
    analyze a single allocation.
    """

    def _mac_stage(self, load, source):
        ring = self.topology.rings[load.route.source_ring if source else load.route.dest_ring]
        side = "src" if source else "dst"
        return DedicatedStage(
            f"802.5-mac:{ring.ring_id}:{load.spec.conn_id}",
            TokenRing8025MacServer(
                load.h_source if source else load.h_dest,
                ring.ttrt,
                ring.bandwidth,
                name=f"mac-{side}:{load.spec.conn_id}",
                plans=self._plans,
            ),
        )


@pytest.fixture()
def topo():
    return build_network()


@pytest.fixture()
def deconvolve_calls(monkeypatch):
    calls = []
    original = mac_server.deconvolve

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(mac_server, "deconvolve", counting)
    return calls


class TestLazyOutput:
    @pytest.mark.parametrize(
        "analyzer_cls, dst",
        [
            (DelayAnalyzer, "host2-1"),
            (DelayAnalyzer, "host1-2"),
            (_TokenRingAnalyzer, "host2-1"),
        ],
        ids=["fddi-crossing", "ring-local", "802.5-crossing"],
    )
    def test_output_equals_an_eager_walk(self, topo, analyzer_cls, dst):
        analyzer = analyzer_cls(topo)
        load = _load(topo, "host1-1", dst)
        report = analyzer.compute([load])["c1"]
        assert _bits(report.output) == _bits(_eager_output(analyzer, load))
        assert report.total_delay > 0

    def test_output_is_read_once(self, topo, deconvolve_calls):
        report = DelayAnalyzer(topo).compute([_load(topo, "host1-1", "host2-1")])["c1"]
        first = report.output
        assert report.output is first
        assert len(deconvolve_calls) == 2  # source MAC, then the replay

    def test_a_crossing_probe_deconvolves_once(self, topo, deconvolve_calls):
        analyzer = DelayAnalyzer(topo)
        analyzer.compute([_load(topo, "host1-1", "host2-1")])
        assert len(deconvolve_calls) == 1  # the source MAC's; the destination's is skipped

    def test_a_ring_local_probe_does_not_deconvolve(self, topo, deconvolve_calls):
        DelayAnalyzer(topo).compute([_load(topo, "host1-1", "host1-2", h_r=0.0)])
        assert deconvolve_calls == []


class TestBoundsOnlyEntries:
    def test_servers_skip_only_the_output(self, topo):
        arrival = TRAFFIC.envelope(1.0)
        for server in (
            mac_server.FDDIMacServer(0.002, 0.008, 100e6),
            TokenRing8025MacServer(0.006, 0.008, 16e6),
        ):
            full = server.analyze(arrival)
            bounds = server.analyze(arrival, output=False)
            assert bounds.output is None and full.output is not None
            assert (bounds.delay_bound, bounds.backlog_bound, bounds.busy_interval) == (
                full.delay_bound,
                full.backlog_bound,
                full.busy_interval,
            )

    def test_a_bounds_only_stage_entry_never_answers_for_an_output(self, topo):
        # The ring-local chain's source MAC is bounds-only; the crossing
        # chain's has the same server key and input, and needs its output.
        analyzer = DelayAnalyzer(topo)
        analyzer.compute([_load(topo, "host1-1", "host1-2", h_r=0.0, conn_id="local")])
        crossing = _load(topo, "host1-1", "host2-1")
        warm = analyzer.compute([crossing])["c1"]
        cold = DelayAnalyzer(topo).compute([crossing])["c1"]
        assert warm.per_hop == cold.per_hop
        assert warm.per_hop_backlog == cold.per_hop_backlog
        assert _bits(warm.output) == _bits(cold.output)

    def test_a_replay_after_bounds_only_hits_matches_a_cold_one(self, topo):
        analyzer = DelayAnalyzer(topo)
        load = _load(topo, "host1-1", "host2-1")
        analyzer.compute([load])
        segment = analyzer.cache_stats()["segment"]
        again = analyzer.compute([load])["c1"]
        # Every run of the repeat hit, the bounds-only terminal run included.
        repeat = analyzer.cache_stats()["segment"]
        assert repeat["misses"] == segment["misses"]
        assert repeat["hits"] > segment["hits"]
        cold = DelayAnalyzer(topo).compute([load])["c1"]
        assert _bits(again.output) == _bits(cold.output)
        assert again.output is not None
