"""Property tests for the declarative topology layer.

Generated specs must validate, lower to routable topologies, and survive
the strict scenario codec repr-exactly; on feed-forward load sets the
fixed-point solver must reproduce the chain analysis bit for bit.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import AnalysisConfig
from repro.core.delay import ConnectionLoad, DelayAnalyzer
from repro.errors import ScenarioSpecError, TopologyError
from repro.network import compute_route
from repro.network.connection import ConnectionSpec
from repro.scenario import codec
from repro.scenario.spec import ArrivalsSpec, ScenarioSpec
from repro.topo import (
    BackboneLinkSpec,
    DeviceSpec,
    RingSpec,
    SwitchSpec,
    TopologySpec,
)
from repro.topo import generators
from repro.traffic import PeriodicTraffic

_relaxed = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: family name -> hypothesis strategy over its kwargs.
_FAMILY_ARGS = {
    "paper_triangle": st.fixed_dictionaries(
        {"n_rings": st.integers(1, 8), "hosts_per_ring": st.integers(1, 4)}
    ),
    "line": st.fixed_dictionaries(
        {"n_rings": st.integers(2, 16), "hosts_per_ring": st.integers(1, 3)}
    ),
    "ring_of_switches": st.fixed_dictionaries(
        {
            "n_rings": st.integers(3, 16),
            "hosts_per_ring": st.integers(1, 3),
            "unidirectional": st.booleans(),
        }
    ),
    "star": st.fixed_dictionaries(
        {"n_rings": st.integers(2, 12), "hosts_per_ring": st.integers(1, 3)}
    ),
    "partial_mesh": st.fixed_dictionaries(
        {
            "n_rings": st.integers(4, 12),
            "hosts_per_ring": st.integers(1, 3),
            "chord_stride": st.integers(2, 5),
        }
    ),
    "multi_ring_per_switch": st.fixed_dictionaries(
        {
            "n_switches": st.integers(1, 6),
            "rings_per_switch": st.integers(1, 3),
            "hosts_per_ring": st.integers(1, 3),
        }
    ),
}

_family_and_args = st.sampled_from(sorted(_FAMILY_ARGS)).flatmap(
    lambda name: st.tuples(st.just(name), _FAMILY_ARGS[name])
)


def _arrivals():
    return ArrivalsSpec(utilization=0.3, n_requests=5, warmup_requests=0)


def _endpoint_hosts(spec):
    """First host of the first ring, first host of the last ring."""
    return spec.rings[0].host_ids()[0], spec.rings[-1].host_ids()[0]


class TestGeneratedSpecsValidate:
    @_relaxed
    @given(_family_and_args)
    def test_families_validate_and_build(self, family_args):
        name, kwargs = family_args
        spec = generators.FAMILIES[name](**kwargs)
        spec.validate()  # must not raise
        topo = spec.build()
        topo.validate()
        assert len(topo.rings) == spec.n_rings
        assert len(topo.switches) == spec.n_switches
        assert len(topo.hosts) == sum(r.n_hosts for r in spec.rings)

    @_relaxed
    @given(_family_and_args)
    def test_cross_ring_routes_resolve(self, family_args):
        name, kwargs = family_args
        spec = generators.FAMILIES[name](**kwargs)
        if spec.n_rings < 2:
            return
        topo = spec.build()
        src, dst = _endpoint_hosts(spec)
        route = compute_route(topo, src, dst)
        assert route.source_ring == spec.rings[0].ring_id
        assert route.dest_ring == spec.rings[-1].ring_id
        assert len(route.switch_path) >= 1

    @_relaxed
    @given(_family_and_args)
    def test_generators_are_deterministic(self, family_args):
        name, kwargs = family_args
        assert generators.FAMILIES[name](**kwargs) == generators.FAMILIES[
            name
        ](**kwargs)


class TestCodecRoundTrip:
    @_relaxed
    @given(
        _family_and_args,
        st.floats(min_value=1e-4, max_value=1e-1, allow_nan=False),
    )
    def test_topo_specs_round_trip_exactly(self, family_args, ttrt):
        name, kwargs = family_args
        topo = generators.FAMILIES[name](**kwargs)
        # Perturb one entry with an awkward float to exercise repr-exact
        # encoding of the optional per-entry parameters.
        topo = dataclasses.replace(
            topo,
            rings=(dataclasses.replace(topo.rings[0], ttrt=ttrt),)
            + topo.rings[1:],
        )
        spec = ScenarioSpec(name="t", topo=topo, arrivals=_arrivals())
        back = codec.loads(codec.dumps(spec))
        assert back == spec
        assert back.topo == topo
        assert codec.spec_hash(back) == codec.spec_hash(spec)

    def test_unknown_topo_field_rejected(self):
        spec = ScenarioSpec(
            name="t", topo=generators.line(3), arrivals=_arrivals()
        )
        payload = codec.dumps(spec).replace(
            '"rings"', '"surprise": [], "rings"', 1
        )
        with pytest.raises(ScenarioSpecError):
            codec.loads(payload)


class TestValidationRejects:
    def _base(self, **overrides):
        fields = dict(
            rings=(RingSpec("ring1", n_hosts=1), RingSpec("ring2", n_hosts=1)),
            switches=(SwitchSpec("s1"), SwitchSpec("s2")),
            devices=(
                DeviceSpec("id1", "ring1", "s1"),
                DeviceSpec("id2", "ring2", "s2"),
            ),
            links=(BackboneLinkSpec("s1", "s2"),),
        )
        fields.update(overrides)
        return TopologySpec(**fields)

    def test_base_is_valid(self):
        self._base().validate()

    def test_duplicate_ring_id(self):
        spec = self._base(
            rings=(RingSpec("ring1", n_hosts=1), RingSpec("ring1", n_hosts=1))
        )
        with pytest.raises(TopologyError, match="duplicate ring"):
            spec.validate()

    def test_colliding_host_prefixes(self):
        spec = self._base(
            rings=(
                RingSpec("ring1", n_hosts=2, host_prefix="h"),
                RingSpec("ring2", n_hosts=2, host_prefix="h"),
            )
        )
        with pytest.raises(TopologyError, match="duplicate host"):
            spec.validate()

    def test_dangling_device_ring(self):
        spec = self._base(
            devices=(
                DeviceSpec("id1", "ring1", "s1"),
                DeviceSpec("id2", "ghost", "s2"),
            )
        )
        with pytest.raises(TopologyError, match="unknown ring"):
            spec.validate()

    def test_unbridged_ring(self):
        spec = self._base(devices=(DeviceSpec("id1", "ring1", "s1"),))
        with pytest.raises(TopologyError, match="no interface device"):
            spec.validate()

    def test_doubly_bridged_ring(self):
        spec = self._base(
            devices=(
                DeviceSpec("id1", "ring1", "s1"),
                DeviceSpec("id2", "ring2", "s2"),
                DeviceSpec("id3", "ring1", "s2"),
            )
        )
        with pytest.raises(TopologyError, match="bridged by both"):
            spec.validate()

    def test_disconnected_backbone(self):
        spec = self._base(links=())
        with pytest.raises(TopologyError, match="strongly connected"):
            spec.validate()

    def test_one_way_pair_not_strongly_connected(self):
        spec = self._base(
            links=(BackboneLinkSpec("s1", "s2", bidirectional=False),)
        )
        with pytest.raises(TopologyError, match="strongly connected"):
            spec.validate()

    def test_duplicate_directed_link(self):
        spec = self._base(
            links=(
                BackboneLinkSpec("s1", "s2"),
                BackboneLinkSpec("s2", "s1", bidirectional=False),
            )
        )
        with pytest.raises(TopologyError, match="duplicate backbone link"):
            spec.validate()

    def test_scenario_spec_surfaces_topo_errors(self):
        with pytest.raises(ScenarioSpecError, match="topo"):
            ScenarioSpec(name="t", topo=self._base(links=()))


class TestFixedPointFeedForwardEquivalence:
    @_relaxed
    @given(
        st.sampled_from(["paper_triangle", "line", "star"]),
        st.integers(3, 6),
    )
    def test_forced_fixed_point_bit_identical(self, family, n_rings):
        # These families route feed-forward; forcing every shared port
        # through the fixed-point solver must change nothing at all.
        kwargs = {"n_rings": n_rings, "hosts_per_ring": 2}
        spec = generators.FAMILIES[family](**kwargs)
        traffic = PeriodicTraffic(c=20_000.0, p=0.02)

        def loads_for(topo):
            loads = []
            ring_ids = [r.ring_id for r in spec.rings]
            for i, ring_id in enumerate(ring_ids):
                src = spec.ring(ring_id).host_ids()[0]
                dst_ring = ring_ids[(i + 1) % len(ring_ids)]
                dst = spec.ring(dst_ring).host_ids()[-1]
                conn = ConnectionSpec(f"c{i}", src, dst, traffic, 0.5)
                loads.append(
                    ConnectionLoad(
                        conn, compute_route(topo, src, dst), 0.001, 0.001
                    )
                )
            return loads

        topo_plain = spec.build()
        topo_forced = spec.build()
        plain = DelayAnalyzer(topo_plain).compute(loads_for(topo_plain))
        forced = DelayAnalyzer(
            topo_forced,
            analysis_config=AnalysisConfig(force_fixed_point=True),
        ).compute(loads_for(topo_forced))
        assert set(plain) == set(forced)
        for cid in plain:
            assert plain[cid].total_delay == forced[cid].total_delay
            assert plain[cid].per_hop == forced[cid].per_hop
            assert (
                plain[cid].output.fingerprint()
                == forced[cid].output.fingerprint()
            )
