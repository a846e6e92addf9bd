"""The product port path: shared-port errors through the delay engine.

``OutputPortServer.analyze_aggregate`` holds the FIFO port checks; these
tests drive them through ``DelayAnalyzer.compute`` and the admission
controller, so a finite port buffer or an aggregate over the link rate
ends as an error naming the port, and then as a refusal that leaves the
controller's state as it was.
"""

import pytest

from repro.config import CACConfig, NetworkConfig, build_network
from repro.core import AdmissionController
from repro.core.delay import ConnectionLoad, DelayAnalyzer
from repro.errors import BufferOverflowError, UnstableSystemError
from repro.network.connection import ConnectionSpec
from repro.network.routing import compute_route
from repro.traffic import DualPeriodicTraffic
from repro.units import MBIT

#: Long-term rate 8 Mb/s, bursts of 240 kbit.
TRAFFIC = DualPeriodicTraffic(c1=240_000.0, p1=0.030, c2=80_000.0, p2=0.005)

SMALL_BUFFER = NetworkConfig(port_buffer_bits=1_000.0)
#: 5 Mb/s ATM links: about 4.53 Mb/s of payload, under TRAFFIC's rate.
SLOW_LINKS = NetworkConfig(atm_link_rate=5 * MBIT)


def _spec(conn_id, src="host1-1", dst="host2-1"):
    return ConnectionSpec(conn_id, src, dst, TRAFFIC, 0.2)


def _backbone_load(topo):
    spec = _spec("c1")
    route = compute_route(topo, spec.source_host, spec.dest_host)
    return ConnectionLoad(spec, route, 0.002, 0.002), route


def _uplink_name(topo, route):
    return topo.devices[route.source_device].uplink_port.name


def test_engine_names_the_overflowing_port():
    topo = build_network(SMALL_BUFFER)
    load, route = _backbone_load(topo)
    analyzer = DelayAnalyzer(topo, SMALL_BUFFER)
    with pytest.raises(BufferOverflowError) as info:
        analyzer.compute([load])
    assert str(info.value).startswith(f"{_uplink_name(topo, route)}: worst-case backlog")


def test_engine_names_the_overloaded_port():
    topo = build_network(SLOW_LINKS)
    load, route = _backbone_load(topo)
    analyzer = DelayAnalyzer(topo, SLOW_LINKS)
    with pytest.raises(UnstableSystemError) as info:
        analyzer.compute([load])
    assert str(info.value).startswith(f"{_uplink_name(topo, route)}: aggregate rate")
    assert "exceeds link payload rate" in str(info.value)


def _state(cac):
    ledgers = {
        rid: (ring.allocated_sync_time, ring.allocation_of("c1"))
        for rid, ring in cac.topology.rings.items()
    }
    bounds = {cid: rec.delay_bound for cid, rec in cac.connections.items()}
    return list(cac.connections), bounds, ledgers, cac.audit_allocations()


@pytest.mark.parametrize("incremental", [True, False])
@pytest.mark.parametrize("config", [SMALL_BUFFER, SLOW_LINKS], ids=["buffer", "rate"])
def test_controller_refuses_without_state_change(config, incremental):
    topo = build_network(config)
    cac = AdmissionController(
        topo, config, cac_config=CACConfig(incremental=incremental)
    )
    # A ring-local connection crosses no ATM port, so it is admitted.
    assert cac.request(_spec("local", dst="host1-2")).admitted
    before = _state(cac)
    result = cac.request(_spec("c1"))
    assert not result.admitted
    assert result.reason == "infeasible even at maximum available allocation"
    assert _state(cac) == before
    assert all(abs(d) < 1e-12 for d in cac.audit_allocations().values())
