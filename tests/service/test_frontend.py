"""JSON-lines front-end: dispatch, malformed input, and a TCP round trip."""

import asyncio
import json

from repro.config import CACConfig, NetworkConfig, ServiceConfig, build_network
from repro.service.bench import TickClock
from repro.service.frontend import handle_connection, handle_request
from repro.service.server import AdmissionService

NET = NetworkConfig(n_rings=3, hosts_per_ring=4)

ADMIT_C1 = {
    "op": "admit",
    "conn_id": "c1",
    "source_host": "host1-1",
    "dest_host": "host2-1",
    "traffic": {
        "type": "DualPeriodicTraffic",
        "c1": 60_000.0,
        "p1": 0.015,
        "c2": 30_000.0,
        "p2": 0.005,
    },
    "deadline": 0.09,
}


def _service():
    return AdmissionService(
        build_network(NET),
        network_config=NET,
        cac_config=CACConfig(),
        service_config=ServiceConfig(snapshot_every=0),
        clock=TickClock(),
    )


def test_request_dispatch_covers_all_ops():
    async def scenario():
        async with _service() as service:
            ping = await handle_request(service, {"op": "ping"})
            admitted = await handle_request(service, dict(ADMIT_C1))
            metrics = await handle_request(service, {"op": "metrics"})
            released = await handle_request(
                service, {"op": "release", "conn_id": "c1"}
            )
            missing = await handle_request(service, {"op": "release"})
            unknown_op = await handle_request(service, {"op": "frobnicate"})
            bad_admit = await handle_request(
                service, {"op": "admit", "conn_id": "c2"}
            )
            return ping, admitted, metrics, released, missing, unknown_op, bad_admit

    ping, admitted, metrics, released, missing, unknown_op, bad_admit = (
        asyncio.run(scenario())
    )
    assert ping["verdict"] == "OK"
    assert admitted["verdict"] == "ADMITTED"
    assert admitted["delay_bound"] is not None
    assert metrics["metrics"]["n_admitted"] == 1
    assert released["verdict"] == "RELEASED"
    assert missing["verdict"] == "ERROR"
    assert unknown_op["verdict"] == "ERROR"
    assert bad_admit["verdict"] == "ERROR"


def test_tcp_round_trip_survives_malformed_lines():
    async def scenario():
        async with _service() as service:
            server = await asyncio.start_server(
                lambda r, w: handle_connection(service, r, w),
                "127.0.0.1",
                0,
            )
            port = server.sockets[0].getsockname()[1]
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                lines = [
                    json.dumps({"op": "ping"}),
                    "this is not json",
                    json.dumps(ADMIT_C1),
                    json.dumps([1, 2, 3]),
                    json.dumps({"op": "release", "conn_id": "c1"}),
                ]
                writer.write(("\n".join(lines) + "\n").encode())
                await writer.drain()
                answers = []
                for _ in lines:
                    answers.append(
                        json.loads((await reader.readline()).decode())
                    )
                writer.close()
                await writer.wait_closed()
                return answers

    answers = asyncio.run(scenario())
    verdicts = [a["verdict"] for a in answers]
    assert verdicts == ["OK", "ERROR", "ADMITTED", "ERROR", "RELEASED"]
