"""JSON-lines front-end: dispatch, malformed input, and a TCP round trip."""

import asyncio
import json
import math

import pytest

from repro.config import CACConfig, NetworkConfig, ServiceConfig, build_network
from repro.service.bench import TickClock
from repro.service.frontend import MAX_LINE_BYTES, handle_request, listen
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


def _service(journal_dir=None):
    return AdmissionService(
        build_network(NET),
        network_config=NET,
        cac_config=CACConfig(),
        service_config=ServiceConfig(snapshot_every=0),
        journal_dir=journal_dir,
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
    """Pipelined lines are answered in order; a line of exactly
    ``MAX_LINE_BYTES`` is served and one byte more is refused."""

    async def scenario():
        async with _service() as service:
            server = await listen(service, "127.0.0.1", 0)
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
                    _padded_admit(MAX_LINE_BYTES, "c2"),
                    _padded_admit(MAX_LINE_BYTES + 1, "c3"),
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
    assert verdicts == [
        "OK", "ERROR", "ADMITTED", "ERROR", "ADMITTED", "ERROR", "RELEASED"
    ]


def _bad_admit(**fields):
    return {**ADMIT_C1, "conn_id": "bad", **fields}


def _padded_admit(n_bytes, conn_id="bad"):
    """An otherwise valid admit line of exactly ``n_bytes`` bytes."""
    request = {**ADMIT_C1, "conn_id": conn_id, "padding": ""}
    request["padding"] = "x" * (n_bytes - len(json.dumps(request)))
    line = json.dumps(request)
    assert len(line.encode()) == n_bytes
    return line


#: Requests the front end must refuse before they reach the dispatcher:
#: request objects, or raw lines sent as they are.
BAD_REQUESTS = {
    "deadline-nan": _bad_admit(deadline=math.nan),
    "deadline-inf": _bad_admit(deadline=math.inf),
    "traffic-c1-nan": _bad_admit(traffic={**ADMIT_C1["traffic"], "c1": math.nan}),
    "traffic-p1-inf": _bad_admit(traffic={**ADMIT_C1["traffic"], "p1": math.inf}),
    # An integer too large for a float overflows instead of parsing.
    "traffic-c1-huge-int": _bad_admit(traffic={**ADMIT_C1["traffic"], "c1": 10**400}),
    "deadline-huge-int": _bad_admit(deadline=10**400),
    "priority-inf": _bad_admit(priority=math.inf),
    "priority-fractional": _bad_admit(priority=1.5),
    "priority-list": _bad_admit(priority=[1]),
    "timeout-nan": _bad_admit(timeout=math.nan),
    "timeout-zero": _bad_admit(timeout=0),
    "release-timeout-negative": {"op": "release", "conn_id": "c0", "timeout": -1.0},
    # An otherwise valid admit one byte over the front end's line bound.
    "line-over-stream-limit": _padded_admit(MAX_LINE_BYTES + 1),
    # Deeper than the JSON decoder's recursion limit.
    "json-nested-too-deep": "[" * 30_000,
}


@pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
def test_non_finite_or_out_of_range_fields_answer_error(case, tmp_path):
    """The bad line is answered ERROR, leaves state and journal untouched,
    and the next request on the same connection is still served."""

    async def scenario():
        async with _service(journal_dir=str(tmp_path / "wal")) as service:
            server = await listen(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)

                async def ask(request):
                    raw = request if isinstance(request, str) else json.dumps(request)
                    writer.write((raw + "\n").encode())
                    # A dead dispatcher never answers: time out, don't hang.
                    line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                    return json.loads(line)

                try:
                    before = (service.signature(), service.journal.next_seq)
                    answer = await ask(BAD_REQUESTS[case])
                    after = (service.signature(), service.journal.next_seq)
                    follow_up = await ask(ADMIT_C1)
                finally:
                    writer.close()
                    await writer.wait_closed()
                return answer, before, after, follow_up

    answer, before, after, follow_up = asyncio.run(scenario())
    assert answer["verdict"] == "ERROR"
    assert after == before
    assert follow_up["verdict"] == "ADMITTED"

