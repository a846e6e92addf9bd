"""JSON-lines TCP front-end for the admission service.

One request object per line, one response object per line, in order::

    {"op": "admit", "conn_id": "c1", "source_host": "host1-1",
     "dest_host": "host2-1", "traffic": {"type": "DualPeriodicTraffic",
     "c1": 120000, "p1": 0.015, "c2": 60000, "p2": 0.005},
     "deadline": 0.09, "priority": 0}
    {"op": "release", "conn_id": "c1"}
    {"op": "metrics"}
    {"op": "ping"}

``conn_id`` must be a non-empty string: an admit or release without one
is answered ``ERROR``, and the admit's endpoint, traffic and deadline
fields are decoded as strictly as a journaled request
(:func:`repro.service.codec.dict_to_spec`: string hosts, a registered
traffic model, a finite positive deadline).

Responses carry at least ``verdict`` (``ADMITTED``/``REJECTED``/``BUSY``/
``TIMEOUT``/``RELEASED``/``UNKNOWN``/``ERROR`` — or ``OK`` for
``ping``/``metrics``).  A request line holds at most
:data:`MAX_LINE_BYTES` bytes before its newline.  Malformed input never
kills the connection: the offending line — unparsable, nested too deeply
for the JSON decoder, or longer than :data:`MAX_LINE_BYTES` — is answered
with an ``ERROR`` verdict and parsing continues at the next line.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Dict, Optional

from repro.errors import JournalError, ReproError
from repro.service.codec import dict_to_spec, is_number
from repro.service.server import AdmissionService

#: Longest request line, in bytes without its newline, that a client may
#: send; a longer one is answered ``ERROR`` and skipped.  This is the
#: ``limit`` of every :class:`asyncio.StreamReader` the server opens.
MAX_LINE_BYTES = 64 * 1024


def _error(reason: str, conn_id: str = "") -> Dict[str, Any]:
    return {"verdict": "ERROR", "conn_id": conn_id, "reason": reason}


def _number(payload: Dict[str, Any], key: str) -> Optional[float]:
    """``payload[key]`` as a finite float (``None`` when absent); a bool,
    string or other non-number is refused
    (:func:`~repro.service.codec.is_number`)."""
    raw = payload.get(key)
    if raw is None:
        return None
    value = math.nan
    if is_number(raw):
        try:
            value = float(raw)
        except OverflowError:
            pass
    if not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {raw!r}")
    return value


def _timeout(payload: Dict[str, Any]) -> Optional[float]:
    timeout = _number(payload, "timeout")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout!r}")
    return timeout


def _priority(payload: Dict[str, Any]) -> int:
    priority = _number(payload, "priority")
    if priority is None:
        return 0
    if not priority.is_integer():
        raise ValueError(f"priority must be an integer, got {priority!r}")
    return int(priority)


async def handle_request(
    service: AdmissionService, payload: Dict[str, Any]
) -> Dict[str, Any]:
    """Dispatch one parsed request object to the service."""
    op = payload.get("op")
    raw_id = payload.get("conn_id")
    conn_id = raw_id if isinstance(raw_id, str) else ""
    if op == "ping":
        return {"verdict": "OK", "op": "ping"}
    if op == "metrics":
        return {"verdict": "OK", "metrics": service.metrics_snapshot()}
    if op == "release":
        if not conn_id:
            return _error("release needs a non-empty string conn_id")
        try:
            timeout = _timeout(payload)
        except ValueError as exc:
            return _error(f"bad release request: {exc}", conn_id)
        response = await service.submit_release(conn_id, timeout=timeout)
        return response.to_dict()
    if op == "admit":
        try:
            spec = dict_to_spec(payload)
            priority = _priority(payload)
            timeout = _timeout(payload)
        except (ValueError, JournalError) as exc:
            return _error(f"bad admit request: {exc}", conn_id)
        response = await service.submit_admit(
            spec, priority=priority, timeout=timeout
        )
        return response.to_dict()
    return _error(f"unknown op {op!r}", conn_id)


async def _send(writer: asyncio.StreamWriter, answer: Dict[str, Any]) -> None:
    writer.write((json.dumps(answer) + "\n").encode())
    await writer.drain()


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Consume the rest of an over-long line, newline included."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)


async def handle_connection(
    service: AdmissionService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client: read JSON lines, answer JSON lines."""
    try:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial  # last line without a newline, or EOF
            except asyncio.LimitOverrunError:
                # ``readline`` would raise ValueError here and leave the
                # line's unread tail to be parsed as the next request.
                await _send(writer, _error("request line too long"))
                await _skip_line(reader)
                continue
            if not line:
                break
            text = line.decode("utf-8", "replace").strip()
            if not text:
                continue
            try:
                payload = json.loads(text)
                if not isinstance(payload, dict):
                    raise ValueError("request must be a JSON object")
                answer = await handle_request(service, payload)
            except (ValueError, RecursionError) as exc:
                answer = _error(f"unparsable request: {exc}")
            except ReproError as exc:
                answer = _error(f"{type(exc).__name__}: {exc}")
            await _send(writer, answer)
    except (ConnectionResetError, asyncio.IncompleteReadError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass


async def listen(
    service: AdmissionService, host: str = "127.0.0.1", port: int = 8642
) -> asyncio.AbstractServer:
    """Accept clients on ``host:port`` (0 picks a free port); each is
    served by :func:`handle_connection` with lines of at most
    :data:`MAX_LINE_BYTES`."""

    async def _client(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await handle_connection(service, reader, writer)

    return await asyncio.start_server(_client, host, port, limit=MAX_LINE_BYTES)


async def serve(
    service: AdmissionService,
    host: str = "127.0.0.1",
    port: int = 8642,
    ready: Optional["asyncio.Event"] = None,
) -> None:
    """Run the TCP front-end until cancelled (service must be started)."""
    server = await listen(service, host, port)
    if ready is not None:
        ready.set()
    async with server:
        await server.serve_forever()
