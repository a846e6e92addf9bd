"""JSON codecs for connection specs, routes and admitted records.

Everything the journal persists — and everything the JSON-lines front-end
accepts — round-trips through these functions.  Two properties matter:

* **bit-exactness**: floats are serialized by :mod:`json` via
  ``float.__repr__``, whose shortest-repr output parses back to the exact
  same IEEE-754 double.  A journaled allocation therefore restores to the
  identical bit pattern, which is what makes the recovery signature check
  (:mod:`repro.service.state`) meaningful.
* **closed type registry**: traffic descriptors are reconstructed only
  from an explicit allowlist of dataclass models, keyed by class name.
  Unknown types fail loudly with :class:`~repro.errors.JournalError`
  instead of guessing.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Type

from repro.errors import JournalError
from repro.network.connection import ConnectionRecord, ConnectionSpec
from repro.network.routing import Route
from repro.traffic.cbr import CBRTraffic
from repro.traffic.descriptor import TrafficDescriptor
from repro.traffic.dual_periodic import DualPeriodicTraffic
from repro.traffic.leaky_bucket import LeakyBucketTraffic
from repro.traffic.periodic import PeriodicTraffic

#: Traffic models the service can persist and accept over the wire.  All
#: are frozen dataclasses, so ``asdict``/constructor round-trips losslessly.
TRAFFIC_TYPES: Dict[str, Type[TrafficDescriptor]] = {
    cls.__name__: cls
    for cls in (
        DualPeriodicTraffic,
        PeriodicTraffic,
        LeakyBucketTraffic,
        CBRTraffic,
    )
}


def traffic_to_dict(traffic: TrafficDescriptor) -> Dict[str, Any]:
    name = type(traffic).__name__
    if name not in TRAFFIC_TYPES or not dataclasses.is_dataclass(traffic):
        raise JournalError(
            f"traffic type {name!r} is not journal-serializable "
            f"(known: {sorted(TRAFFIC_TYPES)})"
        )
    payload: Dict[str, Any] = {"type": name}
    payload.update(dataclasses.asdict(traffic))
    return payload


def is_number(value: Any) -> bool:
    """Whether a decoded JSON value is a number: an ``int`` or a
    ``float``, but not a ``bool``, which Python counts as an ``int``.

    The front end's number fields, traffic payloads and scenario files
    are checked with this rule, so ``true`` never passes there as ``1``.
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value: Any, field: str) -> float:
    """``value`` as a float, or :class:`JournalError` unless it
    :func:`is_number` and fits a float."""
    if not is_number(value):
        raise JournalError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise JournalError(f"{field} is too large for a float") from None


def _text(value: Any, field: str) -> str:
    """``value`` itself, or :class:`JournalError` unless it is a string."""
    if not isinstance(value, str):
        raise JournalError(f"{field} must be a string, got {value!r}")
    return value


def dict_to_traffic(payload: Any) -> TrafficDescriptor:
    if not isinstance(payload, Mapping):
        raise JournalError(f"traffic must be an object, got {payload!r}")
    data = dict(payload)
    name = data.pop("type", None)
    cls = TRAFFIC_TYPES.get(str(name))
    if cls is None:
        raise JournalError(f"unknown traffic type {name!r}")
    for key, value in data.items():
        if not is_number(value):
            raise JournalError(
                f"bad {name} payload: {key} must be a number, got {value!r}"
            )
    try:
        return cls(**data)
    except (TypeError, OverflowError) as exc:
        raise JournalError(f"bad {name} payload: {exc}") from None


def spec_to_dict(spec: ConnectionSpec) -> Dict[str, Any]:
    return {
        "conn_id": spec.conn_id,
        "source_host": spec.source_host,
        "dest_host": spec.dest_host,
        "traffic": traffic_to_dict(spec.traffic),
        "deadline": spec.deadline,
    }


def dict_to_spec(payload: Mapping[str, Any]) -> ConnectionSpec:
    """A connection request from its five fields, strictly: string ids and
    hosts (a non-empty ``conn_id``), a registered traffic model and a
    finite positive deadline.  Other keys are ignored, so the front end
    decodes its admit requests with this too."""
    try:
        return ConnectionSpec(
            conn_id=_text(payload["conn_id"], "conn_id"),
            source_host=_text(payload["source_host"], "source_host"),
            dest_host=_text(payload["dest_host"], "dest_host"),
            traffic=dict_to_traffic(payload["traffic"]),
            deadline=_number(payload["deadline"], "deadline"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"bad connection spec payload: {exc}") from None


def route_to_dict(route: Route) -> Dict[str, Any]:
    return {
        "source_host": route.source_host,
        "dest_host": route.dest_host,
        "source_ring": route.source_ring,
        "dest_ring": route.dest_ring,
        "source_device": route.source_device,
        "dest_device": route.dest_device,
        "switch_path": list(route.switch_path),
    }


def dict_to_route(payload: Mapping[str, Any]) -> Route:
    try:
        source_device = payload["source_device"]
        dest_device = payload["dest_device"]
        return Route(
            source_host=str(payload["source_host"]),
            dest_host=str(payload["dest_host"]),
            source_ring=str(payload["source_ring"]),
            dest_ring=str(payload["dest_ring"]),
            source_device=None if source_device is None else str(source_device),
            dest_device=None if dest_device is None else str(dest_device),
            switch_path=[str(s) for s in payload["switch_path"]],
        )
    except (KeyError, TypeError) as exc:
        raise JournalError(f"bad route payload: {exc}") from None


def record_to_dict(record: ConnectionRecord) -> Dict[str, Any]:
    """An admitted record, route included *verbatim*.

    The route is journaled rather than recomputed at restore time: an
    admission decided on a degraded topology may hold a route that the
    healthy topology's router would never produce, and replay must charge
    exactly the rings the original decision charged.
    """
    return {
        "spec": spec_to_dict(record.spec),
        "route": route_to_dict(record.route),
        "h_source": record.h_source,
        "h_dest": record.h_dest,
        "delay_bound": record.delay_bound,
    }


def dict_to_record(payload: Mapping[str, Any]) -> ConnectionRecord:
    try:
        bound = payload.get("delay_bound")
        return ConnectionRecord(
            spec=dict_to_spec(payload["spec"]),
            route=dict_to_route(payload["route"]),
            h_source=_number(payload["h_source"], "h_source"),
            h_dest=_number(payload["h_dest"], "h_dest"),
            delay_bound=None if bound is None else _number(bound, "delay_bound"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"bad connection record payload: {exc}") from None
