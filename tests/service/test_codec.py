"""Round-trip tests for the journal codec: every serialized form must
reconstruct an equal object, floats bit-for-bit (``repr`` round-trips)."""

import math

import pytest

from repro.config import CACConfig, build_network
from repro.core import AdmissionController
from repro.errors import JournalError
from repro.network.connection import ConnectionSpec
from repro.service.codec import (
    dict_to_record,
    dict_to_route,
    dict_to_spec,
    dict_to_traffic,
    record_to_dict,
    route_to_dict,
    spec_to_dict,
    traffic_to_dict,
)
from repro.traffic import (
    CBRTraffic,
    DualPeriodicTraffic,
    LeakyBucketTraffic,
    PeriodicTraffic,
)

TRAFFICS = [
    DualPeriodicTraffic(c1=120_000.0, p1=0.015, c2=60_000.0, p2=0.005),
    PeriodicTraffic(c=80_000.0, p=0.01),
    LeakyBucketTraffic(sigma=50_000.0, rho=4_000_000.0),
    CBRTraffic(rate=3_000_000.0),
]


@pytest.mark.parametrize("traffic", TRAFFICS, ids=lambda t: type(t).__name__)
def test_traffic_round_trip(traffic):
    assert dict_to_traffic(traffic_to_dict(traffic)) == traffic


def test_unknown_traffic_type_rejected():
    with pytest.raises(JournalError):
        dict_to_traffic({"type": "WeirdTraffic", "fields": {}})


@pytest.mark.parametrize("value", [True, False, "0.01"])
def test_traffic_field_must_be_a_number(value):
    with pytest.raises(JournalError, match="must be a number"):
        dict_to_traffic({"type": "PeriodicTraffic", "c": 40_000.0, "p": value})


def test_spec_round_trip():
    spec = ConnectionSpec(
        "s-1", "host1-1", "host2-2", TRAFFICS[0], 0.09
    )
    assert dict_to_spec(spec_to_dict(spec)) == spec


def _admitted_record():
    topo = build_network()
    cac = AdmissionController(topo, cac_config=CACConfig(beta=0.5))
    res = cac.request(
        ConnectionSpec("r-1", "host1-1", "host2-1", TRAFFICS[0], 0.09)
    )
    assert res.admitted
    return res.record


def test_route_round_trip():
    record = _admitted_record()
    route = record.route
    back = dict_to_route(route_to_dict(route))
    assert back == route


def test_record_round_trip_is_bit_exact():
    record = _admitted_record()
    back = dict_to_record(record_to_dict(record))
    assert back.conn_id == record.conn_id
    assert repr(back.h_source) == repr(record.h_source)
    assert repr(back.h_dest) == repr(record.h_dest)
    assert repr(back.delay_bound) == repr(record.delay_bound)
    assert back.spec == record.spec
    assert back.route == record.route


@pytest.mark.parametrize("value", [True, "0.09", None])
def test_spec_deadline_must_be_a_number(value):
    payload = spec_to_dict(
        ConnectionSpec("s-1", "host1-1", "host2-2", TRAFFICS[0], 0.09)
    )
    payload["deadline"] = value
    with pytest.raises(JournalError, match="deadline must be a number"):
        dict_to_spec(payload)


@pytest.mark.parametrize(
    "field, value",
    [
        ("conn_id", 7),
        ("conn_id", ""),
        ("source_host", 5),
        ("dest_host", ["host2-2"]),
        ("deadline", math.inf),
        ("deadline", 10**400),
    ],
    ids=[
        "conn-id-int",
        "conn-id-empty",
        "source-host-int",
        "dest-host-list",
        "deadline-inf",
        "deadline-huge-int",
    ],
)
def test_spec_fields_are_strict(field, value):
    """String ids and hosts, a non-empty ``conn_id``, a finite deadline:
    a journal or a front-end request that breaks one is refused, and a
    huge integer deadline does not escape as an ``OverflowError``."""
    payload = spec_to_dict(
        ConnectionSpec("s-1", "host1-1", "host2-2", TRAFFICS[0], 0.09)
    )
    payload[field] = value
    with pytest.raises(JournalError, match=field):
        dict_to_spec(payload)


def test_traffic_must_be_an_object():
    with pytest.raises(JournalError, match="traffic must be an object"):
        dict_to_traffic([["type", "CBRTraffic"], ["rate", 1e6]])


@pytest.mark.parametrize("field", ["h_source", "h_dest", "delay_bound"])
@pytest.mark.parametrize("value", [True, "0.001"])
def test_record_number_fields_must_be_numbers(field, value):
    payload = record_to_dict(_admitted_record())
    payload[field] = value
    with pytest.raises(JournalError, match=f"{field} must be a number"):
        dict_to_record(payload)


def test_record_delay_bound_may_be_null():
    payload = record_to_dict(_admitted_record())
    payload["delay_bound"] = None
    assert dict_to_record(payload).delay_bound is None
