"""JSON codec for scenario specs: strict, repr-exact, hashable.

Same contract as the service journal codec (:mod:`repro.service.codec`):

* **bit-exactness** — floats serialize through ``float.__repr__`` (the
  shortest repr that parses back to the identical IEEE-754 double), so
  ``parse(serialize(spec)) == spec`` holds field-for-field including every
  float bit;
* **strictness** — unknown fields, missing fields and type mismatches
  raise :class:`~repro.errors.ScenarioSpecError` at every nesting level; a
  mistyped knob must never silently run the default scenario;
* **stable hashing** — :func:`spec_hash` digests the canonical (sorted,
  compact) JSON form, so the hash identifies scenario *content* across
  processes and sessions.  Decoded specs coerce numeric fields to their
  declared types, so a hand-edited ``600`` and a serialized ``600.0``
  hash identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.config import NetworkConfig
from repro.errors import JournalError, ScenarioSpecError
from repro.faults.injector import FaultConfig, ScriptedFault
from repro.faults.retry import RetryPolicy
from repro.service.codec import dict_to_traffic, is_number, traffic_to_dict
from repro.scenario.spec import (
    FORMAT_VERSION,
    AnalysisKnobs,
    ArrivalsSpec,
    ConnectionEntry,
    FaultPlan,
    PacketRunSpec,
    ScenarioSpec,
)
from repro.topo.spec import (
    BackboneLinkSpec,
    DeviceSpec,
    RingSpec,
    SwitchSpec,
    TopologySpec,
)
from repro.traffic.generators import WorkloadSpec

_T = TypeVar("_T")

#: Resolved type hints per flat dataclass (computed once; ``from __future__
#: import annotations`` turns field types into strings otherwise).
_HINT_CACHE: Dict[type, Dict[str, Any]] = {}


def _hints(cls: type) -> Dict[str, Any]:
    if cls not in _HINT_CACHE:
        _HINT_CACHE[cls] = get_type_hints(cls)
    return _HINT_CACHE[cls]


def _reject_unknown(
    payload: Mapping[str, Any], allowed: Tuple[str, ...], what: str
) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ScenarioSpecError(
            f"{what}: unknown field(s) {unknown} (allowed: {sorted(allowed)})"
        )


def _coerce(value: Any, hint: Any, what: str) -> Any:
    """Coerce a JSON value to a declared field type, strictly."""
    origin = get_origin(hint)
    if origin is Union:
        args = [a for a in get_args(hint) if a is not type(None)]
        if value is None:
            if type(None) in get_args(hint):
                return None
            raise ScenarioSpecError(f"{what}: may not be null")
        if len(args) == 1:
            return _coerce(value, args[0], what)
        raise ScenarioSpecError(f"{what}: unsupported union type")
    if hint is float:
        if not is_number(value):
            raise ScenarioSpecError(f"{what}: expected a number, got {value!r}")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioSpecError(f"{what}: expected an integer, got {value!r}")
        return value
    if hint is bool:
        if not isinstance(value, bool):
            raise ScenarioSpecError(f"{what}: expected a boolean, got {value!r}")
        return value
    if hint is str:
        if not isinstance(value, str):
            raise ScenarioSpecError(f"{what}: expected a string, got {value!r}")
        return value
    raise ScenarioSpecError(f"{what}: unsupported field type {hint!r}")


def _flat_to_dict(obj: Any) -> Dict[str, Any]:
    """Encode a flat (scalar-field) frozen dataclass field-by-field."""
    return {
        f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
    }


def _flat_from_dict(cls: Type[_T], payload: Any, what: str) -> _T:
    """Decode a flat dataclass, rejecting unknown/missing/mistyped fields."""
    if not isinstance(payload, Mapping):
        raise ScenarioSpecError(f"{what}: expected an object, got {payload!r}")
    fields = dataclasses.fields(cls)  # type: ignore[arg-type]
    names = tuple(f.name for f in fields)
    _reject_unknown(payload, names, what)
    hints = _hints(cls)
    kwargs: Dict[str, Any] = {}
    for f in fields:
        if f.name in payload:
            kwargs[f.name] = _coerce(
                payload[f.name], hints[f.name], f"{what}.{f.name}"
            )
        elif (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ):
            raise ScenarioSpecError(f"{what}: missing required field {f.name!r}")
    try:
        return cls(**kwargs)
    except ScenarioSpecError:
        raise
    except Exception as exc:
        raise ScenarioSpecError(f"{what}: {exc}") from None


# ----------------------------------------------------------------------
# Structured sub-objects
# ----------------------------------------------------------------------


def _scripted_fault_to_dict(ev: ScriptedFault) -> Dict[str, Any]:
    target: Union[List[str], str]
    if isinstance(ev.target, tuple):
        target = [ev.target[0], ev.target[1]]
    else:
        target = ev.target
    return {"time": ev.time, "action": ev.action, "target": target}


def _dict_to_scripted_fault(payload: Any, what: str) -> ScriptedFault:
    if not isinstance(payload, Mapping):
        raise ScenarioSpecError(f"{what}: expected an object, got {payload!r}")
    _reject_unknown(payload, ("time", "action", "target"), what)
    try:
        raw_target = payload["target"]
        time = payload["time"]
        action = payload["action"]
    except KeyError as exc:
        raise ScenarioSpecError(f"{what}: missing field {exc}") from None
    target: Union[Tuple[str, str], str]
    if isinstance(raw_target, str):
        target = raw_target
    elif isinstance(raw_target, list) and len(raw_target) == 2:
        target = (str(raw_target[0]), str(raw_target[1]))
    else:
        raise ScenarioSpecError(
            f"{what}.target: expected a node id or a 2-element link pair"
        )
    try:
        return ScriptedFault(
            time=_coerce(time, float, f"{what}.time"),
            action=_coerce(action, str, f"{what}.action"),
            target=target,
        )
    except ScenarioSpecError:
        raise
    except Exception as exc:
        raise ScenarioSpecError(f"{what}: {exc}") from None


def _connection_to_dict(entry: ConnectionEntry) -> Dict[str, Any]:
    try:
        traffic = traffic_to_dict(entry.traffic)
    except JournalError as exc:
        raise ScenarioSpecError(str(exc)) from None
    return {
        "conn_id": entry.conn_id,
        "source_host": entry.source_host,
        "dest_host": entry.dest_host,
        "traffic": traffic,
        "deadline": entry.deadline,
    }


def _dict_to_connection(payload: Any, what: str) -> ConnectionEntry:
    if not isinstance(payload, Mapping):
        raise ScenarioSpecError(f"{what}: expected an object, got {payload!r}")
    _reject_unknown(
        payload,
        ("conn_id", "source_host", "dest_host", "traffic", "deadline"),
        what,
    )
    try:
        traffic_payload = payload["traffic"]
        if not isinstance(traffic_payload, Mapping):
            raise ScenarioSpecError(f"{what}.traffic: expected an object")
        try:
            traffic = dict_to_traffic(traffic_payload)
        except JournalError as exc:
            raise ScenarioSpecError(f"{what}.traffic: {exc}") from None
        return ConnectionEntry(
            conn_id=_coerce(payload["conn_id"], str, f"{what}.conn_id"),
            source_host=_coerce(
                payload["source_host"], str, f"{what}.source_host"
            ),
            dest_host=_coerce(payload["dest_host"], str, f"{what}.dest_host"),
            traffic=traffic,
            deadline=_coerce(payload["deadline"], float, f"{what}.deadline"),
        )
    except KeyError as exc:
        raise ScenarioSpecError(f"{what}: missing field {exc}") from None


def _arrivals_to_dict(arrivals: ArrivalsSpec) -> Dict[str, Any]:
    payload = _flat_to_dict(arrivals)
    payload["workload"] = _flat_to_dict(arrivals.workload)
    return payload


def _dict_to_arrivals(payload: Any, what: str) -> ArrivalsSpec:
    if not isinstance(payload, Mapping):
        raise ScenarioSpecError(f"{what}: expected an object, got {payload!r}")
    data = dict(payload)
    workload_payload = data.pop("workload", None)
    workload: Optional[WorkloadSpec] = None
    if workload_payload is not None:
        workload = _flat_from_dict(
            WorkloadSpec, workload_payload, f"{what}.workload"
        )
    partial = _flat_from_dict(
        _ArrivalsScalars, data, what
    )
    kwargs = dataclasses.asdict(partial)
    if workload is not None:
        return ArrivalsSpec(workload=workload, **kwargs)
    return ArrivalsSpec(**kwargs)


@dataclasses.dataclass(frozen=True)
class _ArrivalsScalars:
    """The scalar fields of :class:`ArrivalsSpec` (codec helper)."""

    utilization: float
    seed: int = 1
    n_requests: int = 100
    warmup_requests: int = 10
    mean_lifetime: float = 600.0
    load_scale: float = 1.0
    count_host_blocked: bool = False


_TOPO_SECTIONS: Tuple[Tuple[str, type], ...] = (
    ("rings", RingSpec),
    ("switches", SwitchSpec),
    ("devices", DeviceSpec),
    ("links", BackboneLinkSpec),
)


def _topo_to_dict(topo: TopologySpec) -> Dict[str, Any]:
    return {
        key: [_flat_to_dict(entry) for entry in getattr(topo, key)]
        for key, _ in _TOPO_SECTIONS
    }


def _dict_to_topo(payload: Any, what: str) -> TopologySpec:
    if not isinstance(payload, Mapping):
        raise ScenarioSpecError(f"{what}: expected an object, got {payload!r}")
    _reject_unknown(payload, tuple(k for k, _ in _TOPO_SECTIONS), what)
    kwargs: Dict[str, Any] = {}
    for key, cls in _TOPO_SECTIONS:
        raw = payload.get(key, [])
        if not isinstance(raw, list):
            raise ScenarioSpecError(f"{what}.{key}: expected a list")
        kwargs[key] = tuple(
            _flat_from_dict(cls, entry, f"{what}.{key}[{i}]")
            for i, entry in enumerate(raw)
        )
    try:
        return TopologySpec(**kwargs)
    except ScenarioSpecError:
        raise
    except Exception as exc:
        raise ScenarioSpecError(f"{what}: {exc}") from None


def _faults_to_dict(plan: FaultPlan) -> Dict[str, Any]:
    return {
        "config": None if plan.config is None else _flat_to_dict(plan.config),
        "script": [_scripted_fault_to_dict(ev) for ev in plan.script],
        "retry": None if plan.retry is None else _flat_to_dict(plan.retry),
    }


def _dict_to_faults(payload: Any, what: str) -> FaultPlan:
    if not isinstance(payload, Mapping):
        raise ScenarioSpecError(f"{what}: expected an object, got {payload!r}")
    _reject_unknown(payload, ("config", "script", "retry"), what)
    config_payload = payload.get("config")
    retry_payload = payload.get("retry")
    script_payload = payload.get("script", [])
    if not isinstance(script_payload, list):
        raise ScenarioSpecError(f"{what}.script: expected a list")
    return FaultPlan(
        config=(
            None
            if config_payload is None
            else _flat_from_dict(FaultConfig, config_payload, f"{what}.config")
        ),
        script=tuple(
            _dict_to_scripted_fault(ev, f"{what}.script[{i}]")
            for i, ev in enumerate(script_payload)
        ),
        retry=(
            None
            if retry_payload is None
            else _flat_from_dict(RetryPolicy, retry_payload, f"{what}.retry")
        ),
    )


# ----------------------------------------------------------------------
# Top level
# ----------------------------------------------------------------------

_TOP_LEVEL = (
    "format",
    "name",
    "topology",
    "topo",
    "cac",
    "arrivals",
    "connections",
    "faults",
    "packet",
)


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """Encode a spec as a JSON-ready dict (round-trips exactly)."""
    return {
        "format": FORMAT_VERSION,
        "name": spec.name,
        "topology": _flat_to_dict(spec.topology),
        "topo": None if spec.topo is None else _topo_to_dict(spec.topo),
        "cac": _flat_to_dict(spec.cac),
        "arrivals": (
            None if spec.arrivals is None else _arrivals_to_dict(spec.arrivals)
        ),
        "connections": [_connection_to_dict(c) for c in spec.connections],
        "faults": None if spec.faults is None else _faults_to_dict(spec.faults),
        "packet": _flat_to_dict(spec.packet),
    }


def dict_to_spec(payload: Any) -> ScenarioSpec:
    """Decode a spec dict, rejecting unknown fields at every level."""
    if not isinstance(payload, Mapping):
        raise ScenarioSpecError(f"scenario: expected an object, got {payload!r}")
    _reject_unknown(payload, _TOP_LEVEL, "scenario")
    version = payload.get("format", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ScenarioSpecError(
            f"scenario: unsupported format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    if "name" not in payload:
        raise ScenarioSpecError("scenario: missing required field 'name'")
    arrivals_payload = payload.get("arrivals")
    topo_payload = payload.get("topo")
    faults_payload = payload.get("faults")
    connections_payload = payload.get("connections", [])
    if not isinstance(connections_payload, list):
        raise ScenarioSpecError("scenario.connections: expected a list")
    try:
        return ScenarioSpec(
            name=_coerce(payload["name"], str, "scenario.name"),
            topology=_flat_from_dict(
                NetworkConfig, payload.get("topology", {}), "scenario.topology"
            ),
            topo=(
                None
                if topo_payload is None
                else _dict_to_topo(topo_payload, "scenario.topo")
            ),
            cac=_flat_from_dict(
                AnalysisKnobs, payload.get("cac", {}), "scenario.cac"
            ),
            arrivals=(
                None
                if arrivals_payload is None
                else _dict_to_arrivals(arrivals_payload, "scenario.arrivals")
            ),
            connections=tuple(
                _dict_to_connection(c, f"scenario.connections[{i}]")
                for i, c in enumerate(connections_payload)
            ),
            faults=(
                None
                if faults_payload is None
                else _dict_to_faults(faults_payload, "scenario.faults")
            ),
            packet=_flat_from_dict(
                PacketRunSpec, payload.get("packet", {}), "scenario.packet"
            ),
        )
    except ScenarioSpecError:
        raise
    except Exception as exc:
        raise ScenarioSpecError(f"scenario: {exc}") from None


def dumps(spec: ScenarioSpec, indent: Optional[int] = 2) -> str:
    """Serialize a spec to JSON text (``repr``-exact floats)."""
    return json.dumps(spec_to_dict(spec), indent=indent, sort_keys=True)


def loads(text: str) -> ScenarioSpec:
    """Parse JSON text into a validated spec."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSpecError(f"scenario: invalid JSON: {exc}") from None
    return dict_to_spec(payload)


def save_file(spec: ScenarioSpec, path: str) -> str:
    """Write a spec to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(spec) + "\n")
    return path


def load_file(path: str) -> ScenarioSpec:
    """Read and validate a spec from ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def spec_hash(spec: ScenarioSpec) -> str:
    """Content hash of the canonical serialized form (sha256 hex)."""
    canonical = json.dumps(
        spec_to_dict(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
