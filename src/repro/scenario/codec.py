"""JSON codec for scenario specs: strict, repr-exact, hashable.

* **bit-exactness** — floats serialize through ``float.__repr__`` (the
  shortest repr that parses back to the identical IEEE-754 double), so
  ``parse(serialize(spec)) == spec`` holds including every float bit;
* **strictness** — unknown, missing and mistyped fields raise
  :class:`~repro.errors.ScenarioSpecError` naming the field's path
  (``scenario.connections[0].deadline``); a mistyped knob must never
  silently run the default scenario;
* **stable hashing** — :func:`spec_hash` digests the canonical (sorted,
  compact) JSON form.  Numeric fields are coerced to their declared
  types, so a hand-edited ``600`` and a serialized ``600.0`` hash alike.

The codec is derived from the spec dataclasses: :func:`encode` walks a
value field by field and :func:`decode` follows the type hints, so a new
spec field needs no codec edit.  Traffic descriptors go through the
journal codec's closed registry (:mod:`repro.service.codec`).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Any, Dict, Mapping, Optional, Union, cast, get_args, get_origin, get_type_hints

from repro.errors import JournalError, ScenarioSpecError
from repro.service.codec import dict_to_traffic, is_number, traffic_to_dict
from repro.scenario.spec import FORMAT_VERSION, ScenarioSpec
from repro.traffic.descriptor import TrafficDescriptor

#: The scalar field types, as the error messages name them.
_SCALARS = {float: "a number", int: "an integer", bool: "a boolean", str: "a string"}


@functools.lru_cache(maxsize=None)
def _hints(cls: type) -> Dict[str, Any]:
    """``cls``'s field types, resolved once (``from __future__ import
    annotations`` leaves them as strings)."""
    return get_type_hints(cls)


def encode(value: Any) -> Any:
    """A spec value as JSON-ready data: dataclasses become objects field by
    field, tuples become lists, traffic goes through the journal codec."""
    if isinstance(value, TrafficDescriptor):
        try:
            return traffic_to_dict(value)
        except JournalError as exc:
            raise ScenarioSpecError(str(exc)) from None
    if dataclasses.is_dataclass(value):
        return {
            f.name: encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return [encode(item) for item in value]
    return value


def decode(hint: Any, value: Any, path: str) -> Any:
    """Decode JSON data into a value of type ``hint``, strictly.

    Handles dataclasses (unknown, missing and mistyped fields refused),
    ``Optional``, unions tried in declaration order, ``Tuple[X, ...]`` and
    fixed-length tuples from JSON lists, traffic descriptors, and the
    scalars: a ``float`` takes any number but a bool, an ``int`` or a
    ``bool`` only itself, a ``str`` only a string.
    """
    origin = get_origin(hint)
    if origin is Union:
        options = [o for o in get_args(hint) if o is not type(None)]
        if value is None and len(options) < len(get_args(hint)):
            return None
        if len(options) == 1:
            return decode(options[0], value, path)
        for option in options:
            try:
                return decode(option, value, path)
            except ScenarioSpecError:
                pass
        raise ScenarioSpecError(
            f"{path}: {value!r} matches none of the declared types"
        )
    if origin is tuple:
        if not isinstance(value, list):
            raise ScenarioSpecError(f"{path}: expected a list, got {value!r}")
        items = get_args(hint)
        if len(items) == 2 and items[1] is Ellipsis:
            items = (items[0],) * len(value)
        elif len(items) != len(value):
            raise ScenarioSpecError(
                f"{path}: expected {len(items)} items, got {len(value)}"
            )
        return tuple(
            decode(item, v, f"{path}[{i}]")
            for i, (item, v) in enumerate(zip(items, value))
        )
    if hint is TrafficDescriptor:
        try:
            return dict_to_traffic(value)
        except JournalError as exc:
            raise ScenarioSpecError(f"{path}: {exc}") from None
    if dataclasses.is_dataclass(hint):
        return _decode_dataclass(hint, value, path)
    if hint is float and is_number(value):
        try:
            return float(value)
        except OverflowError:
            raise ScenarioSpecError(f"{path}: too large for a float") from None
    if hint is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if hint in (bool, str) and isinstance(value, hint):
        return value
    if hint in _SCALARS:
        raise ScenarioSpecError(
            f"{path}: expected {_SCALARS[hint]}, got {value!r}"
        )
    raise ScenarioSpecError(f"{path}: unsupported field type {hint!r}")


def _decode_dataclass(cls: Any, value: Any, path: str) -> Any:
    if not isinstance(value, Mapping):
        raise ScenarioSpecError(f"{path}: expected an object, got {value!r}")
    fields = dataclasses.fields(cls)
    names = sorted(f.name for f in fields)
    unknown = sorted(set(value) - set(names))
    if unknown:
        raise ScenarioSpecError(f"{path}: unknown field(s) {unknown} (allowed: {names})")
    hints = _hints(cls)
    kwargs: Dict[str, Any] = {}
    for f in fields:
        if f.name in value:
            kwargs[f.name] = decode(hints[f.name], value[f.name], f"{path}.{f.name}")
        elif (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ):
            raise ScenarioSpecError(f"{path}: missing required field {f.name!r}")
    try:
        return cls(**kwargs)
    except Exception as exc:
        raise ScenarioSpecError(f"{path}: {exc}") from None


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """Encode a spec as a JSON-ready dict (round-trips exactly)."""
    payload: Dict[str, Any] = encode(spec)
    payload["format"] = FORMAT_VERSION
    return payload


def dict_to_spec(payload: Any) -> ScenarioSpec:
    """Decode a spec dict, rejecting unknown fields at every level."""
    if not isinstance(payload, Mapping):
        raise ScenarioSpecError(f"scenario: expected an object, got {payload!r}")
    data = dict(payload)
    version = data.pop("format", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ScenarioSpecError(
            f"scenario: unsupported format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return cast(ScenarioSpec, decode(ScenarioSpec, data, "scenario"))


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
    canonical = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
