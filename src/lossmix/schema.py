"""JSON Schema (2020-12) checks, for configs and for the types they build.

A type's setting that is a config key carries its JSON Schema keywords in
its dataclass field's metadata (``setting``). The CLI builds each command's
published schema from those fields (``object_schema``) and checks a config
with ``check``; each type checks its own settings with the same walk
(``check_fields``). So a bound or an enum is written once, and a
value reads the same message at both entry points. The walk keeps JSON
Schema's semantics (a bool is not a number, and 2.0 is an integer) and
jsonschema's message texts.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers
import operator

# keyword -> (test that fails a number, the failure's message)
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}


def setting(default=dataclasses.MISSING, *, key: str | None = None, **keywords):
    """A dataclass field that is a config key: keywords are its JSON Schema,
    and key is its name in the config where that is not the field's name."""
    return dataclasses.field(default=default,
                             metadata={"schema": keywords, "key": key})


def _settings(cls) -> list[tuple[str, dataclasses.Field]]:
    """(config key, field) of each of cls's settings, in field order."""
    return [(f.metadata["key"] or f.name, f) for f in dataclasses.fields(cls)
            if "schema" in f.metadata]


def object_schema(cls, extra: dict | None = None) -> dict:
    """The schema of a config block that builds cls: its settings (and the
    extra properties the block has beside them), each one required where
    its field has no default, and no other key."""
    settings = {key: f.metadata["schema"] for key, f in _settings(cls)}
    schema = {"type": "object", "properties": {**settings, **(extra or {})}}
    required = [key for key, f in _settings(cls) if f.default is dataclasses.MISSING]
    if required:
        schema["required"] = required
    schema["additionalProperties"] = False
    return schema


def _is_type(value, name: str) -> bool:
    """JSON Schema's types: a bool is not a number, and 2.0 is an integer."""
    if name in ("integer", "number"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return name == "number" or isinstance(value, int) or value.is_integer()
    return isinstance(value, {"object": dict, "array": list, "string": str}[name])


def _checked(value, schema: dict, path: list, errors: list):
    """value with each integer field's float made an int. Appends (path,
    message) for each keyword of schema that value breaks, in the order
    jsonschema's iter_errors yields them and with its message texts. An
    integer in a number field that no float holds raises ValueError, as a
    float literal beyond range does at parse time."""
    out = value
    for key, rule in schema.items():
        fail = None
        if key == "type":
            if not _is_type(value, rule):
                fail = f"is not of type {rule!r}"
            elif rule == "integer":
                out = int(value)
            elif isinstance(value, int):  # a number; it may lie beyond float range
                finite(str(value))
        elif key == "enum":
            if value not in rule:
                fail = f"is not one of {rule!r}"
        elif key in _BOUNDS:
            test, text = _BOUNDS[key]
            if _is_type(value, "number") and test(value, rule):
                fail = f"{text} {rule!r}"
        elif isinstance(value, list):
            if key == "items":
                out = [_checked(v, rule, path + [i], errors) for i, v in enumerate(value)]
            elif key == "minItems" and len(value) < rule:
                fail = "should be non-empty" if rule == 1 else "is too short"
            elif key == "maxItems" and len(value) > rule:
                fail = "is too long"
        elif isinstance(value, dict):
            if key == "properties":
                out = {k: _checked(v, rule[k], path + [k], errors) if k in rule else v
                       for k, v in value.items()}
            elif key == "required":
                errors.extend((path, f"{k!r} is a required property")
                              for k in rule if k not in value)
            elif key == "additionalProperties":
                extras = sorted(set(value) - set(schema.get("properties", {})), key=str)
                if extras:
                    names = ", ".join(map(repr, extras))
                    verb = "was" if len(extras) == 1 else "were"
                    errors.append((path, f"Additional properties are not allowed "
                                         f"({names} {verb} unexpected)"))
        if fail is not None:
            errors.append((path, f"{value!r} {fail}"))
    return out


def _first(errors: list) -> str:
    """The first error in path order, ties kept in schema keyword order."""
    path, message = min(errors, key=lambda e: e[0])
    return f"{'/'.join(map(str, path)) or '<root>'}: {message}"


def check(config, schema: dict):
    """config as the program reads it, or ValueError naming the first
    error in path order, ties kept in schema keyword order."""
    errors = []
    checked = _checked(config, schema, [], errors)
    if errors:
        raise ValueError(f"config field {_first(errors)}")
    return checked


def _as_json(value):
    """value as a JSON document holds it: a tuple as a list, an enum member
    as its value, and a number of another type (numpy's) as Python's."""
    if isinstance(value, (list, tuple)):
        return [_as_json(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, numbers.Integral) and not isinstance(value, int):
        return int(value)
    if isinstance(value, numbers.Real) and not isinstance(value, (int, float)):
        return float(value)
    return value


def check_fields(obj) -> None:
    """ValueError for the first of obj's settings, in field order, whose
    value breaks its schema. It names the setting by config key and reads
    as the load-time message with its ``config field <block>/`` dropped. A
    setting left None is not set, and not checked."""
    for key, f in _settings(type(obj)):
        value = getattr(obj, f.name)
        if value is not None:
            errors = []
            _checked(_as_json(value), f.metadata["schema"], [key], errors)
            if errors:
                raise ValueError(_first(errors))


def finite(text: str) -> float:
    """A JSON number literal as a float, or ValueError if it is not finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"config number {text} is not finite")
    return value
