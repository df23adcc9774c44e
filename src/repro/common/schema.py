"""A dependency-free validator for the repo's committed JSON schemas.

The container has no ``jsonschema``; this validates the subset the
files under ``schemas/`` actually use: type, properties, required,
additionalProperties (bool or schema), items, enum, const, minimum —
plus one rule JSON Schema lacks: every number must be finite.  The
metrics snapshot (:func:`repro.obs.metrics.validate_snapshot`) and the
campaign report share it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, List, Mapping

def _type_ok(value: Any, expected: str) -> bool:
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "null":
        return value is None
    return True


def _validate(value: Any, schema: Mapping[str, Any], path: str, errors: List[str]) -> None:
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected const {schema['const']!r}, got {value!r}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum {schema['enum']!r}")
        return
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(value, t) for t in allowed):
            errors.append(f"{path}: expected type {expected}, got {type(value).__name__}")
            return
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        minimum = schema.get("minimum")
        if minimum is not None and value < minimum:
            errors.append(f"{path}: {value!r} below minimum {minimum!r}")
        if not math.isfinite(value):
            errors.append(f"{path}: non-finite number")
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                errors.append(f"{path}: missing required property {name!r}")
        props = schema.get("properties", {})
        for name, sub in props.items():
            if name in value:
                _validate(value[name], sub, f"{path}.{name}", errors)
        extra = schema.get("additionalProperties")
        if extra is False:
            for name in value:
                if name not in props:
                    errors.append(f"{path}: unexpected property {name!r}")
        elif isinstance(extra, dict):
            for name, item in value.items():
                if name not in props:
                    _validate(item, extra, f"{path}.{name}", errors)
    if isinstance(value, list):
        items = schema.get("items")
        if isinstance(items, dict):
            for i, item in enumerate(value):
                _validate(item, items, f"{path}[{i}]", errors)


def schema_root() -> Path:
    """The repository's committed ``schemas/`` directory."""
    return Path(__file__).resolve().parents[3] / "schemas"


def validate_json(value: Any, schema_path: Path) -> List[str]:
    """Validate any JSON value against a committed schema file.

    Returns a list of violation messages (empty = valid), each prefixed
    with the JSON path of the offending value.
    """
    schema = json.loads(Path(schema_path).read_text())
    errors: List[str] = []
    _validate(value, schema, "$", errors)
    return errors
