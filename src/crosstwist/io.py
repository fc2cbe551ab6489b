"""Bit-exact JSON interchange for every domain value.

A document carries a format version, a field declaration, and a named map of
objects.  Scalars are canonical strings: ``a/b`` in lowest terms with positive
denominator over the rationals (zero is ``0/1``), bare integers below p over
GF(p).  Serialization sorts keys and is byte-deterministic, so golden-file
comparisons are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field, fields
from typing import Any, get_type_hints

from .algebra import Algebra, PointedSpace
from .corpus import GaugeTransformation, QuasiBialgebra, RightModuleAlgebra
from .crossed import CrossedData
from .fields import Field, FieldError, PrimeField, Rationals, Scalar
from .linmap import LinMap, ShapeError
from .report import AxiomReport
from .twist import TwistPair

FORMAT_VERSION = "1"

# The document type tag of every domain class.  Each class is written as a
# JSON object of its dataclass fields (LinMap as dims plus matrix), with the
# field names as keys except where _KEYS renames them.
OBJECT_TYPES: dict[str, type] = {
    "algebra": Algebra,
    "pointed_space": PointedSpace,
    "linmap": LinMap,
    "crossed_data": CrossedData,
    "twist_pair": TwistPair,
    "quasi_bialgebra": QuasiBialgebra,
    "gauge_transformation": GaugeTransformation,
    "right_module_algebra": RightModuleAlgebra,
}
OBJECT_TAGS: dict[type, str] = {cls: tag for tag, cls in OBJECT_TYPES.items()}
_KEYS = {"a": "algebra", "v": "space"}


def _schema(cls: type) -> tuple[tuple[str, str, Any], ...]:
    """(field name, JSON key, resolved type hint) in declaration order."""
    hints = get_type_hints(cls)
    return tuple((f.name, _KEYS.get(f.name, f.name), hints[f.name]) for f in fields(cls))


_SCHEMAS = {cls: _schema(cls) for cls in OBJECT_TYPES.values() if cls is not LinMap}


class DocumentError(ValueError):
    """Parse or validation failure, carrying the path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class SpecDocument:
    field: Field
    objects: dict[str, Any] = dc_field(default_factory=dict)
    format_version: str = FORMAT_VERSION


# ---------------------------------------------------------------------------
# encoding


def _encode_vector(field: Field, v) -> list[str]:
    return [field.format(x) for x in v]


def _encode_linmap(field: Field, f: LinMap) -> dict:
    return {
        "domain_dims": list(f.domain_dims),
        "codomain_dims": list(f.codomain_dims),
        "matrix": [[field.format(x) for x in row] for row in f.matrix],
    }


def _encode_object(field: Field, obj: Any) -> dict:
    tag = OBJECT_TAGS.get(type(obj))
    if tag is None:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")
    if isinstance(obj, LinMap):
        return {"type": tag, **_encode_linmap(field, obj)}
    out = {"type": tag}
    for name, key, hint in _SCHEMAS[type(obj)]:
        value = getattr(obj, name)
        if hint is LinMap:
            value = _encode_linmap(field, value)
        elif hint in _SCHEMAS:
            value = _encode_object(field, value)
        elif hint not in (int, str):
            value = _encode_vector(field, value)
        out[key] = value
    return out


def _encode_field(field: Field) -> dict:
    if isinstance(field, Rationals):
        return {"kind": "rationals"}
    if isinstance(field, PrimeField):
        return {"kind": "prime_field", "p": field.p}
    raise TypeError(f"unknown field {field!r}")


def serialize(doc: SpecDocument) -> str:
    payload = {
        "format_version": doc.format_version,
        "field": _encode_field(doc.field),
        "objects": {
            name: _encode_object(doc.field, obj) for name, obj in doc.objects.items()
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_checks(report: AxiomReport) -> list[dict]:
    """The JSON form of each check of ``report``, in report order."""
    return [
        {
            "law_name": c.law,
            "passed": c.passed,
            "first_counterexample": (
                list(c.first_counterexample) if c.first_counterexample is not None else None
            ),
            "detail": c.detail,
        }
        for c in report.checks
    ]


def report_to_json(report: AxiomReport) -> str:
    return json.dumps({"checks": report_checks(report)}, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# decoding


def _expect(raw: Any, kind: type, path: str) -> Any:
    if not isinstance(raw, kind) or (kind is int and isinstance(raw, bool)):
        raise DocumentError(path, f"expected {kind.__name__}, got {type(raw).__name__}")
    return raw


def _get(raw: dict, key: str, kind: type, path: str) -> Any:
    if key not in raw:
        raise DocumentError(f"{path}.{key}", "missing field")
    return _expect(raw[key], kind, f"{path}.{key}")


def _decode_scalar(field: Field, raw: Any, path: str) -> Scalar:
    text = _expect(raw, str, path)
    try:
        return field.parse(text)
    except FieldError as exc:
        raise DocumentError(path, str(exc)) from exc


def _decode_vector(field: Field, raw: Any, path: str) -> tuple[Scalar, ...]:
    items = _expect(raw, list, path)
    return tuple(_decode_scalar(field, x, f"{path}[{i}]") for i, x in enumerate(items))


def _decode_dims(raw: Any, path: str) -> tuple[int, ...]:
    items = _expect(raw, list, path)
    dims = []
    for i, x in enumerate(items):
        _expect(x, int, f"{path}[{i}]")
        if x <= 0:
            raise DocumentError(f"{path}[{i}]", f"dimension must be positive, got {x}")
        dims.append(x)
    if not dims:
        raise DocumentError(path, "at least one tensor factor is required")
    return tuple(dims)


def _decode_linmap(field: Field, raw: Any, path: str) -> LinMap:
    raw = _expect(raw, dict, path)
    domain_dims = _decode_dims(raw.get("domain_dims"), f"{path}.domain_dims")
    codomain_dims = _decode_dims(raw.get("codomain_dims"), f"{path}.codomain_dims")
    rows_raw = _get(raw, "matrix", list, path)
    dt, ct = math.prod(domain_dims), math.prod(codomain_dims)
    if len(rows_raw) != ct:
        raise DocumentError(f"{path}.matrix", f"expected {ct} rows, got {len(rows_raw)}")
    rows = []
    for i, row_raw in enumerate(rows_raw):
        row = _expect(row_raw, list, f"{path}.matrix[{i}]")
        if len(row) != dt:
            raise DocumentError(
                f"{path}.matrix[{i}]", f"row length {len(row)} != domain total {dt}"
            )
        rows.append(
            tuple(
                _decode_scalar(field, x, f"{path}.matrix[{i}][{j}]")
                for j, x in enumerate(row)
            )
        )
    return LinMap(field, domain_dims, codomain_dims, tuple(rows))


def _decode_object(field: Field, cls: type, raw: dict, path: str) -> Any:
    values = {}
    for name, key, hint in _SCHEMAS[cls]:
        sub = f"{path}.{key}"
        if hint is int:
            values[name] = _get(raw, key, int, path)
        elif hint is str:
            values[name] = _expect(raw.get(key, ""), str, sub)
        elif hint is LinMap:
            values[name] = _decode_linmap(field, raw.get(key), sub)
        elif hint in _SCHEMAS:
            values[name] = _decode_object(field, hint, _get(raw, key, dict, path), sub)
        else:
            values[name] = _decode_vector(field, raw.get(key), sub)
    # Checked ahead of the constructor so the error names the point itself.
    if cls is PointedSpace and not any(values["point"]):
        raise DocumentError(f"{path}.point", "distinguished point must be nonzero")
    try:
        return cls(**values)
    except ShapeError as exc:
        raise DocumentError(path, str(exc)) from exc


def _decode_tagged(field: Field, raw: Any, path: str) -> Any:
    raw = _expect(raw, dict, path)
    kind = _get(raw, "type", str, path)
    cls = OBJECT_TYPES.get(kind)
    if cls is None:
        raise DocumentError(f"{path}.type", f"unknown object type {kind!r}")
    if cls is LinMap:
        return _decode_linmap(field, raw, path)
    return _decode_object(field, cls, raw, path)


def _decode_field(raw: Any, path: str) -> Field:
    raw = _expect(raw, dict, path)
    kind = _get(raw, "kind", str, path)
    if kind == "rationals":
        return Rationals()
    if kind == "prime_field":
        p = _get(raw, "p", int, path)
        try:
            return PrimeField(p)
        except FieldError as exc:
            raise DocumentError(f"{path}.p", str(exc)) from exc
    raise DocumentError(f"{path}.kind", f"unknown field kind {kind!r}")


def parse(text: str) -> SpecDocument:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: malformed, or an int of too many digits
        raise DocumentError("$", f"not valid JSON: {exc}") from exc
    raw = _expect(raw, dict, "$")
    version = _get(raw, "format_version", str, "$")
    if version != FORMAT_VERSION:
        raise DocumentError("$.format_version", f"unsupported format version {version!r}")
    field = _decode_field(raw.get("field"), "$.field")
    objects_raw = _get(raw, "objects", dict, "$")
    objects = {}
    for name in objects_raw:
        objects[name] = _decode_tagged(field, objects_raw[name], f"$.objects.{name}")
    return SpecDocument(field=field, objects=objects, format_version=version)
