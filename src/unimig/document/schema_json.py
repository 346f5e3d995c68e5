"""JSON serialization of document schemas (``.docschema.json`` files).

Layout: one object per schema with a ``documents`` array; each property
object carries a ``kind`` of ``field``, ``reference`` or ``embedded``.
References render cardinality as ``"one"`` / ``"many"``. Files are UTF-8
with two-space indentation and properties in model order, so equal models
serialize byte-identically.
"""

from __future__ import annotations

import json

from unimig.document.model import (
    DocReference,
    DocType,
    DocumentSchema,
    DocumentType,
    Embedded,
    Field,
    Property,
    assert_valid_docschema,
)
from unimig.errors import TextParseError


def _property_to_dict(p: Property) -> dict:
    if isinstance(p, Field):
        d: dict = {"kind": "field", "name": p.name, "type": p.type.primitive}
        if p.type.array:
            d["cardinality"] = "many"
        if p.is_key:
            d["isKey"] = True
        return d
    if isinstance(p, DocReference):
        return {
            "kind": "reference",
            "name": p.name,
            "target": p.target,
            "type": p.type.primitive,
            "cardinality": "many" if p.type.array else "one",
        }
    return {
        "kind": "embedded",
        "name": p.name,
        "cardinality": "many" if p.is_many else "one",
        "properties": [_property_to_dict(q) for q in p.aggregates],
    }


def _property_from_dict(d: dict, path: str) -> Property:
    kind = d.get("kind")
    name = d.get("name")
    if not isinstance(name, str) or not name:
        raise TextParseError(f"property at {path} has no name")
    if kind == "field":
        return Field(name,
                     DocType(d["type"], array=d.get("cardinality") == "many"),
                     is_key=bool(d.get("isKey", False)))
    if kind == "reference":
        return DocReference(name, d["target"],
                            DocType(d["type"], array=d.get("cardinality") == "many"))
    if kind == "embedded":
        return Embedded(name,
                        [_property_from_dict(q, f"{path}.{name}")
                         for q in d.get("properties", [])],
                        is_many=d.get("cardinality") == "many")
    raise TextParseError(f"unknown property kind {kind!r} at {path}.{name}")


def docschema_to_dict(schema: DocumentSchema) -> dict:
    return {
        "name": schema.name,
        "documents": [
            {"name": d.name,
             "properties": [_property_to_dict(p) for p in d.properties]}
            for d in schema.documents
        ],
    }


def docschema_from_dict(data: dict) -> DocumentSchema:
    if not isinstance(data, dict) or "name" not in data:
        raise TextParseError("document schema JSON must be an object with a name")
    schema = DocumentSchema(data["name"])
    for d in data.get("documents", []):
        name = d.get("name")
        if not isinstance(name, str) or not name:
            raise TextParseError("document type without a name")
        schema.documents.append(DocumentType(
            name, [_property_from_dict(p, name) for p in d.get("properties", [])]))
    return schema


def parse_docschema(text: str) -> DocumentSchema:
    """Parse and validate schema JSON."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TextParseError(f"malformed JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    try:
        schema = docschema_from_dict(data)
    except KeyError as exc:
        raise TextParseError(f"missing field in document schema JSON: {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise TextParseError(f"malformed document schema JSON: {exc}") from exc
    assert_valid_docschema(schema)
    return schema


def print_docschema(schema: DocumentSchema) -> str:
    return json.dumps(docschema_to_dict(schema), indent=2, ensure_ascii=False) + "\n"
