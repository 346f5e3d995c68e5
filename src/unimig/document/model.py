"""Document-store schema model: collections of typed, possibly nested
properties. A property is a scalar field, a by-identifier reference to
another document type, or an embedded (nested) object."""

from __future__ import annotations

from typing import Union

from unimig.errors import ModelError
from unimig.record import field, record

_PRIMITIVES = ("BOOLEAN", "INTEGER", "DOUBLE", "STRING")


@record
class DocType:
    """Scalar type or array of a scalar type."""

    primitive: str
    array: bool = False

    def __post_init__(self) -> None:
        if self.primitive not in _PRIMITIVES:
            raise ModelError(f"unknown document primitive {self.primitive!r}")

    def __str__(self) -> str:
        return f"[{self.primitive}]" if self.array else self.primitive


@record
class Field:
    name: str
    type: DocType
    is_key: bool = False

    def __post_init__(self) -> None:
        if self.is_key and self.type.array:
            raise ModelError(f"key field {self.name!r} must have a primitive type")


@record
class DocReference:
    """Stores the identifier(s) of documents of ``target``; an array type
    makes it multi-valued."""

    name: str
    target: str
    type: DocType = field(default_factory=lambda: DocType("STRING"))


@record
class Embedded:
    """A nested object (or array of objects, when ``is_many``)."""

    name: str
    aggregates: list["Property"] = field(default_factory=list)
    is_many: bool = False


Property = Union[Field, DocReference, Embedded]


@record
class DocumentType:
    name: str
    properties: list[Property] = field(default_factory=list)

    def property(self, name: str) -> Property:
        for p in self.properties:
            if p.name == name:
                return p
        raise ModelError(f"document type {self.name!r} has no property {name!r}")

    def key_field(self) -> Field | None:
        for p in self.properties:
            if isinstance(p, Field) and p.is_key:
                return p
        return None


@record
class DocumentSchema:
    name: str
    documents: list[DocumentType] = field(default_factory=list)

    def document(self, name: str) -> DocumentType:
        for d in self.documents:
            if d.name == name:
                return d
        raise ModelError(f"document schema {self.name!r} has no type {name!r}")

    def has_document(self, name: str) -> bool:
        return any(d.name == name for d in self.documents)


def validate_docschema(schema: DocumentSchema) -> list[str]:
    """Structural problems; empty means valid. Key/target type mismatches are
    reported as ``warning:``-prefixed entries and do not invalidate."""
    out: list[str] = []
    names = set()
    for d in schema.documents:
        if d.name in names:
            out.append(f"duplicate document type {d.name!r}")
        names.add(d.name)

    for d in schema.documents:
        keys = [p for p in d.properties if isinstance(p, Field) and p.is_key]
        if len(keys) > 1:
            out.append(f"document type {d.name!r} has {len(keys)} key fields")
        _walk(schema, d.name, d.properties, out, set())
    return out


def _walk(schema: DocumentSchema, path: str, properties: list[Property],
          out: list[str], stack: set[int]) -> None:
    seen: set[str] = set()
    for p in properties:
        ppath = f"{path}.{p.name}"
        if p.name in seen:
            out.append(f"duplicate property {ppath}")
        seen.add(p.name)
        if isinstance(p, DocReference):
            if not schema.has_document(p.target):
                out.append(f"reference {ppath} targets unknown document type {p.target!r}")
            else:
                key = schema.document(p.target).key_field()
                if key is not None and key.type.primitive != p.type.primitive:
                    out.append(
                        f"warning: reference {ppath} stores {p.type.primitive} but "
                        f"{p.target!r} is keyed by {key.type.primitive}")
        elif isinstance(p, Embedded):
            # Embedded trees are inline; a shared object in its own subtree
            # would make the schema cyclic and recursion non-terminating.
            if id(p) in stack:
                out.append(f"cyclic embedding at {ppath}")
                continue
            _walk(schema, ppath, p.aggregates, out, stack | {id(p)})


def assert_valid_docschema(schema: DocumentSchema) -> None:
    problems = [p for p in validate_docschema(schema) if not p.startswith("warning:")]
    if problems:
        raise ModelError("invalid document schema: " + "; ".join(problems))
