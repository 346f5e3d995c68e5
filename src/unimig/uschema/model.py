"""Unified pivot schema model (union-schema flavor).

A ``USchemaModel`` holds entity types and relationship types. Entity types
carry features: attributes, keys, references, and aggregates. Cross-element
links (``refs_to``, ``specified_by``, ``is_featured_by``, key/reference
attribute lists) are stored by *name* and resolved against the owning model,
which keeps models plain data, cycle-free, and cheap to compare and
serialize. Models are not mutated after construction; transforms build fresh
ones.
"""

from __future__ import annotations

from typing import Iterator, Union

from unimig.errors import ModelError
from unimig.record import field, record

#: Sentinel for an unbounded upper multiplicity, rendered as ``*``.
UNBOUNDED = -1

_SCALAR_KINDS = ("String", "Integer", "Boolean", "Double", "Decimal", "Date")


@record
class USDataType:
    """A primitive pivot-model data type; ``Decimal`` carries (precision, scale)."""

    kind: str
    precision: int | None = None
    scale: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SCALAR_KINDS:
            raise ModelError(f"unknown data type kind {self.kind!r}")
        if self.kind == "Decimal":
            if self.precision is None or self.scale is None:
                raise ModelError("Decimal requires precision and scale")
            if not (self.precision >= self.scale >= 0):
                raise ModelError(
                    f"Decimal({self.precision},{self.scale}) requires p >= s >= 0"
                )
        elif self.precision is not None or self.scale is not None:
            raise ModelError(f"{self.kind} does not take precision/scale")

    def __str__(self) -> str:
        if self.kind == "Decimal":
            return f"Decimal({self.precision},{self.scale})"
        return self.kind


@record
class Attribute:
    """A scalar-valued feature.

    ``owned_by_reference`` names the Reference this attribute belongs to when
    it was introduced to carry a reference's identifier values; such
    attributes are skipped when mapping features to document fields.
    """

    name: str
    type: USDataType
    optional: bool = False
    owned_by_reference: str | None = None


@record
class Key:
    """A uniqueness constraint over attributes of the owning type; at most one
    key per type has ``is_id`` set."""

    name: str
    is_id: bool
    attributes: list[str] = field(default_factory=list)


@record
class Reference:
    """A by-identifier link to an entity type.

    ``attributes`` names attributes of the *owner* that carry the referenced
    identifier values. ``is_featured_by`` names the relationship type this
    reference belongs to, when it is one side of an attributed association.
    """

    name: str
    refs_to: str
    lower_bound: int = 1
    upper_bound: int = 1
    attributes: list[str] = field(default_factory=list)
    is_featured_by: str | None = None


@record
class Aggregate:
    """Embedding of a non-root entity type's instances inside the owner."""

    name: str
    specified_by: str
    lower_bound: int = 0
    upper_bound: int = UNBOUNDED


Feature = Union[Attribute, Key, Reference, Aggregate]


@record
class EntityType:
    name: str
    root: bool = True
    features: list[Feature] = field(default_factory=list)

    def feature(self, name: str) -> Feature:
        for f in self.features:
            if f.name == name:
                return f
        raise ModelError(f"entity type {self.name!r} has no feature {name!r}")

    def attributes(self) -> list[Attribute]:
        return [f for f in self.features if isinstance(f, Attribute)]

    def keys(self) -> list[Key]:
        return [f for f in self.features if isinstance(f, Key)]

    def references(self) -> list[Reference]:
        return [f for f in self.features if isinstance(f, Reference)]

    def aggregates(self) -> list[Aggregate]:
        return [f for f in self.features if isinstance(f, Aggregate)]

    def id_key(self) -> Key | None:
        for k in self.keys():
            if k.is_id:
                return k
        return None


@record
class RelationshipType:
    """An attributed association between two or more entity types.

    ``references`` names the Reference features (each placed in some entity
    type's feature list) that form the sides of the association.
    """

    name: str
    features: list[Feature] = field(default_factory=list)
    references: list[str] = field(default_factory=list)

    def feature(self, name: str) -> Feature:
        for f in self.features:
            if f.name == name:
                return f
        raise ModelError(f"relationship type {self.name!r} has no feature {name!r}")

    def attributes(self) -> list[Attribute]:
        return [f for f in self.features if isinstance(f, Attribute)]


SchemaType = Union[EntityType, RelationshipType]


@record
class USchemaModel:
    name: str
    entities: list[EntityType] = field(default_factory=list)
    relationships: list[RelationshipType] = field(default_factory=list)

    def types(self) -> Iterator[SchemaType]:
        yield from self.entities
        yield from self.relationships

    def entity(self, name: str) -> EntityType:
        for e in self.entities:
            if e.name == name:
                return e
        raise ModelError(f"model {self.name!r} has no entity type {name!r}")

    def relationship(self, name: str) -> RelationshipType:
        for r in self.relationships:
            if r.name == name:
                return r
        raise ModelError(f"model {self.name!r} has no relationship type {name!r}")

    def schema_type(self, name: str) -> SchemaType:
        for t in self.types():
            if t.name == name:
                return t
        raise ModelError(f"model {self.name!r} has no schema type {name!r}")

    def has_type(self, name: str) -> bool:
        return any(t.name == name for t in self.types())

    def relationship_side_owner(self, rel_name: str, ref_name: str) -> EntityType:
        """Entity type whose features hold the named side of a relationship."""
        for e in self.entities:
            for f in e.references():
                if f.name == ref_name and f.is_featured_by == rel_name:
                    return e
        raise ModelError(
            f"no entity type features reference {ref_name!r} of relationship {rel_name!r}"
        )


# --- JSON form -------------------------------------------------------------
#
# Plain dict round-trip used by the CLI to persist pivot models between
# pipeline stages.

def _type_to_dict(dt: USDataType) -> dict:
    d: dict = {"kind": dt.kind}
    if dt.kind == "Decimal":
        d["precision"] = dt.precision
        d["scale"] = dt.scale
    return d


def _type_from_dict(d: dict) -> USDataType:
    return USDataType(d["kind"], d.get("precision"), d.get("scale"))


def _feature_to_dict(f: Feature) -> dict:
    if isinstance(f, Attribute):
        d = {"kind": "attribute", "name": f.name, "type": _type_to_dict(f.type),
             "optional": f.optional}
        if f.owned_by_reference is not None:
            d["ownedByReference"] = f.owned_by_reference
        return d
    if isinstance(f, Key):
        return {"kind": "key", "name": f.name, "isId": f.is_id,
                "attributes": list(f.attributes)}
    if isinstance(f, Reference):
        d = {"kind": "reference", "name": f.name, "refsTo": f.refs_to,
             "lowerBound": f.lower_bound, "upperBound": f.upper_bound,
             "attributes": list(f.attributes)}
        if f.is_featured_by is not None:
            d["isFeaturedBy"] = f.is_featured_by
        return d
    return {"kind": "aggregate", "name": f.name, "specifiedBy": f.specified_by,
            "lowerBound": f.lower_bound, "upperBound": f.upper_bound}


def _feature_from_dict(d: dict) -> Feature:
    kind = d.get("kind")
    if kind == "attribute":
        return Attribute(d["name"], _type_from_dict(d["type"]),
                         optional=d.get("optional", False),
                         owned_by_reference=d.get("ownedByReference"))
    if kind == "key":
        return Key(d["name"], d["isId"], list(d.get("attributes", [])))
    if kind == "reference":
        return Reference(d["name"], d["refsTo"],
                         lower_bound=d.get("lowerBound", 1),
                         upper_bound=d.get("upperBound", 1),
                         attributes=list(d.get("attributes", [])),
                         is_featured_by=d.get("isFeaturedBy"))
    if kind == "aggregate":
        return Aggregate(d["name"], d["specifiedBy"],
                         lower_bound=d.get("lowerBound", 0),
                         upper_bound=d.get("upperBound", UNBOUNDED))
    raise ModelError(f"unknown feature kind {kind!r}")


def model_to_dict(model: USchemaModel) -> dict:
    return {
        "name": model.name,
        "entities": [
            {"name": e.name, "root": e.root,
             "features": [_feature_to_dict(f) for f in e.features]}
            for e in model.entities
        ],
        "relationships": [
            {"name": r.name,
             "features": [_feature_to_dict(f) for f in r.features],
             "references": list(r.references)}
            for r in model.relationships
        ],
    }


def model_from_dict(data: dict) -> USchemaModel:
    try:
        entities = [
            EntityType(e["name"], e.get("root", True),
                       [_feature_from_dict(f) for f in e.get("features", [])])
            for e in data.get("entities", [])
        ]
        relationships = [
            RelationshipType(r["name"],
                             [_feature_from_dict(f) for f in r.get("features", [])],
                             list(r.get("references", [])))
            for r in data.get("relationships", [])
        ]
        return USchemaModel(data["name"], entities, relationships)
    except KeyError as exc:
        raise ModelError(f"missing field in pivot model JSON: {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ModelError(f"malformed pivot model JSON: {exc}") from exc
