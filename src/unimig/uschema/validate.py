"""Invariant checks for pivot models."""

from __future__ import annotations

from unimig.record import record
from unimig.uschema.model import (
    Aggregate,
    Attribute,
    Key,
    Reference,
    RelationshipType,
    UNBOUNDED,
    USchemaModel,
)


@record(frozen=True)
class Diagnostic:
    """One violated invariant, anchored to the offending element path."""

    invariant: str
    path: str
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"[{self.severity}] {self.invariant} at {self.path}: {self.message}"


def validate_uschema(model: USchemaModel) -> list[Diagnostic]:
    """Return every invariant violation in ``model``; empty means valid.

    Only findings with severity ``error`` make a model invalid; warnings flag
    constructs that are legal but likely unintended.
    """
    out: list[Diagnostic] = []
    err = lambda inv, path, msg: out.append(Diagnostic(inv, path, msg))

    seen: set[str] = set()
    for t in model.types():
        if t.name in seen:
            err("unique type names", t.name, "schema type name declared twice")
        seen.add(t.name)

    entity_names = {e.name for e in model.entities}

    for t in model.types():
        fnames: set[str] = set()
        id_keys = 0
        for f in t.features:
            path = f"{t.name}.{f.name}"
            if f.name in fnames:
                err("unique feature names", path, "feature name declared twice")
            fnames.add(f.name)

            if isinstance(f, Key):
                if f.is_id:
                    id_keys += 1
                if not f.attributes and f.is_id:
                    # Keys whose columns were all consumed elsewhere stay legal.
                    pass
                for a in f.attributes:
                    g = next((x for x in t.features
                              if isinstance(x, Attribute) and x.name == a), None)
                    if g is None:
                        err("key attributes owned", path,
                            f"key lists attribute {a!r} not present on {t.name!r}")
            elif isinstance(f, Reference):
                if f.refs_to not in entity_names:
                    err("reference resolution", path,
                        f"refsTo names unknown entity type {f.refs_to!r}")
                if f.upper_bound != UNBOUNDED and f.lower_bound > f.upper_bound:
                    err("reference bounds", path,
                        f"lowerBound {f.lower_bound} exceeds upperBound {f.upper_bound}")
                if f.upper_bound != UNBOUNDED and f.upper_bound < 1:
                    err("reference bounds", path, "upperBound must be >= 1 or unbounded")
                if f.lower_bound < 0:
                    err("reference bounds", path, "lowerBound must be >= 0")
                for a in f.attributes:
                    g = next((x for x in t.features
                              if isinstance(x, Attribute) and x.name == a), None)
                    if g is None:
                        err("reference attributes owned", path,
                            f"reference lists attribute {a!r} not present on {t.name!r}")
                if f.is_featured_by is not None:
                    rel = next((r for r in model.relationships
                                if r.name == f.is_featured_by), None)
                    if rel is None:
                        err("reference resolution", path,
                            f"isFeaturedBy names unknown relationship {f.is_featured_by!r}")
                    elif f.name not in rel.references:
                        err("relationship side listing", path,
                            f"reference not listed by relationship {rel.name!r}")
            elif isinstance(f, Aggregate):
                if f.specified_by not in entity_names:
                    err("aggregate resolution", path,
                        f"specifiedBy names unknown entity type {f.specified_by!r}")
                else:
                    target = model.entity(f.specified_by)
                    if target.root:
                        out.append(Diagnostic(
                            "aggregate of non-root", path,
                            f"aggregated entity type {target.name!r} is root",
                            severity="warning"))
        if id_keys > 1:
            err("multiple identifiers", t.name,
                f"{id_keys} keys marked as identifier; at most one allowed")

    # Each relationship side must sit in exactly one entity's feature list.
    for rel in model.relationships:
        if isinstance(rel, RelationshipType) and len(rel.references) < 2:
            err("relationship arity", rel.name,
                f"relationship lists {len(rel.references)} side(s); needs at least 2")
        for ref_name in rel.references:
            owners = [
                e.name
                for e in model.entities
                for f in e.references()
                if f.name == ref_name and f.is_featured_by == rel.name
            ]
            if len(owners) != 1:
                err("relationship side placement", f"{rel.name}.{ref_name}",
                    f"side appears in {len(owners)} entity types; expected exactly 1")

    return out


def assert_valid(model: USchemaModel) -> None:
    problems = [d for d in validate_uschema(model) if d.severity == "error"]
    if problems:
        from unimig.errors import ModelError

        raise ModelError("invalid pivot model: " + "; ".join(str(d) for d in problems))
