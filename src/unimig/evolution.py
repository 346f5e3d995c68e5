"""Schema-change scripts over pivot models, applied in schema-only mode with
trace rewriting.

Five statement forms, one per line, ``//`` comments::

    RENAME ENTITY <old> TO <new>
    RENAME <Entity>::<old> TO <new>
    CAST ATTR <Entity>::<attr> TO <Type>
    MORPH REF <Entity>::<ref> TO <name>
    DELETE <Entity>::<feature>

Application is atomic: on any error the caller's model and trace are left
untouched. Renames rewrite every trace identifier that mentions the old
path and append an ``EVOLVE-RENAME`` audit link. Morphing a reference into
an aggregate retags its trace links ``AGGREGATE_CHILD``; the referenced
entity type becomes non-root unless other references still use it as a
root-level target. Deleting a feature drops trace links that only targeted
it.
"""

from __future__ import annotations

import copy
import re
from typing import Union

from unimig.errors import EvolutionError, TextParseError
from unimig.record import record
from unimig.trace import AGGREGATE_CHILD, TraceStore, id_kind, id_segments
from unimig.uschema.model import (
    Aggregate,
    Attribute,
    Key,
    Reference,
    USDataType,
    USchemaModel,
)


@record(frozen=True)
class RenameEntity:
    old: str
    new: str


@record(frozen=True)
class RenameFeature:
    entity: str
    old: str
    new: str


@record(frozen=True)
class CastAttr:
    entity: str
    attr: str
    new_type: USDataType


@record(frozen=True)
class MorphRef:
    entity: str
    ref: str
    new_name: str


@record(frozen=True)
class DeleteFeature:
    entity: str
    feature: str


ChangeOp = Union[RenameEntity, RenameFeature, CastAttr, MorphRef, DeleteFeature]

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_PATTERNS: list[tuple[re.Pattern, str]] = [
    (re.compile(rf"^RENAME\s+ENTITY\s+({_IDENT})\s+TO\s+({_IDENT})$", re.I),
     "rename_entity"),
    (re.compile(rf"^RENAME\s+({_IDENT})::({_IDENT})\s+TO\s+({_IDENT})$", re.I),
     "rename_feature"),
    (re.compile(rf"^CAST\s+ATTR\s+({_IDENT})::({_IDENT})\s+TO\s+"
                rf"({_IDENT})(?:\((\d+),(\d+)\))?$", re.I), "cast"),
    (re.compile(rf"^MORPH\s+REF\s+({_IDENT})::({_IDENT})\s+TO\s+({_IDENT})$", re.I),
     "morph"),
    (re.compile(rf"^DELETE\s+({_IDENT})::({_IDENT})$", re.I), "delete"),
]


def parse_orion(text: str) -> list[ChangeOp]:
    """Parse a change script into operations, in file order."""
    ops: list[ChangeOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        for pattern, kind in _PATTERNS:
            m = pattern.match(line)
            if m:
                ops.append(_build_op(kind, m, lineno))
                break
        else:
            raise TextParseError(f"unknown statement {line!r}", lineno)
    return ops


def _build_op(kind: str, m: re.Match, lineno: int) -> ChangeOp:
    if kind == "rename_entity":
        return RenameEntity(m.group(1), m.group(2))
    if kind == "rename_feature":
        return RenameFeature(m.group(1), m.group(2), m.group(3))
    if kind == "cast":
        type_name, precision, scale = m.group(3), m.group(4), m.group(5)
        try:
            new_type = (USDataType("Decimal", int(precision), int(scale))
                        if precision is not None else USDataType(type_name))
        except Exception as exc:
            raise TextParseError(f"bad type in CAST: {exc}", lineno) from exc
        return CastAttr(m.group(1), m.group(2), new_type)
    if kind == "morph":
        return MorphRef(m.group(1), m.group(2), m.group(3))
    return DeleteFeature(m.group(1), m.group(2))


def apply_changes(model: USchemaModel, ops: list[ChangeOp],
                  t1: TraceStore) -> tuple[USchemaModel, TraceStore]:
    """Apply ``ops`` in order to copies of ``model`` and ``t1``."""
    work = copy.deepcopy(model)
    trace = t1.copy()
    for op in ops:
        if isinstance(op, RenameEntity):
            _rename_entity(work, trace, op)
        elif isinstance(op, RenameFeature):
            _rename_feature(work, trace, op)
        elif isinstance(op, CastAttr):
            _cast_attr(work, op)
        elif isinstance(op, MorphRef):
            _morph_ref(work, trace, op)
        elif isinstance(op, DeleteFeature):
            _delete_feature(work, trace, op)
        else:
            raise EvolutionError(f"unsupported operation {op!r}")
    return work, trace


def _entity(model: USchemaModel, name: str):
    if not model.has_type(name):
        raise EvolutionError(f"unknown schema type {name!r}")
    return model.schema_type(name)


def _rewrite_segment(trace: TraceStore, kind: str, position: int,
                     match: list[str], new: str) -> None:
    """Rewrite ids whose segment list starts with ``match`` by replacing the
    segment at ``position``; separators are preserved by reassembly."""
    mapping: dict[str, str] = {}
    ids = set(trace._by_source) | set(trace._by_target)
    for element_id in ids:
        if id_kind(element_id) != kind:
            continue
        segments = id_segments(element_id)
        if len(segments) < len(match) or segments[:len(match)] != match:
            continue
        prefix_len = len(f"{kind}:") + sum(len(s) + 1 for s in segments[:position])
        body = element_id[:prefix_len] + new + element_id[
            prefix_len + len(segments[position]):]
        mapping[element_id] = body
    trace.rewrite_ids(mapping)


def _rename_entity(model: USchemaModel, trace: TraceStore,
                   op: RenameEntity) -> None:
    schema_type = _entity(model, op.old)
    if op.new != op.old and model.has_type(op.new):
        raise EvolutionError(f"cannot rename {op.old!r}: {op.new!r} already exists")
    schema_type.name = op.new
    for t in model.types():
        for f in t.features:
            if isinstance(f, Reference) and f.refs_to == op.old:
                f.refs_to = op.new
            if isinstance(f, Reference) and f.is_featured_by == op.old:
                f.is_featured_by = op.new
            if isinstance(f, Aggregate) and f.specified_by == op.old:
                f.specified_by = op.new
    _rewrite_segment(trace, "us", 0, [op.old], op.new)
    trace.add(f"us:{op.old}", f"us:{op.new}", "EVOLVE-RENAME")


def _rename_feature(model: USchemaModel, trace: TraceStore,
                    op: RenameFeature) -> None:
    schema_type = _entity(model, op.entity)
    feature = _find_feature(schema_type, op.old)
    if op.new != op.old and any(f.name == op.new for f in schema_type.features):
        raise EvolutionError(
            f"cannot rename {op.entity}::{op.old}: {op.new!r} already exists")
    feature.name = op.new
    for f in schema_type.features:
        if isinstance(f, (Key, Reference)):
            f.attributes = [op.new if a == op.old else a for a in f.attributes]
        if isinstance(f, Attribute) and f.owned_by_reference == op.old:
            f.owned_by_reference = op.new
    for rel in model.relationships:
        if rel.name == getattr(feature, "is_featured_by", None):
            rel.references = [op.new if r == op.old else r for r in rel.references]
    _rewrite_segment(trace, "us", 1, [op.entity, op.old], op.new)
    trace.add(f"us:{op.entity}.{op.old}", f"us:{op.entity}.{op.new}",
              "EVOLVE-RENAME")


def _cast_attr(model: USchemaModel, op: CastAttr) -> None:
    schema_type = _entity(model, op.entity)
    feature = _find_feature(schema_type, op.attr)
    if not isinstance(feature, Attribute):
        raise EvolutionError(f"{op.entity}::{op.attr} is not an attribute")
    feature.type = op.new_type


def _morph_ref(model: USchemaModel, trace: TraceStore, op: MorphRef) -> None:
    schema_type = _entity(model, op.entity)
    feature = _find_feature(schema_type, op.ref)
    if not isinstance(feature, Reference):
        raise EvolutionError(f"{op.entity}::{op.ref} is not a reference")
    if feature.is_featured_by is not None:
        raise EvolutionError(
            f"{op.entity}::{op.ref} belongs to relationship "
            f"{feature.is_featured_by!r} and cannot be morphed")
    if op.new_name != op.ref and any(f.name == op.new_name
                                     for f in schema_type.features):
        raise EvolutionError(
            f"cannot morph {op.entity}::{op.ref}: {op.new_name!r} already exists")
    target = model.entity(feature.refs_to)

    aggregate = Aggregate(op.new_name, specified_by=target.name,
                          lower_bound=0, upper_bound=feature.upper_bound)
    index = schema_type.features.index(feature)
    schema_type.features[index] = aggregate
    # Carried identifier attributes lose their purpose with the reference.
    schema_type.features = [
        f for f in schema_type.features
        if not (isinstance(f, Attribute) and f.owned_by_reference == op.ref)]

    other_root_usage = any(
        f.refs_to == target.name
        for t in model.types() for f in t.features
        if isinstance(f, Reference) and f is not feature)
    if not other_root_usage:
        target.root = False

    if op.new_name != op.ref:
        _rewrite_segment(trace, "us", 1, [op.entity, op.ref], op.new_name)
        trace.add(f"us:{op.entity}.{op.ref}", f"us:{op.entity}.{op.new_name}",
                  "EVOLVE-RENAME")
    for link in trace.links:
        if (f"us:{op.entity}.{op.new_name}" in link.targets
                and link.role is not None and link.role.startswith("REF_")):
            link.role = AGGREGATE_CHILD


def _delete_feature(model: USchemaModel, trace: TraceStore,
                    op: DeleteFeature) -> None:
    schema_type = _entity(model, op.entity)
    feature = _find_feature(schema_type, op.feature)
    if isinstance(feature, Reference) and feature.is_featured_by is not None:
        raise EvolutionError(
            f"{op.entity}::{op.feature} is a relationship side; delete is unsupported")
    schema_type.features.remove(feature)
    for f in schema_type.features:
        if isinstance(f, (Key, Reference)) and op.feature in f.attributes:
            f.attributes = [a for a in f.attributes if a != op.feature]
        if isinstance(f, Attribute) and f.owned_by_reference == op.feature:
            f.owned_by_reference = None

    prefix = [op.entity, op.feature]
    dead: set[int] = set()
    for index, link in enumerate(trace.links):
        kept = [t for t in link.targets if not _under(t, prefix)]
        if not kept:
            dead.add(index)
        else:
            link.targets = kept
    trace.remove_links(dead)


def _under(element_id: str, prefix: list[str]) -> bool:
    if id_kind(element_id) != "us":
        return False
    segments = id_segments(element_id)
    return segments[:len(prefix)] == prefix


def _find_feature(schema_type, name: str):
    for f in schema_type.features:
        if f.name == name:
            return f
    raise EvolutionError(f"unknown feature {schema_type.name}::{name}")
