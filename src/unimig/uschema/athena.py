"""Textual notation for pivot models.

Supported subset::

    schema  := "Schema" IDENT ":" INT entity*
    entity  := ("Root")? ("entity" | "Entity") IDENT "{" feature ("," feature)* "}"
    feature := ("+")? IDENT ":" ftype ("*")?
    ftype   := "String" | "Integer" | "Boolean" | "Double" | "Date"
             | "Decimal" "(" INT "," INT ")"
             | "Aggr" "<" IDENT ">" | "Ref" "<" IDENT ">"

``//`` starts a line comment. Identifiers are ASCII
(``[A-Za-z_][A-Za-z0-9_]*``, as trace ids require) and the keywords
``Schema``, ``Root`` and ``Entity`` match in any case. The text is split by
the scanner shared with the DDL parser (``unimig.notation``). A ``+``
prefix declares the feature as the identifier: the parser builds the
attribute plus a Key over it named ``<attr>_key``. A ``*`` suffix makes the
upper bound unbounded.

The notation cannot express relationship types, multi-attribute keys,
reference-carried attributes, optionality, or lower bounds other than the
defaults, so printing is total but lossy outside that subset: relationship
types are emitted as comment blocks and inexpressible key/attribute details
are dropped. ``parse_athena(print_athena(m)) == m`` holds for every model
the parser itself can produce.
"""

from __future__ import annotations

import re

from unimig.errors import TextParseError
from unimig.notation import Cursor, tokenize
from unimig.uschema.model import (
    Aggregate,
    Attribute,
    EntityType,
    Key,
    Reference,
    UNBOUNDED,
    USDataType,
    USchemaModel,
)
from unimig.uschema.validate import assert_valid

_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+|//[^\n]*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<symbol>[{}:,+*<>()])
""", re.VERBOSE)


def parse_athena(text: str) -> USchemaModel:
    """Parse the textual notation into a validated pivot model."""
    cur = Cursor(tokenize(text, _TOKEN))
    if not cur.take_word("SCHEMA"):
        raise cur.fail("expected 'Schema'")
    name = cur.expect_ident("schema name")
    cur.expect_symbol(":")
    cur.expect_int("integer")  # declared version, not kept on the model

    model = USchemaModel(name)
    while cur.peek().kind != "eof":
        model.entities.append(_parse_entity(cur))

    declared = {e.name for e in model.entities}
    for e in model.entities:
        for f in e.features:
            if isinstance(f, Reference) and f.refs_to not in declared:
                raise TextParseError(
                    f"reference {e.name}.{f.name} names undeclared type {f.refs_to!r}")
            if isinstance(f, Aggregate) and f.specified_by not in declared:
                raise TextParseError(
                    f"aggregate {e.name}.{f.name} names undeclared type {f.specified_by!r}")
    assert_valid(model)
    return model


def _parse_entity(cur: Cursor) -> EntityType:
    root = cur.take_word("ROOT")
    if not cur.take_word("ENTITY"):
        raise cur.fail("expected 'entity'")
    entity = EntityType(cur.expect_ident("entity name"), root=root)
    cur.expect_symbol("{")
    _parse_feature(cur, entity)
    while cur.take_symbol(","):
        _parse_feature(cur, entity)
    cur.expect_symbol("}")
    return entity


def _parse_feature(cur: Cursor, entity: EntityType) -> None:
    is_key = cur.take_symbol("+")
    name = cur.expect_ident("feature name")
    cur.expect_symbol(":")
    feature = _parse_ftype(cur, name)
    if cur.take_symbol("*"):
        if isinstance(feature, Attribute):
            raise cur.fail("'*' is not applicable to scalar features")
        feature.upper_bound = UNBOUNDED
    entity.features.append(feature)
    if is_key:
        if not isinstance(feature, Attribute):
            raise cur.fail("'+' is only applicable to scalar features")
        entity.features.append(Key(f"{name}_key", is_id=True, attributes=[name]))


def _parse_ftype(cur: Cursor, feature_name: str):
    tok = cur.peek()
    word = cur.expect_ident("type name")
    if word in ("String", "Integer", "Boolean", "Double", "Date"):
        return Attribute(feature_name, USDataType(word))
    if word == "Decimal":
        cur.expect_symbol("(")
        precision = cur.expect_int("integer")
        cur.expect_symbol(",")
        scale = cur.expect_int("integer")
        cur.expect_symbol(")")
        return Attribute(feature_name, USDataType("Decimal", precision, scale))
    if word in ("Aggr", "Ref"):
        cur.expect_symbol("<")
        target = cur.expect_ident("entity name")
        cur.expect_symbol(">")
        kind = Aggregate if word == "Aggr" else Reference
        return kind(feature_name, target, lower_bound=1, upper_bound=1)
    raise TextParseError(f"unknown type name {word!r}", tok.line, tok.column)


def print_athena(model: USchemaModel) -> str:
    """Render a pivot model in the textual notation (see module docstring
    for what is expressible)."""
    lines = [f"Schema {model.name}:1", ""]
    for entity in model.entities:
        head = "Root entity" if entity.root else "Entity"
        lines.append(f"{head} {entity.name} {{")
        body: list[str] = []
        id_attrs = _single_id_attrs(entity)
        for f in entity.features:
            if isinstance(f, Attribute):
                prefix = "+" if f.name in id_attrs else ""
                body.append(f"  {prefix}{f.name}: {f.type}")
            elif isinstance(f, Reference):
                star = "*" if f.upper_bound == UNBOUNDED else ""
                body.append(f"  {f.name}: Ref<{f.refs_to}>{star}")
            elif isinstance(f, Aggregate):
                star = "*" if f.upper_bound == UNBOUNDED else ""
                body.append(f"  {f.name}: Aggr<{f.specified_by}>{star}")
            # Keys are rendered through the '+' prefix of their attribute.
        lines.extend(line + "," for line in body[:-1])
        if body:
            lines.append(body[-1])
        lines.append("}")
    for rel in model.relationships:
        lines.append(f"// relationship {rel.name}: "
                     + ", ".join(f.name for f in rel.features)
                     + (" | sides: " + ", ".join(rel.references)))
    return "\n".join(lines) + "\n"


def _single_id_attrs(entity: EntityType) -> set[str]:
    key = entity.id_key()
    if key is not None and len(key.attributes) == 1:
        return {key.attributes[0]}
    return set()
