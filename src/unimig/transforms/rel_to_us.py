"""Relational schema to pivot model.

Rule summary (trace tags in parentheses):

* R1  schema name carries over.
* R2  every table becomes a schema type: a root entity type, or a
      relationship type when two foreign keys sit inside the primary key.
* R3  non-foreign-key columns become attributes.
* R4  keys of non-associative tables become keys over the surviving
      attributes; the primary key is the identifier.
* R5  a weak table (exactly one in-key foreign key) becomes a non-root
      entity type embedded through an aggregate in the strong type, unless
      some other table still points at it, in which case it stays root and
      its identifying foreign key falls through to R7.
* R6  an associative table's in-key foreign keys become mutual references
      placed crosswise in the linked entity types; their columns vanish.
* R7  remaining foreign keys become references: forward 0..1 when the
      foreign key is unique or its owner is weak (R7.1), otherwise a reverse
      0..* reference named after the plural of the owner, carrying
      ``<pkcol>_<owner>`` attributes (R7.2).

Columns consumed by R5/R6/R7 are tagged ``SKIP-FK-COL``; the unused primary
key of an associative table is tagged ``SKIP-MN-KEY``.
"""

from __future__ import annotations

from unimig.errors import TransformError
from unimig.relational.model import (
    FKey,
    RelationalSchema,
    Table,
    fk_in_pk,
    identifying_fk,
    is_mn,
    is_weak,
    validate_relational,
)
from unimig.trace import (
    AGGREGATE_CHILD,
    ATTRIBUTE,
    KEY_COMPONENT,
    REF_FORWARD,
    REF_REVERSE,
    REL_TYPE_SIDE,
    TraceStore,
)
from unimig.transforms.naming import plural, unique_name
from unimig.transforms.result import TransformResult
from unimig.transforms.typemap import rel_to_us_type
from unimig.uschema.model import (
    Aggregate,
    Attribute,
    EntityType,
    Key,
    Reference,
    RelationshipType,
    UNBOUNDED,
    USchemaModel,
)


def rel_to_uschema(schema: RelationalSchema) -> TransformResult:
    problems = validate_relational(schema)
    if problems:
        raise TransformError("invalid relational schema: " + "; ".join(problems))

    mn = {t.name for t in schema.tables if is_mn(t)}
    embedded = _embedded_weak_tables(schema, mn)
    _check_weak_chains(schema, embedded)

    trace = TraceStore()
    model = USchemaModel(schema.name)
    trace.add(f"rel:{schema.name}", f"us:{model.name}", "R1")

    fk_columns: dict[str, set[str]] = {
        t.name: {c for fk in t.fkeys for c in fk.columns} for t in schema.tables
    }

    # Element creation: types, attributes, keys (R2..R4).
    for table in schema.tables:
        if table.name in mn:
            schema_type: EntityType | RelationshipType = RelationshipType(table.name)
            model.relationships.append(schema_type)
        else:
            schema_type = EntityType(table.name, root=True)
            model.entities.append(schema_type)
        trace.add(f"rel:{table.name}", f"us:{table.name}", "R2")

        for column in table.columns:
            if column.name in fk_columns[table.name]:
                continue  # consumed by R5/R6/R7
            attr = Attribute(column.name, rel_to_us_type(column.datatype),
                             optional=column.nullable)
            schema_type.features.append(attr)
            trace.add(f"rel:{table.name}.{column.name}",
                      [f"us:{table.name}.{attr.name}",
                       f"us:{table.name}.{attr.name}.type"],
                      "R3", ATTRIBUTE)

        if table.name in mn:
            pk = table.primary_key()
            if pk is not None:
                trace.add(f"rel:{table.name}.{pk.constraint_name}",
                          f"us:{table.name}", "SKIP-MN-KEY")
            continue
        for rkey in table.keys:
            mapped = [c for c in rkey.columns if c not in fk_columns[table.name]]
            key = Key(rkey.constraint_name, is_id=rkey.is_pk, attributes=mapped)
            schema_type.features.append(key)
            trace.add(f"rel:{table.name}.{rkey.constraint_name}",
                      f"us:{table.name}.{key.name}", "R4", KEY_COMPONENT)

    # Relationship wiring: aggregates and references (R5..R7).
    for table in schema.tables:
        if table.name in mn:
            _apply_r6(schema, model, trace, table)
            for fk in table.fkeys:
                if not fk_in_pk(table, fk):
                    _apply_r7(schema, model, trace, table, fk, force_forward=True)
        elif table.name in embedded:
            _apply_r5(schema, model, trace, table)
            ident = identifying_fk(table)
            for fk in table.fkeys:
                if fk is not ident:
                    _apply_r7(schema, model, trace, table, fk)
        else:
            for fk in table.fkeys:
                _apply_r7(schema, model, trace, table, fk)

    return TransformResult(model, trace.seal())


def _embedded_weak_tables(schema: RelationalSchema, mn: set[str]) -> set[str]:
    """Weak tables that actually get embedded.

    A weak table referenced by anything other than the identifying foreign
    key of another embedded weak table must stay root, and once it stays
    root its own identifying foreign key blocks its parent in turn, hence
    the fixpoint.
    """
    embedded = {t.name for t in schema.tables if t.name not in mn and is_weak(t)}
    while True:
        blocked: set[str] = set()
        for table in schema.tables:
            exempt: FKey | None = None
            if table.name in embedded:
                exempt = identifying_fk(table)
            for fk in table.fkeys:
                if fk is not exempt:
                    blocked.add(fk.ref_table)
        still = embedded - blocked
        if still == embedded:
            return embedded
        embedded = still


def _check_weak_chains(schema: RelationalSchema, embedded: set[str]) -> None:
    parent = {w: identifying_fk(schema.table(w)).ref_table for w in embedded}
    for start in embedded:
        seen = {start}
        current = parent[start]
        while current in parent:
            if current in seen:
                raise TransformError(
                    f"weak-table chain forms a cycle through {current!r}")
            seen.add(current)
            current = parent[current]


def _taken(schema_type) -> set[str]:
    return {f.name for f in schema_type.features}


def _apply_r5(schema: RelationalSchema, model: USchemaModel, trace: TraceStore,
              weak: Table) -> None:
    fk = identifying_fk(weak)
    ew = model.entity(weak.name)
    ew.root = False
    strong = model.schema_type(fk.ref_table)
    ag = Aggregate(unique_name(plural(ew.name), _taken(strong)),
                   specified_by=ew.name, lower_bound=0, upper_bound=UNBOUNDED)
    strong.features.append(ag)
    target = f"us:{strong.name}.{ag.name}"
    trace.add([f"rel:{weak.name}", f"rel:{weak.name}.{fk.constraint_name}"],
              target, "R5", AGGREGATE_CHILD)
    for column in fk.columns:
        trace.add(f"rel:{weak.name}.{column}", target, "SKIP-FK-COL")


def _apply_r6(schema: RelationalSchema, model: USchemaModel, trace: TraceStore,
              assoc: Table) -> None:
    rm = model.relationship(assoc.name)
    sides = [fk for fk in assoc.fkeys if fk_in_pk(assoc, fk)]
    owners = []
    for fk in sides:
        target_type = model.schema_type(fk.ref_table)
        if isinstance(target_type, RelationshipType):
            raise TransformError(
                f"associative table {assoc.name!r} references another "
                f"associative table {fk.ref_table!r}")
        owners.append(target_type)
    for i, fk in enumerate(sides):
        placed_in = owners[(i + 1) % len(sides)]
        ref = Reference(unique_name(fk.constraint_name, _taken(placed_in)),
                        refs_to=owners[i].name, lower_bound=1,
                        upper_bound=UNBOUNDED, is_featured_by=rm.name)
        placed_in.features.append(ref)
        rm.references.append(ref.name)
        target = f"us:{placed_in.name}.{ref.name}"
        trace.add([f"rel:{assoc.name}", f"rel:{assoc.name}.{fk.constraint_name}"],
                  target, "R6", REL_TYPE_SIDE)
        for column in fk.columns:
            trace.add(f"rel:{assoc.name}.{column}", target, "SKIP-FK-COL")


def _apply_r7(schema: RelationalSchema, model: USchemaModel, trace: TraceStore,
              table: Table, fk: FKey, force_forward: bool = False) -> None:
    referenced = schema.table(fk.ref_table)
    et = model.schema_type(table.name)
    es = model.schema_type(referenced.name)
    unique_fk = any(not k.is_pk and set(k.columns) == set(fk.columns)
                    for k in table.keys)

    if force_forward or unique_fk or is_weak(table):
        # R7.1: forward 0..1 reference named after the referenced table,
        # carrying that table's primary key columns as owned attributes.
        ref = Reference(unique_name(referenced.name, _taken(et)),
                        refs_to=es.name, lower_bound=0, upper_bound=1)
        et.features.append(ref)
        ref_target = f"us:{et.name}.{ref.name}"
        trace.add(f"rel:{table.name}.{fk.constraint_name}", ref_target,
                  "R7.1", REF_FORWARD)
        carried = []
        source_pk = referenced.primary_key()
        for column_name in (source_pk.columns if source_pk else []):
            column = referenced.column(column_name)
            attr = Attribute(unique_name(column.name, _taken(et)),
                             rel_to_us_type(column.datatype), optional=True,
                             owned_by_reference=ref.name)
            et.features.append(attr)
            ref.attributes.append(attr.name)
            carried.append(attr.name)
            trace.add(f"rel:{referenced.name}.{column_name}",
                      f"us:{et.name}.{attr.name}", "R7.1", ATTRIBUTE)
        if unique_fk:
            uk = next(k for k in table.keys
                      if not k.is_pk and set(k.columns) == set(fk.columns))
            us_key = et.feature(uk.constraint_name)
            us_key.attributes.extend(carried)
        for column in fk.columns:
            trace.add(f"rel:{table.name}.{column}", ref_target, "SKIP-FK-COL")
    else:
        # R7.2: reverse 0..* reference in the referenced type, named after the
        # plural of the owner, carrying `<pkcol>_<owner>` attributes.
        if isinstance(es, RelationshipType):
            raise TransformError(
                f"foreign key {table.name}.{fk.constraint_name} targets the "
                f"associative table {referenced.name!r}; reverse references "
                "cannot point at relationship types")
        ref = Reference(unique_name(plural(table.name), _taken(es)),
                        refs_to=et.name, lower_bound=0, upper_bound=UNBOUNDED)
        es.features.append(ref)
        ref_target = f"us:{es.name}.{ref.name}"
        trace.add(f"rel:{table.name}.{fk.constraint_name}", ref_target,
                  "R7.2", REF_REVERSE)
        owner_pk = table.primary_key()
        for column_name in (owner_pk.columns if owner_pk else []):
            column = table.column(column_name)
            attr = Attribute(unique_name(f"{column.name}_{et.name}", _taken(es)),
                             rel_to_us_type(column.datatype), optional=True,
                             owned_by_reference=ref.name)
            es.features.append(attr)
            ref.attributes.append(attr.name)
            trace.add(f"rel:{table.name}.{column_name}",
                      f"us:{es.name}.{attr.name}", "R7.2", ATTRIBUTE)
        for column in fk.columns:
            trace.add(f"rel:{table.name}.{column}", ref_target, "SKIP-FK-COL")
