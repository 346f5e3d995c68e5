"""Shared test helpers: element universes for trace totality checks, random
schema/table generators, and naive CSV-scan oracles."""

from __future__ import annotations

import csv
import random
from pathlib import Path

from unimig.document.model import DocumentSchema, Embedded
from unimig.relational.model import (
    Column,
    FKey,
    RelationalSchema,
    RKey,
    SqlType,
    Table,
)
from unimig.trace import doc_path
from unimig.uschema.model import USchemaModel

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"


# --- element universes -------------------------------------------------------

def us_universe(model: USchemaModel) -> set[str]:
    ids = {f"us:{model.name}"}
    for t in model.types():
        ids.add(f"us:{t.name}")
        for f in t.features:
            ids.add(f"us:{t.name}.{f.name}")
    return ids


def doc_universe(schema: DocumentSchema) -> set[str]:
    ids = {f"doc:{schema.name}"}
    for d in schema.documents:
        ids.add(f"doc:{d.name}")
        _walk_doc(d.properties, [(d.name, False)], ids)
    return ids


def _walk_doc(properties, path, ids: set[str]) -> None:
    for p in properties:
        embedded = isinstance(p, Embedded)
        ids.add(doc_path(path + [(p.name, embedded)]))
        if embedded:
            _walk_doc(p.aggregates, path + [(p.name, True)], ids)


def rel_universe(schema: RelationalSchema) -> set[str]:
    ids = {f"rel:{schema.name}"}
    for t in schema.tables:
        ids.add(f"rel:{t.name}")
        for c in t.columns:
            ids.add(f"rel:{t.name}.{c.name}")
        for k in t.keys:
            ids.add(f"rel:{t.name}.{k.constraint_name}")
        for fk in t.fkeys:
            ids.add(f"rel:{t.name}.{fk.constraint_name}")
    return ids


# --- random generators ---------------------------------------------------------

_TYPES = [
    SqlType("CHAR", length=8),
    SqlType("VARCHAR", length=40),
    SqlType("INT"),
    SqlType("BOOLEAN"),
    SqlType("DATE"),
    SqlType("DECIMAL", precision=8, scale=2),
    SqlType("DOUBLE"),
]


def random_table(rng: random.Random, name: str = "t0") -> Table:
    """Arbitrary table shapes for predicate testing; foreign keys point at a
    fictitious target, which the predicates never resolve."""
    n_cols = rng.randint(1, 6)
    table = Table(name)
    for i in range(n_cols):
        table.columns.append(Column(f"c{i}", rng.choice(_TYPES)))
    if rng.random() < 0.85:
        pk_size = rng.randint(1, n_cols)
        pk_cols = [f"c{i}" for i in sorted(rng.sample(range(n_cols), pk_size))]
        table.keys.append(RKey(f"{name}_pk", is_pk=True, columns=pk_cols))
    for j in range(rng.randint(0, 3)):
        size = rng.randint(1, n_cols)
        cols = [f"c{i}" for i in sorted(rng.sample(range(n_cols), size))]
        table.fkeys.append(FKey(f"{name}_fk{j + 1}", cols, "other",
                                [f"x{i}" for i in range(size)]))
    return table


def random_schema(rng: random.Random, max_tables: int = 6,
                  for_data: bool = False) -> RelationalSchema:
    """Valid schemas for transform round-trip properties: every table has a
    primary key, foreign keys reuse the referenced key's column names (the
    common convention), weak tables keep a local discriminator column, and
    references only point backwards, so aggregation chains stay acyclic.

    ``for_data`` adds shapes that only data tests need: INT identifier
    columns, associative tables with both sides on one table and tables
    holding a nullable reference to themselves.
    """
    schema = RelationalSchema("gen")
    associative: set[str] = set()
    n_tables = rng.randint(1, max_tables)
    for index in range(n_tables):
        name = f"t{index}"
        table = Table(name)
        pk_col = f"{name}_id"
        pk_type = SqlType("CHAR", length=8)
        if for_data and rng.random() < 0.4:
            pk_type = SqlType("INT")
        table.columns.append(Column(pk_col, pk_type, nullable=False))
        for i in range(rng.randint(1, 3)):
            table.columns.append(Column(f"{name}_a{i}", rng.choice(_TYPES),
                                        nullable=rng.random() < 0.5))
        pk_cols = [pk_col]
        # Associative tables map to relationship types, which references
        # cannot target, so they never serve as foreign key targets here.
        candidates = [t for t in schema.tables if t.name not in associative]
        kind = rng.random()
        if candidates and kind < 0.25:
            # weak: identifying foreign key inside the primary key
            parent = rng.choice(candidates)
            parent_pk = parent.primary_key().columns
            fk_cols = []
            for c in parent_pk:
                local = c if not table.has_column(c) else f"{parent.name}_{c}"
                table.columns.append(Column(local, _copy_type(parent.column(c)),
                                            nullable=False))
                fk_cols.append(local)
            table.fkeys.append(FKey(f"{name}_fkw", fk_cols, parent.name,
                                    list(parent_pk)))
            pk_cols = fk_cols + [pk_col]
        elif len(candidates) >= 2 and kind < 0.45:
            # associative: two identifying foreign keys
            associative.add(name)
            left, right = rng.sample(candidates, 2)
            if for_data and rng.random() < 0.3:
                right = left
            pk_cols = []
            for side, parent in enumerate((left, right)):
                parent_pk = parent.primary_key().columns
                fk_cols = []
                for c in parent_pk:
                    local = c if not table.has_column(c) else f"s{side}_{c}"
                    table.columns.append(Column(local, _copy_type(parent.column(c)),
                                                nullable=False))
                    fk_cols.append(local)
                table.fkeys.append(FKey(f"{name}_fkm{side}", fk_cols,
                                        parent.name, list(parent_pk)))
                pk_cols.extend(fk_cols)
        elif candidates and kind < 0.75:
            # plain reference to an earlier table
            parent = rng.choice(candidates)
            parent_pk = parent.primary_key().columns
            fk_cols = []
            for c in parent_pk:
                local = c if not table.has_column(c) else f"{parent.name}_{c}"
                table.columns.append(Column(local, _copy_type(parent.column(c)),
                                            nullable=True))
                fk_cols.append(local)
            table.fkeys.append(FKey(f"{name}_fkr", fk_cols, parent.name,
                                    list(parent_pk)))
            if rng.random() < 0.3:
                table.keys.append(RKey(f"{name}_uk1", is_pk=False,
                                       columns=list(fk_cols)))
        if for_data and pk_cols == [pk_col] and rng.random() < 0.3:
            own = f"{name}_parent"
            table.columns.append(Column(own, _copy_type(table.column(pk_col)),
                                        nullable=True))
            table.fkeys.append(FKey(f"{name}_fks", [own], name, [pk_col]))
        table.keys.insert(0, RKey(f"{name}_pk", is_pk=True, columns=pk_cols))
        schema.tables.append(table)
    return schema


def _copy_type(column: Column) -> SqlType:
    dt = column.datatype
    return SqlType(dt.base, dt.length, dt.precision, dt.scale)


# --- naive CSV oracles --------------------------------------------------------

def scan_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def scan_filter(path: Path, predicate) -> list[dict[str, str]]:
    return [row for row in scan_csv(path) if predicate(row)]
