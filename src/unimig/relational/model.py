"""Relational schema model and the structural classification predicates.

Identifiers are stored lowercase. Foreign keys record the referenced table
and its key columns by name; ``RelationalSchema.resolve_fk_target`` maps a
foreign key back to the concrete key object it points at.
"""

from __future__ import annotations

import enum

from unimig.errors import ModelError
from unimig.record import field, record


class ReferentialAction(enum.Enum):
    CASCADE = "CASCADE"
    SET_NULL = "SET_NULL"
    NO_ACTION = "NO_ACTION"
    RESTRICT = "RESTRICT"
    SET_DEFAULT = "SET_DEFAULT"


_PARAM_FREE = {"TEXT", "INT", "BIGINT", "SMALLINT", "BOOLEAN", "DATE",
               "TIMESTAMP", "DOUBLE", "REAL"}
_LENGTH = {"CHAR", "VARCHAR"}
_PRECISION = {"DECIMAL", "NUMERIC"}

#: Buckets used when two SQL types should count as structurally interchangeable.
TYPE_CLASSES = {
    "CHAR": "string", "VARCHAR": "string", "TEXT": "string",
    "INT": "integer", "BIGINT": "integer", "SMALLINT": "integer",
    "BOOLEAN": "boolean",
    "DATE": "datetime", "TIMESTAMP": "datetime",
    "DECIMAL": "decimal", "NUMERIC": "decimal",
    "DOUBLE": "float", "REAL": "float",
}


@record
class SqlType:
    base: str
    length: int | None = None
    precision: int | None = None
    scale: int | None = None

    def __post_init__(self) -> None:
        if self.base in _LENGTH:
            if self.length is None or self.length <= 0:
                raise ModelError(f"{self.base} requires a positive length")
        elif self.base in _PRECISION:
            if self.precision is None or self.precision <= 0:
                raise ModelError(f"{self.base} requires a positive precision")
            if self.scale is None:
                self.scale = 0
            if self.scale > self.precision:
                raise ModelError(f"{self.base} scale {self.scale} exceeds its "
                                 f"precision {self.precision}")
        elif self.base in _PARAM_FREE:
            if self.length is not None or self.precision is not None:
                raise ModelError(f"{self.base} does not take parameters")
        else:
            raise ModelError(f"unsupported SQL type {self.base!r}")

    @property
    def type_class(self) -> str:
        return TYPE_CLASSES[self.base]

    def __str__(self) -> str:
        if self.base in _LENGTH:
            return f"{self.base}({self.length})"
        if self.base in _PRECISION:
            return f"{self.base}({self.precision},{self.scale})"
        return self.base


@record
class Column:
    name: str
    datatype: SqlType
    nullable: bool = True
    default: str | None = None  # opaque DEFAULT expression text, if declared


@record
class RKey:
    constraint_name: str
    is_pk: bool
    columns: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.columns:
            raise ModelError(f"key {self.constraint_name!r} has no columns")


@record
class FKey:
    constraint_name: str
    columns: list[str] = field(default_factory=list)
    ref_table: str = ""
    ref_columns: list[str] = field(default_factory=list)
    on_delete: ReferentialAction = ReferentialAction.NO_ACTION
    on_update: ReferentialAction = ReferentialAction.NO_ACTION

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise ModelError(
                f"foreign key {self.constraint_name!r} maps {len(self.columns)} "
                f"column(s) onto {len(self.ref_columns)}")


@record
class Table:
    name: str
    columns: list[Column] = field(default_factory=list)
    keys: list[RKey] = field(default_factory=list)
    fkeys: list[FKey] = field(default_factory=list)

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise ModelError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def primary_key(self) -> RKey | None:
        for k in self.keys:
            if k.is_pk:
                return k
        return None

    def key(self, constraint_name: str) -> RKey:
        for k in self.keys:
            if k.constraint_name == constraint_name:
                return k
        raise ModelError(f"table {self.name!r} has no key {constraint_name!r}")


@record
class RelationalSchema:
    name: str
    tables: list[Table] = field(default_factory=list)

    def table(self, name: str) -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise ModelError(f"schema {self.name!r} has no table {name!r}")

    def has_table(self, name: str) -> bool:
        return any(t.name == name for t in self.tables)

    def resolve_fk_target(self, fk: FKey) -> tuple[Table, RKey]:
        """The table and key a foreign key points at."""
        target = self.table(fk.ref_table)
        for k in target.keys:
            if k.columns == fk.ref_columns:
                return target, k
        raise ModelError(
            f"foreign key {fk.constraint_name!r} references no declared key of "
            f"{fk.ref_table!r} over columns {fk.ref_columns}")


# --- structural predicates --------------------------------------------------

def fk_in_pk(table: Table, fk: FKey) -> bool:
    """Whether every column of ``fk`` belongs to the table's primary key."""
    if fk not in table.fkeys:
        raise ModelError(
            f"foreign key {fk.constraint_name!r} is not owned by table {table.name!r}")
    pk = table.primary_key()
    if pk is None:
        return False
    return set(fk.columns) <= set(pk.columns)


def is_weak(table: Table) -> bool:
    """Whether exactly one foreign key of the table sits inside its primary key,
    making rows existence-dependent on the referenced (strong) table."""
    return sum(1 for fk in table.fkeys if fk_in_pk(table, fk)) == 1


def is_mn(table: Table) -> bool:
    """Whether two distinct foreign keys both sit inside the primary key,
    i.e. the table materializes a many-to-many association."""
    return sum(1 for fk in table.fkeys if fk_in_pk(table, fk)) >= 2


def identifying_fk(table: Table) -> FKey:
    """The single in-primary-key foreign key of a weak table."""
    hits = [fk for fk in table.fkeys if fk_in_pk(table, fk)]
    if len(hits) != 1:
        raise ModelError(f"table {table.name!r} is not weak")
    return hits[0]


# --- JSON form ----------------------------------------------------------------

def schema_to_dict(schema: RelationalSchema) -> dict:
    return {
        "name": schema.name,
        "tables": [
            {"name": t.name,
             "columns": [{"name": c.name, "type": str(c.datatype),
                          "nullable": c.nullable, "default": c.default}
                         for c in t.columns],
             "keys": [{"name": k.constraint_name, "isPk": k.is_pk,
                       "columns": list(k.columns)} for k in t.keys],
             "fkeys": [{"name": fk.constraint_name, "columns": list(fk.columns),
                        "refTable": fk.ref_table,
                        "refColumns": list(fk.ref_columns),
                        "onDelete": fk.on_delete.value,
                        "onUpdate": fk.on_update.value} for fk in t.fkeys]}
            for t in schema.tables
        ],
    }


def _parse_type_text(text: str) -> SqlType:
    if "(" in text:
        base, args = text[:-1].split("(", 1)
        numbers = [int(x) for x in args.split(",")]
        if base in _LENGTH:
            return SqlType(base, length=numbers[0])
        return SqlType(base, precision=numbers[0],
                       scale=numbers[1] if len(numbers) > 1 else 0)
    return SqlType(text)


def schema_from_dict(tree: dict) -> RelationalSchema:
    try:
        schema = RelationalSchema(tree["name"])
        for t in tree.get("tables", []):
            table = Table(t["name"])
            for c in t.get("columns", []):
                table.columns.append(Column(c["name"], _parse_type_text(c["type"]),
                                            nullable=c.get("nullable", True),
                                            default=c.get("default")))
            for k in t.get("keys", []):
                table.keys.append(RKey(k["name"], k["isPk"], list(k["columns"])))
            for fk in t.get("fkeys", []):
                table.fkeys.append(FKey(
                    fk["name"], list(fk["columns"]), fk["refTable"],
                    list(fk["refColumns"]),
                    on_delete=ReferentialAction(fk.get("onDelete", "NO_ACTION")),
                    on_update=ReferentialAction(fk.get("onUpdate", "NO_ACTION"))))
            schema.tables.append(table)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ModelError(f"missing or malformed field in relational model "
                         f"JSON: {exc}") from exc
    return schema


def validate_relational(schema: RelationalSchema) -> list[str]:
    """Structural problems as human-readable strings; empty means valid."""
    out: list[str] = []
    seen: set[str] = set()
    for t in schema.tables:
        if t.name in seen:
            out.append(f"duplicate table name {t.name!r}")
        seen.add(t.name)
        cols = set()
        for c in t.columns:
            if c.name in cols:
                out.append(f"duplicate column {t.name}.{c.name}")
            cols.add(c.name)
        if sum(1 for k in t.keys if k.is_pk) > 1:
            out.append(f"table {t.name!r} declares more than one primary key")
        for k in t.keys:
            for c in k.columns:
                if c not in cols:
                    out.append(f"key {t.name}.{k.constraint_name} lists unknown column {c!r}")
        for fk in t.fkeys:
            for c in fk.columns:
                if c not in cols:
                    out.append(
                        f"foreign key {t.name}.{fk.constraint_name} lists unknown column {c!r}")
            if not schema.has_table(fk.ref_table):
                out.append(f"foreign key {t.name}.{fk.constraint_name} "
                           f"references unknown table {fk.ref_table!r}")
                continue
            try:
                schema.resolve_fk_target(fk)
            except ModelError as exc:
                out.append(str(exc))
    return out
