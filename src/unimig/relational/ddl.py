"""SQL DDL subset: CREATE TABLE statements into relational models and back.

Supported per statement: column definitions with ``NOT NULL``, ``DEFAULT
<expr>`` (kept as opaque text) and inline ``PRIMARY KEY``; table-level
``PRIMARY KEY (...)``, ``UNIQUE (...)`` and ``FOREIGN KEY (...) REFERENCES
t (...)`` with optional ``ON DELETE`` / ``ON UPDATE`` actions, each
optionally prefixed by ``CONSTRAINT <name>``. ``--`` starts a comment,
statements end with ``;``. Keywords are case-insensitive and identifiers are
stored lowercase. Identifiers are ASCII (``[A-Za-z_][A-Za-z0-9_]*``, as
trace ids require) and type sizes are unsigned ASCII integers. Unnamed
constraints get synthesized names (``<table>_pk``, ``<table>_fk<i>``,
``<table>_uk<i>``) so that they can be addressed stably from trace links.
The text is split by the scanner shared with the Athena notation
(``unimig.notation``).

A leading ``-- schema: <name>`` comment names the schema; ``print_ddl``
always emits one, which makes parse/print a exact round trip.
"""

from __future__ import annotations

import re

from unimig.errors import ModelError, TextParseError
from unimig.notation import Cursor, Token, tokenize
from unimig.relational.model import (
    Column,
    FKey,
    ReferentialAction,
    RelationalSchema,
    RKey,
    SqlType,
    Table,
    validate_relational,
)

_TYPE_ALIASES = {"INTEGER": "INT", "BOOL": "BOOLEAN"}
_SCHEMA_COMMENT = re.compile(r"^\s*--\s*schema:\s*([A-Za-z_][A-Za-z0-9_]*)\s*$")
# A number keeps its dots so that DEFAULT 1.5 stays one token.
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+|--[^\n]*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9][0-9.]*)
  | (?P<string>'(?:[^']|'')*'(?!'))
  | (?P<open_string>'[\s\S]*)
  | (?P<symbol>[(),;])
""", re.VERBOSE)

_Pending = list[tuple[Table, FKey, Token, bool]]


def parse_ddl(text: str, name: str = "schema") -> RelationalSchema:
    """Parse DDL text into a resolved, validated relational schema."""
    for raw_line in text.splitlines():
        m = _SCHEMA_COMMENT.match(raw_line)
        if m:
            name = m.group(1).lower()
            break

    tokens = tokenize(text, _TOKEN)
    if len(tokens) > 1 and tokens[-2].kind == "open_string":
        raise TextParseError("unterminated string literal",
                             tokens[-2].line, tokens[-2].column)
    cur = Cursor(tokens)
    schema = RelationalSchema(name.lower())
    pending_fks: _Pending = []
    while cur.peek().kind != "eof":
        token_at_start = cur.peek()
        cur.expect_word("CREATE")
        cur.expect_word("TABLE")
        table_name = _expect_name(cur, "table name")
        if schema.has_table(table_name):
            raise TextParseError(f"duplicate table {table_name!r}",
                                 token_at_start.line, token_at_start.column)
        table = Table(table_name)
        cur.expect_symbol("(")
        _parse_table_item(cur, table, pending_fks)
        while cur.take_symbol(","):
            _parse_table_item(cur, table, pending_fks)
        cur.expect_symbol(")")
        cur.expect_symbol(";")
        schema.tables.append(table)

    _resolve_fkeys(schema, pending_fks)
    problems = validate_relational(schema)
    if problems:
        raise TextParseError("; ".join(problems))
    return schema


def _expect_name(cur: Cursor, what: str) -> str:
    return cur.expect_ident(what).lower()


def _parse_table_item(cur: Cursor, table: Table, pending: _Pending) -> None:
    constraint_name: str | None = None
    if cur.take_word("CONSTRAINT"):
        constraint_name = _expect_name(cur, "constraint name")

    at = cur.peek()
    if cur.take_word("PRIMARY"):
        cur.expect_word("KEY")
        columns = _parse_column_list(cur)
        _add_pk(cur, table, constraint_name, columns)
        return
    if cur.take_word("UNIQUE"):
        columns = _parse_column_list(cur)
        nth = sum(1 for k in table.keys if not k.is_pk) + 1
        table.keys.append(RKey(constraint_name or f"{table.name}_uk{nth}",
                               is_pk=False, columns=columns))
        return
    if cur.take_word("FOREIGN"):
        cur.expect_word("KEY")
        columns = _parse_column_list(cur)
        cur.expect_word("REFERENCES")
        ref_table = _expect_name(cur, "table name")
        explicit = cur.peek().text == "("
        ref_columns = _parse_column_list(cur) if explicit else list(columns)
        on_delete, on_update = _parse_actions(cur)
        nth = len(table.fkeys) + 1
        fk = FKey(constraint_name or f"{table.name}_fk{nth}", columns,
                  ref_table, ref_columns,
                  on_delete=on_delete, on_update=on_update)
        pending.append((table, fk, at, explicit))
        table.fkeys.append(fk)
        return
    if constraint_name is not None:
        raise cur.fail("CONSTRAINT must introduce PRIMARY KEY, UNIQUE or FOREIGN KEY")

    _parse_column_def(cur, table)


def _parse_column_def(cur: Cursor, table: Table) -> None:
    col_name = _expect_name(cur, "column name")
    if table.has_column(col_name):
        raise cur.fail(f"duplicate column {col_name!r} in table {table.name!r}")
    datatype = _parse_type(cur)
    column = Column(col_name, datatype)
    while True:
        if cur.take_word("NOT"):
            cur.expect_word("NULL")
            column.nullable = False
        elif cur.take_word("DEFAULT"):
            column.default = _parse_default(cur)
        elif cur.take_word("PRIMARY"):
            cur.expect_word("KEY")
            column.nullable = False
            _add_pk(cur, table, None, [col_name])
        else:
            break
    table.columns.append(column)


def _parse_type(cur: Cursor) -> SqlType:
    tok = cur.peek()
    word = cur.expect_ident("type name").upper()
    word = _TYPE_ALIASES.get(word, word)
    if word == "DOUBLE":
        cur.take_word("PRECISION")
    sizes: dict[str, int] = {}
    if word in ("CHAR", "VARCHAR"):
        cur.expect_symbol("(")
        sizes["length"] = _expect_size(cur)
        cur.expect_symbol(")")
    elif word in ("DECIMAL", "NUMERIC"):
        sizes = {"precision": 38, "scale": 0}
        if cur.take_symbol("("):
            sizes["precision"] = _expect_size(cur)
            if cur.take_symbol(","):
                sizes["scale"] = _expect_size(cur)
            cur.expect_symbol(")")
    try:
        return SqlType(word, **sizes)
    except ModelError as exc:
        raise TextParseError(str(exc), tok.line, tok.column) from exc


def _expect_size(cur: Cursor) -> int:
    tok = cur.peek()
    if tok.kind == "int" and not tok.text.isdigit():
        raise cur.fail(f"type size must be an unsigned integer, found {tok.text!r}")
    return cur.expect_int("number")


def _parse_default(cur: Cursor) -> str:
    # Opaque: grab tokens until the column definition continues or ends.
    parts: list[str] = []
    depth = 0
    while True:
        tok = cur.peek()
        if tok.kind == "eof":
            raise cur.fail("unterminated DEFAULT expression")
        if depth == 0 and (tok.kind == "symbol" and tok.text in (",", ")")
                           or cur.at_word("NOT", "PRIMARY", "CONSTRAINT", "UNIQUE")):
            break
        if tok.kind == "symbol":
            depth += {"(": 1, ")": -1}.get(tok.text, 0)
        parts.append(cur.next().text)
    if not parts:
        raise cur.fail("DEFAULT requires an expression")
    return " ".join(parts)


def _parse_column_list(cur: Cursor) -> list[str]:
    cur.expect_symbol("(")
    cols = [_expect_name(cur, "column name")]
    while cur.take_symbol(","):
        cols.append(_expect_name(cur, "column name"))
    cur.expect_symbol(")")
    return cols


_ACTIONS = {
    ("CASCADE",): ReferentialAction.CASCADE,
    ("SET", "NULL"): ReferentialAction.SET_NULL,
    ("SET", "DEFAULT"): ReferentialAction.SET_DEFAULT,
    ("NO", "ACTION"): ReferentialAction.NO_ACTION,
    ("RESTRICT",): ReferentialAction.RESTRICT,
}


def _parse_actions(cur: Cursor) -> tuple[ReferentialAction, ReferentialAction]:
    on_delete = on_update = ReferentialAction.NO_ACTION
    while cur.take_word("ON"):
        event = cur.expect_word("DELETE", "UPDATE")
        action = _parse_one_action(cur)
        if event == "DELETE":
            on_delete = action
        else:
            on_update = action
    return on_delete, on_update


def _parse_one_action(cur: Cursor) -> ReferentialAction:
    first = cur.expect_word("CASCADE", "SET", "NO", "RESTRICT")
    if first in ("CASCADE", "RESTRICT"):
        return _ACTIONS[(first,)]
    second = cur.expect_word("NULL", "DEFAULT", "ACTION")
    return _ACTIONS[(first, second)]


def _add_pk(cur: Cursor, table: Table, constraint_name: str | None,
            columns: list[str]) -> None:
    if table.primary_key() is not None:
        raise cur.fail(f"table {table.name!r} already has a primary key")
    table.keys.insert(0, RKey(constraint_name or f"{table.name}_pk",
                              is_pk=True, columns=columns))


def _resolve_fkeys(schema: RelationalSchema, pending: _Pending) -> None:
    for table, fk, at, explicit in pending:
        if not schema.has_table(fk.ref_table):
            raise TextParseError(
                f"foreign key {fk.constraint_name!r} references unknown table "
                f"{fk.ref_table!r}", at.line, at.column)
        target = schema.table(fk.ref_table)
        if not explicit:
            pk = target.primary_key()
            if pk is None:
                raise TextParseError(
                    f"foreign key {fk.constraint_name!r} references {fk.ref_table!r} "
                    "which has no primary key", at.line, at.column)
            fk.ref_columns = list(pk.columns)
        else:
            match = next((k for k in target.keys if k.columns == fk.ref_columns), None)
            if match is None:
                raise TextParseError(
                    f"foreign key {fk.constraint_name!r} references no key of "
                    f"{fk.ref_table!r} over columns {fk.ref_columns}", at.line, at.column)
        if len(fk.columns) != len(fk.ref_columns):
            raise TextParseError(
                f"foreign key {fk.constraint_name!r} maps {len(fk.columns)} column(s) "
                f"onto {len(fk.ref_columns)}", at.line, at.column)


def print_ddl(schema: RelationalSchema) -> str:
    """Deterministic DDL text for a schema; output re-parses to an equal model."""
    lines = [f"-- schema: {schema.name}"]
    for table in schema.tables:
        lines.append("")
        lines.append(f"CREATE TABLE {table.name} (")
        items: list[str] = []
        for col in table.columns:
            parts = [f"  {col.name} {col.datatype}"]
            if not col.nullable:
                parts.append("NOT NULL")
            if col.default is not None:
                parts.append(f"DEFAULT {col.default}")
            items.append(" ".join(parts))
        for key in table.keys:
            kind = "PRIMARY KEY" if key.is_pk else "UNIQUE"
            items.append(f"  CONSTRAINT {key.constraint_name} {kind} "
                         f"({', '.join(key.columns)})")
        for fk in table.fkeys:
            clause = (f"  CONSTRAINT {fk.constraint_name} FOREIGN KEY "
                      f"({', '.join(fk.columns)}) REFERENCES {fk.ref_table} "
                      f"({', '.join(fk.ref_columns)})")
            if fk.on_delete is not ReferentialAction.NO_ACTION:
                clause += f" ON DELETE {fk.on_delete.value.replace('_', ' ')}"
            if fk.on_update is not ReferentialAction.NO_ACTION:
                clause += f" ON UPDATE {fk.on_update.value.replace('_', ' ')}"
            items.append(clause)
        lines.append(",\n".join(items))
        lines.append(");")
    return "\n".join(lines) + "\n"
