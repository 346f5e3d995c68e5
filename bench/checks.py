"""Output checks for one ``unimig migrate`` run, computed apart from the
program: from the dataset's DDL and CSV files alone, with a DDL reader and
a table-to-document layout of their own.

Layout rules (the paper's canonical relational-to-document mapping):

* A table whose primary key is made up of two or more foreign keys
  (associative) becomes a collection keyed by ``<table>_id``, the key
  values joined with ``#``; its foreign-key columns stay as references.
* A table whose primary key holds exactly one foreign key plus columns of
  its own (weak) is embedded, as ``plural(<table>)``, in the objects of the
  table that foreign key references; the foreign-key columns are implied by
  the nesting and left out. Other foreign-key columns stay as references.
* Any other table becomes a collection keyed by its primary-key column.
  Each of its foreign keys becomes an array ``plural(<table>)`` of its ids
  on the referenced table's documents, and the foreign-key columns are left
  out.

Checks, each error prefixed by its kind:

* ``conservation``: every source row is exactly one document or embedded
  object, and there are no others;
* ``value``: every non-NULL cell equals its property by value (numbers
  compare numerically as decimals), NULL cells are absent, and no other
  property is present;
* ``reference``: every foreign-key pair shows as a reference, a reverse
  array or the nesting, and every reference resolves to a document;
* ``manifest``: the manifest's counts equal the JSONL line counts.

``output_digest`` fingerprints the output so that repeated runs on the same
input can be compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path

MAX_ERRORS = 50

_INT_TYPES = {"SMALLINT", "INT", "INTEGER", "BIGINT"}
_NUMBER_TYPES = {"REAL", "FLOAT", "DOUBLE", "DECIMAL", "NUMERIC"}
_TRUE = {"true", "t", "1", "yes"}


@dataclass
class FKey:
    name: str
    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


@dataclass
class Table:
    name: str
    columns: list[str] = field(default_factory=list)
    kinds: dict[str, str] = field(default_factory=dict)  # int | number | bool | str
    pk: tuple[str, ...] = ()
    fkeys: list[FKey] = field(default_factory=list)


def _names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(","))


def _split_top(body: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return [p.strip() for p in parts if p.strip()]


def read_ddl(text: str) -> dict[str, Table]:
    """Tables, column kinds, primary and foreign keys of a DDL file."""
    text = re.sub(r"--[^\n]*", "", text)
    tables: dict[str, Table] = {}
    for m in re.finditer(r"CREATE\s+TABLE\s+(\w+)\s*\((.*?)\)\s*;", text,
                         re.S | re.I):
        table = Table(m.group(1))
        for item in _split_top(m.group(2)):
            item = " ".join(item.split())
            pk = re.search(r"PRIMARY\s+KEY\s*\(([^)]*)\)", item, re.I)
            fk = re.search(r"FOREIGN\s+KEY\s*\(([^)]*)\)\s*REFERENCES\s+(\w+)"
                           r"\s*\(([^)]*)\)", item, re.I)
            if item.upper().startswith("CONSTRAINT"):
                name = item.split()[1]
                if pk:
                    table.pk = _names(pk.group(1))
                elif fk:
                    table.fkeys.append(FKey(name, _names(fk.group(1)),
                                            fk.group(2), _names(fk.group(3))))
                continue
            column, sql_type = item.split()[:2]
            base = re.match(r"\w+", sql_type).group(0).upper()
            table.columns.append(column)
            table.kinds[column] = ("int" if base in _INT_TYPES else
                                   "number" if base in _NUMBER_TYPES else
                                   "bool" if base == "BOOLEAN" else "str")
        tables[table.name] = table
    return tables


def plural(name: str) -> str:
    if name.endswith("s"):
        return name
    if name.endswith("y") and len(name) > 1 and name[-2] not in "aeiou":
        return name[:-1] + "ies"
    return name + "s"


@dataclass
class Place:
    """Where the rows of one table land in the output."""
    table: Table
    collection: str
    parent: str | None = None  # embedding table, for weak tables
    parent_fk: FKey | None = None
    own_key: tuple[str, ...] = ()  # identity within the parent
    derived_key: str | None = None  # associative tables
    dropped: frozenset[str] = frozenset()
    refs: dict[str, str] = field(default_factory=dict)  # kept FK column -> table
    reverse: list[FKey] = field(default_factory=list)  # FKs shown on the parent
    incoming: dict[str, tuple[str, FKey]] = field(default_factory=dict)  # array -> owner, FK
    ident_columns: list[str] = field(default_factory=list)  # see _ident
    children: dict[str, str] = field(default_factory=dict)  # property -> table


def layout(tables: dict[str, Table]) -> dict[str, Place]:
    places: dict[str, Place] = {}
    for t in tables.values():
        in_pk = [fk for fk in t.fkeys if set(fk.columns) <= set(t.pk)]
        covered = {c for fk in in_pk for c in fk.columns}
        if len(in_pk) >= 2 and covered == set(t.pk):
            places[t.name] = Place(t, t.name, derived_key=f"{t.name}_id")
        elif len(in_pk) == 1 and set(t.pk) > covered:
            fk = in_pk[0]
            places[t.name] = Place(
                t, "", parent=fk.ref_table, parent_fk=fk,
                own_key=tuple(c for c in t.pk if c not in covered),
                dropped=frozenset(fk.columns))
        elif len(t.pk) == 1 and not in_pk:
            places[t.name] = Place(
                t, t.name, own_key=t.pk,
                dropped=frozenset(c for fk in t.fkeys for c in fk.columns),
                reverse=list(t.fkeys))
        else:
            raise ValueError(f"table {t.name!r} has a shape the checks do not cover")
    for place in places.values():
        for fk in place.reverse:
            target = places[fk.ref_table]
            name = plural(place.table.name)
            if (len(fk.columns) != 1 or target.parent is not None
                    or name in target.incoming):
                raise ValueError(f"reference {fk.name!r} has a shape the checks "
                                 "do not cover")
            target.incoming[name] = (place.table.name, fk)
        if place.reverse:
            continue
        for fk in place.table.fkeys:
            if fk is place.parent_fk:
                continue
            if len(fk.columns) != 1 or places[fk.ref_table].parent is not None:
                raise ValueError(f"reference {fk.name!r} has a shape the checks "
                                 "do not cover")
            place.refs[fk.columns[0]] = fk.ref_table
    for place in places.values():
        if place.parent is not None:
            places[place.parent].children[plural(place.table.name)] = place.table.name
    for place in places.values():
        root = place
        while root.parent is not None:
            root = places[root.parent]
        place.collection = root.table.name
        place.ident_columns = _ident_columns(places, place)
    return places


def _ident_columns(places: dict[str, Place], place: Place) -> list[str]:
    """Columns of the table whose values make up an object's identity: the
    document id, then each embedding level's own key, as the output nests
    them. Associative tables use their derived id instead."""
    if place.parent is None:
        return [] if place.derived_key else list(place.own_key)
    parent = places[place.parent]
    if parent.derived_key:
        raise ValueError(f"table {place.table.name!r} nests under an "
                         "associative table; the checks do not cover it")
    back = dict(zip(place.parent_fk.ref_columns, place.parent_fk.columns))
    return ([back[c] for c in _ident_columns(places, parent)]
            + list(place.own_key))


# --- values ---------------------------------------------------------------------

def _key(kind: str, text: str) -> object:
    """Typed value of a non-empty CSV cell, for identities and lookups:
    integers and decimals hash and compare alike."""
    if kind == "int":
        return int(text)
    if kind == "number":
        return Decimal(text)
    if kind == "bool":
        return text.strip().lower() in _TRUE
    return text


def _json_key(value: object) -> object:
    return value if isinstance(value, (str, int, Decimal)) else repr(value)


def _same(kind: str, want: object, got: object) -> bool:
    """Whether the output value ``got`` equals the expected one by value."""
    if kind == "str":
        return isinstance(got, str) and got == want
    if kind in ("int", "number"):
        return (isinstance(got, (int, Decimal)) and not isinstance(got, bool)
                and Decimal(want) == got)
    if kind == "bool":
        return got is _key("bool", want)
    # reverse array: the expected ids as a multiset
    return (isinstance(got, list)
            and Counter(_json_key(v) for v in got) == Counter(want))


def _key_text(kind: str, text: str) -> str:
    if kind == "int":
        return str(int(text))
    if kind == "bool":
        return "true" if text.strip().lower() in _TRUE else "false"
    return text


def _rows(dataset: Path, table: Table):
    with open(dataset / f"{table.name}.csv", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        next(reader)
        for row in reader:
            yield dict(zip(table.columns, row))


def _doc_id(place: Place, row: dict[str, str]) -> object:
    t = place.table
    if place.derived_key:
        return "#".join(_key_text(t.kinds[c], row[c]) for c in t.pk)
    return _key(t.kinds[t.pk[0]], row[t.pk[0]])


class _Errors:
    def __init__(self) -> None:
        self.messages: list[str] = []
        self.count = 0

    def add(self, kind: str, message: str) -> None:
        self.count += 1
        if len(self.messages) < MAX_ERRORS:
            self.messages.append(f"{kind}: {message}")


# --- the check --------------------------------------------------------------------

def _load(path: Path) -> list[dict]:
    decoder = json.JSONDecoder(parse_float=Decimal)
    with open(path, encoding="utf-8") as f:
        return [decoder.decode(line) for line in f]


def _flatten(places: dict[str, Place], table: str, obj: dict, ident: tuple,
             out: dict, errors: _Errors) -> None:
    """Index ``obj`` and its embedded objects by (table, identity)."""
    place = places[table]
    key = (table, ident)
    if key in out:
        errors.add("conservation", f"{table} {ident} appears more than once")
    props = {}
    for name, value in obj.items():
        child = place.children.get(name)
        if child is None:
            props[name] = value
            continue
        own_key = places[child].own_key
        for item in value if isinstance(value, list) else [value]:
            if not isinstance(item, dict):
                errors.add("value", f"{table} {ident}: {name} holds {item!r}")
                continue
            own = tuple(_json_key(item.get(c)) for c in own_key)
            _flatten(places, child, item, ident + own, out, errors)
    out[key] = props


def _id_property(place: Place) -> str:
    return place.derived_key or place.own_key[0]


def check_output(dataset: Path | str, out_dir: Path | str) -> tuple[int, list[str]]:
    """Check ``out_dir`` against the dataset it was migrated from; returns
    the number of errors and the first ``MAX_ERRORS`` messages."""
    dataset, out_dir = Path(dataset), Path(out_dir)
    tables = read_ddl((dataset / "schema.sql").read_text(encoding="utf-8"))
    places = layout(tables)
    errors = _Errors()
    collections = sorted({p.collection for p in places.values()})

    docs: dict[str, list[dict]] = {}
    for name in collections:
        path = out_dir / f"{name}.jsonl"
        if not path.exists():
            errors.add("conservation", f"collection {name} is missing")
            docs[name] = []
        else:
            docs[name] = _load(path)
    extra = {p.stem for p in out_dir.glob("*.jsonl")} - set(collections)
    for name in sorted(extra):
        errors.add("conservation", f"unexpected collection {name}")

    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    lines = {name: len(docs[name]) for name in collections}
    if manifest.get("collections") != lines:
        errors.add("manifest", f"counts {manifest.get('collections')} differ "
                   f"from the JSONL line counts {lines}")

    ids: dict[str, Counter] = {}
    for name in collections:
        prop = _id_property(places[name])
        ids[name] = Counter(_json_key(d.get(prop)) for d in docs[name])

    # Reverse arrays expected on referenced documents:
    # (owner table, fk) -> referenced id -> owner ids.
    reverse: dict[tuple[str, str], dict[object, list[object]]] = {}
    for place in places.values():
        for fk in place.reverse:
            target = places[fk.ref_table].table
            by_parent = reverse[(place.table.name, fk.name)] = {}
            for row in _rows(dataset, place.table):
                if row[fk.columns[0]] != "":
                    parent = _key(target.kinds[fk.ref_columns[0]],
                                  row[fk.columns[0]])
                    by_parent.setdefault(parent, []).append(_doc_id(place, row))

    for name in collections:
        actual: dict[tuple, dict] = {}
        prop = _id_property(places[name])
        for doc in docs[name]:
            _flatten(places, name, doc, (_json_key(doc.get(prop)),), actual,
                     errors)
        docs[name] = []  # release the parsed documents
        for place in places.values():
            if place.collection == name:
                _check_table(dataset, places, place, actual, reverse, ids,
                             errors)
        for table, ident in actual:
            errors.add("conservation", f"{table} {ident} has no source row")
    return errors.count, errors.messages


def _ident(place: Place, row: dict[str, str]) -> tuple:
    if place.derived_key:
        return (_doc_id(place, row),)
    kinds = place.table.kinds
    return tuple(_key(kinds[c], row[c]) for c in place.ident_columns)


def _check_table(dataset: Path, places: dict[str, Place], place: Place,
                 actual: dict, reverse: dict, ids: dict[str, Counter],
                 errors: _Errors) -> None:
    t = place.table
    kept = [c for c in t.columns if c not in place.dropped]
    for row in _rows(dataset, t):
        ident = _ident(place, row)
        got = actual.pop((t.name, ident), None)
        if got is None:
            errors.add("conservation", f"{t.name} row {ident} has no object")
            continue
        want = {c: (t.kinds[c], row[c]) for c in kept if row[c] != ""}
        if place.derived_key:
            want[place.derived_key] = ("str", _doc_id(place, row))
        for name, (owner, fk) in place.incoming.items():
            parent = _key(t.kinds[fk.ref_columns[0]], row[fk.ref_columns[0]])
            want[name] = ("list", reverse[(owner, fk.name)].get(parent, []))
        for prop in want.keys() | got.keys():
            if prop not in got:
                kind, value = want[prop]
                if not (kind == "list" and not value):  # absent empty array
                    errors.add("value", f"{t.name} {ident}: {prop} is missing")
            elif prop not in want:
                what = "NULL cell" if prop in kept else "unexpected property"
                errors.add("value", f"{t.name} {ident}: {what} {prop} "
                           f"present as {got[prop]!r}")
            elif not _same(*want[prop], got[prop]):
                errors.add("value", f"{t.name} {ident}: {prop} is "
                           f"{got[prop]!r}, expected {want[prop][1]!r}")
        for column, target in place.refs.items():
            value = got.get(column)
            if value is not None and ids[target][_json_key(value)] != 1:
                errors.add("reference", f"{t.name} {ident}: {column} {value!r} "
                           f"does not resolve to one {target} document")
        for name, (owner, _) in place.incoming.items():
            for owner_id in got.get(name) or ():
                if ids[owner][_json_key(owner_id)] != 1:
                    errors.add("reference", f"{t.name} {ident}: {name} entry "
                               f"{owner_id!r} does not resolve to one {owner} "
                               "document")


# --- byte identity ------------------------------------------------------------------

_TIMING_KEYS = {"elapsedMs", "throughputRowsPerS"}


def _drop_timings(value):
    if isinstance(value, dict):
        return {k: _drop_timings(v) for k, v in value.items()
                if k not in _TIMING_KEYS}
    if isinstance(value, list):
        return [_drop_timings(v) for v in value]
    return value


def output_digest(out_dir: Path | str) -> str:
    """SHA-256 over every output file; the manifest enters without its
    timing fields, which differ from run to run."""
    out_dir = Path(out_dir)
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text(encoding="utf-8"))
            data = json.dumps(_drop_timings(manifest), sort_keys=True).encode()
        else:
            data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()
