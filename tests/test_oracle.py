"""Differential oracle: migrated documents against a naive rebuild.

Random schemas (``util.random_schema``) get random matching CSV data with
NULL and dangling foreign keys, self-relationships, associative tables,
empty tables and files in arbitrary row order. The oracle resolves each
document property through the two traces to a column or a foreign key and
rebuilds every document of every collection from plain ``csv`` rows and
dicts; it never goes through ``unimig.source``. Technique: McKeeman,
"Differential Testing for Software", DTJ 1998.
"""

from __future__ import annotations

import csv
import json
import random
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from util import random_schema

import unimig.migrator
from unimig.document.model import DocReference, Embedded, Field
from unimig.migrator import migrate
from unimig.relational.ddl import print_ddl
from unimig.source import open_source
from unimig.trace import doc_path, id_segments
from unimig.transforms import rel_to_uschema, uschema_to_document

_TEXTS = ["a", "b c", "x,y", 'q"t', "Zoë", "ñ", "1", "true", " pad "]
_BOOLS = ["true", "false", "t", "f", "1", "0", "yes", "NO", " true "]


# --- random data -------------------------------------------------------------

def _value(rng: random.Random, base: str) -> str:
    if base in ("CHAR", "VARCHAR"):
        return rng.choice(_TEXTS)
    if base == "INT":
        return str(rng.choice([rng.randint(-3, 3),
                               rng.randint(-2**31, 2**31 - 1)]))
    if base == "BOOLEAN":
        return rng.choice(_BOOLS)
    if base == "DATE":
        return f"2025-0{rng.randint(1, 9)}-1{rng.randint(0, 9)} 10:00:00"
    if base == "DECIMAL":
        return f"{rng.randint(-99999, 99999) / 100:.2f}"
    return repr(rng.uniform(-1e6, 1e6))  # DOUBLE


def _identifier(rng: random.Random, base: str, i: int) -> str:
    return str(i * 7 - 5) if base == "INT" else f"k{i}{rng.choice('xyé')}"


def random_data(rng: random.Random, schema) -> dict[str, list[list[str]]]:
    """Rows per table as CSV text cells. Foreign keys mostly point at
    existing rows; some are NULL (where nullable) or dangling."""
    data: dict[str, list[list[str]]] = {}
    for table in schema.tables:
        n_rows = 0 if rng.random() < 0.15 else rng.randint(1, 8)
        names = [c.name for c in table.columns]
        pk = table.primary_key().columns
        rows, seen = [], set()
        for i in range(n_rows):
            row = {}
            for fk in table.fkeys:
                parents = data.get(fk.ref_table, [])
                if fk.ref_table == table.name:
                    parents = rows
                nullable = all(table.column(c).nullable for c in fk.columns)
                draw = rng.random()
                if nullable and draw < 0.2:
                    values = [""] * len(fk.columns)
                elif parents and draw < 0.85:
                    target = [c.name for c in schema.table(fk.ref_table).columns]
                    parent = rng.choice(parents)
                    values = [parent[target.index(c)] for c in fk.ref_columns]
                else:  # dangling
                    values = [_identifier(rng, schema.table(fk.ref_table)
                                          .column(c).datatype.base, 900 + i)
                              for c in fk.ref_columns]
                for column, value in zip(fk.columns, values):
                    row.setdefault(column, value)
            for column in table.columns:
                if column.name in row:
                    continue
                base = column.datatype.base
                if column.name == f"{table.name}_id":
                    row[column.name] = _identifier(rng, base, i)
                elif column.nullable and rng.random() < 0.3:
                    row[column.name] = ""
                else:
                    row[column.name] = _value(rng, base)
            key = tuple(row[c] for c in pk)
            if key not in seen:
                seen.add(key)
                rows.append([row[c] for c in names])
        if rng.random() < 0.5:
            rng.shuffle(rows)
        data[table.name] = rows
    return data


def write_dataset(root: Path, schema, data, line_end: str) -> None:
    root.mkdir()
    (root / "schema.sql").write_text(print_ddl(schema), encoding="utf-8")
    for table in schema.tables:
        with open(root / f"{table.name}.csv", "w", newline="",
                  encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator=line_end)
            writer.writerow([c.name for c in table.columns])
            writer.writerows(data[table.name])


# --- the oracle --------------------------------------------------------------

def _typed(datatype, text: str):
    if text == "":
        return None
    base = datatype.base
    if base in ("SMALLINT", "INT", "INTEGER", "BIGINT"):
        return int(text)
    if base in ("DECIMAL", "NUMERIC", "DOUBLE", "FLOAT", "REAL"):
        return float(text)
    if base == "BOOLEAN":
        return text.strip().lower() in ("true", "t", "1", "yes")
    return text


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _ident(values: tuple):
    return values[0] if len(values) == 1 else "#".join(map(_text, values))


class Oracle:
    """Rebuilds documents from CSV rows held as dicts of typed values."""

    def __init__(self, schema, t1, t2, root: Path):
        self.schema, self.t1, self.t2 = schema, t1, t2
        self.rows: dict[str, list[dict]] = {}
        for table in schema.tables:
            with open(root / f"{table.name}.csv", newline="",
                      encoding="utf-8") as handle:
                self.rows[table.name] = [
                    {c.name: _typed(c.datatype, row[c.name])
                     for c in table.columns}
                    for row in csv.DictReader(handle)]
        # properties left out for NULL, forward references left dangling
        self.nulls = self.dangling = 0

    def _back(self, store, element: str, rule: str | None = None):
        links = store.lookup(element, "backward")
        return [l for l in links if rule is None or l.rule == rule]

    def _fk(self, source: str):
        table_name, fk_name = id_segments(source)[:2]
        table = self.schema.table(table_name)
        return table, next(f for f in table.fkeys if f.constraint_name == fk_name)

    def collection(self, te) -> list[dict]:
        origin = next(l for l in self._back(self.t2, f"doc:{te.name}")
                      if l.rule in ("R2", "R7"))
        type_id = f"us:{id_segments(origin.sources[0])[0]}"
        table = self.schema.table(
            id_segments(self._back(self.t1, type_id, "R2")[0].sources[0])[0])
        return [self.document(te.properties, [(te.name, False)], table, row)
                for row in self.rows[table.name]]

    def document(self, properties, path, table, row) -> dict:
        doc = {}
        for prop in properties:
            here = doc_path(path + [(prop.name, isinstance(prop, Embedded))])
            rules = {l.rule: l for l in reversed(self._back(self.t2, here))}
            if isinstance(prop, Field):
                if "R3" not in rules:  # derived key
                    doc[prop.name] = "#".join(
                        _text(row[c]) for c in table.primary_key().columns)
                    continue
                column = id_segments(self._back(
                    self.t1, rules["R3"].sources[0], "R3")[0].sources[0])[1]
                value = row[column]
                if value is None:
                    self.nulls += 1
                    continue
                doc[prop.name] = (float(value) if prop.type.primitive == "DOUBLE"
                                  else value)
            elif isinstance(prop, DocReference) and "R5" in rules:
                link = next(l for l in self._back(self.t1, rules["R5"].sources[0])
                            if l.role in ("REF_FORWARD", "REF_REVERSE"))
                holder, fk = self._fk(link.sources[0])
                if link.role == "REF_FORWARD":
                    probe = tuple(row[c] for c in fk.columns)
                    if None in probe:
                        self.nulls += 1
                        continue
                    target = self.schema.table(fk.ref_table)
                    hits = sorted(
                        (tuple(r[c] for c in target.primary_key().columns)
                         for r in self.rows[target.name]
                         if tuple(r[c] for c in fk.ref_columns) == probe))
                    if hits:
                        doc[prop.name] = _ident(hits[0])
                    else:
                        self.dangling += 1
                else:
                    probe = tuple(row[c] for c in fk.ref_columns)
                    pk = holder.primary_key().columns
                    doc[prop.name] = [] if None in probe else [
                        _ident(k) for k in sorted(
                            tuple(r[c] for c in pk) for r in self.rows[holder.name]
                            if tuple(r[c] for c in fk.columns) == probe)]
            elif isinstance(prop, DocReference):  # a relationship side (R7)
                side = next(l for l in self._back(self.t1, rules["R7"].sources[0])
                            if l.role == "REL_TYPE_SIDE")
                _, fk = self._fk(side.sources[1])
                values = tuple(row[c] for c in fk.columns)
                if None in values:
                    self.nulls += 1
                else:
                    doc[prop.name] = _ident(values)
            else:
                agg = next(l for l in self._back(self.t1, rules["R6"].sources[0])
                           if l.role == "AGGREGATE_CHILD")
                child, fk = self._fk(agg.sources[1])
                probe = tuple(row[c] for c in fk.ref_columns)
                order = [c for c in child.primary_key().columns
                         if c not in fk.columns]
                rows = [] if None in probe else sorted(
                    (r for r in self.rows[child.name]
                     if tuple(r[c] for c in fk.columns) == probe),
                    key=lambda r: tuple(r[c] for c in order))
                docs = [self.document(prop.aggregates,
                                      path + [(prop.name, True)], child, r)
                        for r in rows]
                if prop.is_many:
                    doc[prop.name] = docs
                elif docs:
                    doc[prop.name] = docs[0]
        return doc


# --- the property ---------------------------------------------------------------

def _output(out: Path) -> dict:
    """Bytes of every collection and the manifest's counters."""
    files = {p.name: p.read_bytes() for p in out.glob("*.jsonl")}
    report = json.loads((out / "manifest.json").read_text())["report"]
    files["counters"] = [report["totals"]["rows"], report["totals"]["docs"]] + [
        [entry[key] for key in ("rowsRead", "docsWritten", "nullsOmitted",
                                "danglingRefs")]
        for entry in report["perEntity"].values()]
    return files


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_migration_matches_naive_rebuild(seed):
    rng = random.Random(seed)
    schema = random_schema(rng, for_data=True)
    step1 = rel_to_uschema(schema)
    step2 = uschema_to_document(step1.target)
    data = random_data(rng, schema)
    with tempfile.TemporaryDirectory() as tmp:
        root, out = Path(tmp) / "data", Path(tmp) / "out"
        write_dataset(root, schema, data, rng.choice(["\n", "\r\n"]))
        oracle = Oracle(schema, step1.trace, step2.trace, root)
        outputs = []
        for k in (1, 2, 3):  # row slices, one process each
            with mock.patch.object(unimig.migrator, "_cpus", return_value=k):
                session = open_source(root, schema, step1.trace)
                report = migrate(step2.target, step2.trace, session,
                                 out / str(k))
            outputs.append(_output(out / str(k)))
        assert outputs[1] == outputs[0] == outputs[2]
        out = out / "3"
        for te in step2.target.documents:
            lines = (out / f"{te.name}.jsonl").read_text(
                encoding="utf-8").splitlines()
            got = [json.loads(line) for line in lines]
            oracle.nulls = oracle.dangling = 0
            expected = oracle.collection(te)
            assert got == expected, te.name
            # byte for byte what json.dumps writes for the same documents
            assert lines == [json.dumps(doc, ensure_ascii=False,
                                        separators=(",", ":"))
                             for doc in expected], te.name
            stats = report.per_entity[te.name]
            assert (stats.nulls_omitted, stats.dangling_refs) == (
                oracle.nulls, oracle.dangling), te.name
