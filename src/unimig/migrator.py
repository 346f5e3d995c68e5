"""Trace-driven instance migration into JSON-lines collections.

``compile_plan`` resolves the pivot-side origin of a collection and of each
of its properties backward through the second trace. ``migrate`` compiles
that plan once per collection into a function from a typed CSV row to the
JSON text of its document, reading columns by position: fields are
attribute values, keys are verbatim or ``#``-joined source key components,
references are identifiers from a covering index, and embedded objects are
child rows read through the run index of the child file, built
recursively. Each property appends a ``"<name>":<value>`` fragment whose
name is encoded at compile time and whose value encoder is picked there
from the column's type, so the text is byte for byte what ``json.dumps``
(compact, ``ensure_ascii=False``) writes for the same document.

Every collection is compiled before any runs, which plans the indexes they
probe; each file's planned indexes are then built in one pass, before any
collection is written, so a bad cell or NULL key value an index relies on
fails before any output. The report's total ``elapsedMs`` includes that
pass. A NULL value leaves its property out and is counted
(``nullsOmitted``), as is a forward reference whose target row is missing
(``danglingRefs``); a NULL key fails. Each document is written as one line
through one open ``<collection>.jsonl`` per collection (``write_batch``),
plus a ``manifest.json``; a failed collection's partial file is removed.
"""

from __future__ import annotations

import json
import time
from json.encoder import encode_basestring
from dataclasses import dataclass, field
from pathlib import Path
from operator import itemgetter
from typing import Callable, TextIO

from unimig.document.model import (
    DocReference,
    DocumentSchema,
    DocumentType,
    Embedded,
    Field,
    Property,
)
from unimig.errors import MigrationError, SourceError
from unimig.relational.model import Table
from unimig.source import (
    KEY_SEPARATOR,
    SourceSession,
    _Link,
    _TableFile,
    fmt_id,
    read_entity_all,  # noqa: F401  (the cursor entry point, re-exported)
)
from unimig.trace import TraceStore, doc_path, id_segments


@dataclass
class EntityStats:
    rows_read: int = 0
    docs_written: int = 0
    elapsed_ms: float = 0.0
    nulls_omitted: int = 0  # properties left out because their value is NULL
    dangling_refs: int = 0  # forward references whose target row is missing


@dataclass
class MigrationReport:
    per_entity: dict[str, EntityStats] = field(default_factory=dict)
    index_ms: float = 0.0  # the pass that builds every planned index

    @property
    def total_rows(self) -> int:
        return sum(s.rows_read for s in self.per_entity.values())

    @property
    def total_docs(self) -> int:
        return sum(s.docs_written for s in self.per_entity.values())

    @property
    def total_elapsed_ms(self) -> float:
        return self.index_ms + sum(s.elapsed_ms for s in self.per_entity.values())

    @property
    def throughput_rows_per_s(self) -> float:
        seconds = self.total_elapsed_ms / 1000.0
        return self.total_rows / seconds if seconds > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "perEntity": {
                name: {"rowsRead": s.rows_read, "docsWritten": s.docs_written,
                       "elapsedMs": round(s.elapsed_ms, 3),
                       "nullsOmitted": s.nulls_omitted,
                       "danglingRefs": s.dangling_refs}
                for name, s in self.per_entity.items()
            },
            "totals": {"rows": self.total_rows, "docs": self.total_docs,
                       "elapsedMs": round(self.total_elapsed_ms, 3),
                       "throughputRowsPerS": round(self.throughput_rows_per_s, 1)},
        }


# --- property plans -----------------------------------------------------------

@dataclass
class _Step:
    kind: str  # attr | key_attr | key_derived | ref_forward | ref_reverse | side_ref | embedded
    name: str  # document property name
    us_feature: str = ""  # feature name on the pivot side
    us_owner: str = ""  # entity type holding the feature (side references)
    primitive: str = "STRING"
    many: bool = False
    sub: list["_Step"] = field(default_factory=list)


def compile_plan(t2: TraceStore, te: DocumentType) -> tuple[str, list[_Step]]:
    """Resolve the pivot origin of a collection and of each of its
    properties; returns (pivot type name, steps)."""
    origin_links = t2.lookup(f"doc:{te.name}", "backward")
    origin = next((l for l in origin_links if l.rule in ("R2", "R7")), None)
    if origin is None:
        raise MigrationError(
            f"collection {te.name!r} has no pivot origin in the trace")
    ue_name = id_segments(origin.sources[0])[0]
    steps = _compile_properties(t2, te.properties, [(te.name, False)])
    return ue_name, steps


def _compile_properties(t2: TraceStore, properties: list[Property],
                        path: list[tuple[str, bool]]) -> list[_Step]:
    steps: list[_Step] = []
    for prop in properties:
        prop_path = doc_path(path + [(prop.name, isinstance(prop, Embedded))])
        links = t2.lookup(prop_path, "backward")
        if not links:
            raise MigrationError(f"property {prop_path} has no trace origin")
        step = _compile_property(t2, prop, prop_path, links, path)
        steps.append(step)
    return steps


def _compile_property(t2: TraceStore, prop: Property, prop_path: str,
                      links, path) -> _Step:
    by_rule = {}
    for link in links:
        by_rule.setdefault(link.rule, link)

    if isinstance(prop, Field):
        if prop.is_key:
            r3 = by_rule.get("R3")
            if r3 is not None:
                return _Step("key_attr", prop.name,
                             us_feature=id_segments(r3.sources[0])[1],
                             primitive=prop.type.primitive)
            return _Step("key_derived", prop.name)
        r3 = by_rule.get("R3")
        if r3 is None:
            raise MigrationError(f"field {prop_path} lacks an attribute origin")
        return _Step("attr", prop.name,
                     us_feature=id_segments(r3.sources[0])[1],
                     primitive=prop.type.primitive)

    if isinstance(prop, DocReference):
        r5 = by_rule.get("R5")
        if r5 is not None:
            kind = "ref_reverse" if prop.type.array else "ref_forward"
            return _Step(kind, prop.name,
                         us_feature=id_segments(r5.sources[0])[1],
                         many=prop.type.array)
        r7 = by_rule.get("R7")
        if r7 is None:
            raise MigrationError(f"reference {prop_path} lacks a trace origin")
        owner, ref_name = id_segments(r7.sources[0])[:2]
        return _Step("side_ref", prop.name, us_feature=ref_name, us_owner=owner)

    assert isinstance(prop, Embedded)
    r6 = by_rule.get("R6")
    if r6 is None:
        raise MigrationError(f"embedded {prop_path} lacks an aggregate origin")
    sub = _compile_properties(t2, prop.aggregates,
                              path + [(prop.name, True)])
    return _Step("embedded", prop.name,
                 us_feature=id_segments(r6.sources[0])[1],
                 many=prop.is_many, sub=sub)


# --- the executor ----------------------------------------------------------------

# A part appends one ``"<name>":<value>`` JSON fragment, or none, from a
# typed row; a build function turns a typed row, numbered ``n`` in its
# file, into the JSON text of one document.
_Part = Callable[[list, list], None]
_Build = Callable[[list, int], str]
_Encode = Callable[[object], str]

#: JSON text of a value by its type, as ``json.dumps`` writes it; a
#: non-finite float never reaches the encoder (the source rejects it).
_ENCODERS: dict[type, _Encode] = {
    str: encode_basestring,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
}


def _float_text(value: object) -> str:
    """An integer column's value in a DOUBLE property."""
    return float.__repr__(float(value))


class _NullKey(MigrationError):
    """A key property is NULL; the build function adds the file and row."""


def _id_of(file: _TableFile, columns: list[str],
           text: bool = False) -> tuple[Callable[[list], object], _Encode]:
    """Function from a typed row to the identifier its values in
    ``columns`` form, as ``record_id`` does or, with ``text``, always as
    ``#``-joined text (None when one of the values is NULL); and the
    encoder of that identifier."""
    if len(columns) == 1 and not text:
        p = file.columns.index(columns[0])
        return itemgetter(p), _ENCODERS[file.types[p]]
    get = file.getter(columns)
    return (lambda row: (None if None in (v := get(row))
                         else KEY_SEPARATOR.join(map(fmt_id, v))),
            encode_basestring)


def _id_encoder(file: _TableFile) -> _Encode:
    """Encoder of the identifiers (``record_id``) of ``file``'s rows."""
    return _id_of(file, file.table.primary_key().columns)[1]


def _compile_rows(session: SourceSession, type_name: str, table: Table,
                  steps: list[_Step], stats: EntityStats, path: str) -> _Build:
    """Compile ``steps`` into a function over typed rows of ``table``, which
    stores ``type_name``, for the documents at ``path``: column positions,
    value encoders, trace resolution and the indexes to probe are fixed
    here, once per collection. The indexes are only planned; the session
    must build them (``build_indexes``) before the function runs."""
    file = session.file_for(table.name)
    collection = f"collection {path.partition('.')[0]!r}"
    parts: list[_Part] = []
    for step in steps:
        kind = step.kind
        prefix = encode_basestring(step.name) + ":"
        null_key = f"NULL key value for {path}.{step.name}"
        if kind in ("attr", "key_attr"):
            column = session.column_of(type_name, table, step.us_feature)
            p = file.columns.index(column)
            encode = (_float_text if step.primitive == "DOUBLE"
                      and file.types[p] is not float else _ENCODERS[file.types[p]])
            parts.append(_value_part(
                prefix, itemgetter(p), encode, stats,
                f"column {column!r}: {null_key}" if kind == "key_attr" else None))
        elif kind == "key_derived":
            pk = table.primary_key()
            if pk is None:
                raise SourceError(f"table {table.name!r} has no primary key")
            parts.append(_value_part(prefix, *_id_of(file, pk.columns, text=True),
                                     stats, f"columns {pk.columns}: {null_key}"))
        elif kind == "side_ref":
            # the associative row itself stores this side's identifier
            columns = session.side_columns(step.us_owner, step.us_feature)
            parts.append(_value_part(prefix, *_id_of(file, columns), stats))
        elif kind in ("ref_forward", "ref_reverse"):
            link = session.link(type_name, table, step.us_feature)
            parts.append(_ref_part(prefix, kind == "ref_forward",
                                   link.file.ids_on(link.index, plan_for=collection),
                                   file.getter(link.probe),
                                   _id_encoder(link.file), stats))
        else:  # embedded
            link = session.link(type_name, table, step.us_feature)
            link.file.runs_on(link.index, link.order, plan_for=collection)
            build = _compile_rows(session, link.type_name, link.file.table,
                                  step.sub, stats, f"{path}.{step.name}")
            parts.append(_embedded_part(prefix, step.many, link, session,
                                        file.getter(link.probe), build))

    def build(row: list, n: int) -> str:
        out: list[str] = []
        try:
            for part in parts:
                part(row, out)
        except _NullKey as exc:
            raise MigrationError(f"{file.path.name} (row {n + 1}), {exc}") from exc
        return "{" + ",".join(out) + "}"

    return build


def _value_part(prefix: str, value_of: Callable[[list], object],
                encode: _Encode, stats: EntityStats,
                null_key: str | None = None) -> _Part:
    """A value of the row. A NULL value leaves the property out, or with
    ``null_key`` (a key property) fails."""
    def value(row: list, out: list) -> None:
        v = value_of(row)
        if v is not None:
            out.append(prefix + encode(v))
        elif null_key is None:
            stats.nulls_omitted += 1
        else:
            raise _NullKey(null_key)

    return value


def _ref_part(prefix: str, forward: bool, index: dict[tuple, list],
              probe_of: Callable[[list], tuple], encode: _Encode,
              stats: EntityStats) -> _Part:
    """Identifiers from a covering index: the first for a forward
    reference (left out when NULL or dangling), all for a reverse one."""
    def ref(row: list, out: list) -> None:
        probe = probe_of(row)
        ids = None if None in probe else index.get(probe)  # NULL joins nothing
        if not forward:
            out.append(prefix + "[" + ",".join(map(encode, ids or ())) + "]")
        elif ids:
            out.append(prefix + encode(ids[0]))
        elif None in probe:
            stats.nulls_omitted += 1
        else:
            stats.dangling_refs += 1

    return ref


def _embedded_part(prefix: str, many: bool, link: _Link, session: SourceSession,
                   probe_of: Callable[[list], tuple], build: _Build) -> _Part:
    """Child rows read through the run index of the child file, in key
    order; the session counts them as live while they are built."""
    def embedded(row: list, out: list) -> None:
        group = link.group(probe_of(row))
        session._records_born(len(group))
        if many:
            out.append(prefix + "[" + ",".join([build(r, m) for m, r in group]) + "]")
        elif group:
            out.append(prefix + build(group[0][1], group[0][0]))
        session._records_released(len(group))

    return embedded


# --- writing --------------------------------------------------------------------

def write_batch(handle: TextIO, lines: list[str]) -> int:
    """Write encoded documents to an open text handle, one JSON text per
    line; returns how many were written."""
    if lines:
        handle.write("\n".join(lines) + "\n")
    return len(lines)


# --- the pipeline ----------------------------------------------------------------

def migrate(target_schema: DocumentSchema, t2: TraceStore,
            source: SourceSession, target_dir: Path | str,
            trace_refs: dict[str, str] | None = None) -> MigrationReport:
    """Migrate every collection of ``target_schema`` from ``source`` into
    ``target_dir``.

    Every collection is compiled first, which plans the indexes they
    probe; the session then builds each file's planned indexes in one
    pass, before any collection is written. The session carries the
    forward trace it was opened with; ``t2`` is the trace from the pivot
    model to ``target_schema``. The session is closed when migration
    finishes, successfully or not.
    """
    target_dir = Path(target_dir)
    target_dir.mkdir(parents=True, exist_ok=True)

    report = MigrationReport()
    try:
        compiled = []
        for te in target_schema.documents:
            stats = report.per_entity[te.name] = EntityStats()
            started = time.monotonic()
            try:
                ue_name, steps = compile_plan(t2, te)
                table = source.table_for(ue_name)
                build = _compile_rows(source, ue_name, table, steps, stats,
                                      te.name)
            except Exception as exc:
                raise MigrationError(
                    f"while migrating collection {te.name!r}: {exc}") from exc
            stats.elapsed_ms = (time.monotonic() - started) * 1000.0
            compiled.append((te.name, stats, source.file_for(table.name), build))
        started = time.monotonic()
        source.build_indexes()
        report.index_ms = (time.monotonic() - started) * 1000.0
        for name, stats, file, build in compiled:
            started = time.monotonic()
            rows_before = source.records_read
            out_path = target_dir / f"{name}.jsonl"
            try:
                with open(out_path, "w", encoding="utf-8") as out:
                    for n, row in file.typed_rows():
                        source._records_born(1)
                        stats.docs_written += write_batch(out, [build(row, n)])
                        source._records_released(1)
            except Exception as exc:
                out_path.unlink(missing_ok=True)
                raise MigrationError(
                    f"while migrating collection {name!r}: {exc}") from exc
            stats.rows_read = source.records_read - rows_before
            stats.elapsed_ms += (time.monotonic() - started) * 1000.0
        _write_manifest(target_dir, report, trace_refs or {})
        return report
    finally:
        source.close()


def _write_manifest(target_dir: Path, report: MigrationReport,
                    trace_refs: dict[str, str]) -> None:
    manifest = {
        "collections": {name: s.docs_written
                        for name, s in report.per_entity.items()},
        # Files are the only target and NULLs are always omitted.
        "config": {"mode": "FILES", "nullPolicy": "OMIT"},
        "traces": trace_refs,
        "report": report.to_dict(),
    }
    tmp = target_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, ensure_ascii=False) + "\n",
                   encoding="utf-8")
    tmp.replace(target_dir / "manifest.json")
