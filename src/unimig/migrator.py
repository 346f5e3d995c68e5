"""Trace-driven instance migration into JSON-lines collections.

``compile_plan`` compiles a collection in one walk over its properties:
each is looked up backward through the second trace to its pivot feature,
which the source session resolves through the forward trace to columns or
to the indexes to probe. The result is a function from a typed CSV row to
the JSON text of its document, reading columns by position: fields are
attribute values, keys are verbatim or ``#``-joined source key components
(a text component holding ``#`` fails), references are identifiers from a
covering index, and embedded objects are child rows read through the run
index of the child file, compiled recursively. Each property appends a
``"<name>":<value>`` fragment whose name is encoded at compile time and
whose value encoder is picked there from the column's type, so the text is
byte for byte what ``json.dumps`` (compact, ``ensure_ascii=False``) writes.

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
from unimig.source import (
    KEY_SEPARATOR,
    SourceSession,
    _Link,
    _TableFile,
    fmt_id,
    read_entity_all,  # noqa: F401  (the cursor entry point, re-exported)
    separator_message,
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


class _BadKey(MigrationError):
    """A NULL or colliding key value; the build function adds file and row."""


def _id_of(file: _TableFile, columns: list[str],
           text: bool = False) -> tuple[Callable[[list], object], _Encode]:
    """Function from a typed row to the identifier its values in
    ``columns`` form, as ``record_id`` does or, with ``text``, always as
    ``#``-joined text (None when one of the values is NULL), failing on a
    text component that holds ``#``; and the encoder of that identifier."""
    if len(columns) == 1 and not text:
        p = file.columns.index(columns[0])
        return itemgetter(p), _ENCODERS[file.types[p]]
    get = file.getter(columns)
    check = len(columns) > 1 and str in get(file.types)  # a text component

    def id_of(row: list) -> str | None:
        if None in (values := get(row)):
            return None
        joined = KEY_SEPARATOR.join(map(fmt_id, values))
        if check and joined.count(KEY_SEPARATOR) >= len(values):
            raise _BadKey(separator_message(columns, values))
        return joined

    return id_of, encode_basestring


def compile_plan(session: SourceSession, t2: TraceStore, te: DocumentType,
                 stats: EntityStats) -> tuple[_TableFile, _Build]:
    """Compile collection ``te``: the file its documents come from, and a
    function from a typed row of that file to the JSON text of one."""
    origin = next((l for l in t2.lookup(f"doc:{te.name}", "backward")
                   if l.rule in ("R2", "R7")), None)
    if origin is None:
        raise MigrationError(
            f"collection {te.name!r} has no pivot origin in the trace")
    type_name = id_segments(origin.sources[0])[0]
    file = session.file_for(session.table_for(type_name).name)
    return file, _compile_rows(session, t2, type_name, file, te.properties,
                               stats, [(te.name, False)])


def _compile_rows(session: SourceSession, t2: TraceStore, type_name: str,
                  file: _TableFile, properties: list[Property],
                  stats: EntityStats, path: list[tuple[str, bool]]) -> _Build:
    """Compile ``properties`` at document ``path`` into a function over
    typed rows of ``file``, whose table stores ``type_name``: column positions,
    value encoders and the indexes to probe are fixed here, once per
    collection. The indexes are only planned; the session must build them
    (``build_indexes``) before the function runs."""
    table, collection = file.table, f"collection {path[0][0]!r}"
    parts: list[_Part] = []
    for prop in properties:
        here = doc_path(path + [(prop.name, isinstance(prop, Embedded))])
        links = t2.lookup(here, "backward")
        if not links:
            raise MigrationError(f"property {here} has no trace origin")
        # the first source of the first link of each rule
        by_rule = {l.rule: id_segments(l.sources[0]) for l in reversed(links)}
        prefix = encode_basestring(prop.name) + ":"
        label = ".".join([name for name, _ in path] + [prop.name])
        if isinstance(prop, Field) and prop.is_key and "R3" not in by_rule:
            # a derived key: the #-joined components of the primary key
            pk = table.primary_key()
            if pk is None:
                raise SourceError(f"table {table.name!r} has no primary key")
            parts.append(_value_part(
                prefix, *_id_of(file, pk.columns, text=True), stats,
                f"columns {pk.columns}: NULL key value for {label}"))
        elif isinstance(prop, Field):
            if "R3" not in by_rule:
                raise MigrationError(f"field {here} lacks an attribute origin")
            column = session.column_of(type_name, table, by_rule["R3"][1])
            p = file.columns.index(column)
            encode = (_float_text if prop.type.primitive == "DOUBLE"
                      and file.types[p] is not float else _ENCODERS[file.types[p]])
            parts.append(_value_part(
                prefix, itemgetter(p), encode, stats,
                f"column {column!r}: NULL key value for {label}"
                if prop.is_key else None))
        elif isinstance(prop, DocReference) and "R5" in by_rule:
            link = session.link(type_name, table, by_rule["R5"][1])
            ids = link.file.ids_on(link.index, plan_for=collection)
            encode = _id_of(link.file, link.file.table.primary_key().columns)[1]
            parts.append(_ref_part(prefix, not prop.type.array, ids,
                                   file.getter(link.probe), encode, stats))
        elif isinstance(prop, DocReference):
            if "R7" not in by_rule:
                raise MigrationError(f"reference {here} lacks a trace origin")
            # the associative row itself stores this side's identifier
            columns = session.side_columns(*by_rule["R7"][:2])
            parts.append(_value_part(prefix, *_id_of(file, columns), stats))
        else:
            if "R6" not in by_rule:
                raise MigrationError(f"embedded {here} lacks an aggregate origin")
            link = session.link(type_name, table, by_rule["R6"][1])
            link.file.runs_on(link.index, link.order, plan_for=collection)
            build = _compile_rows(session, t2, link.type_name, link.file,
                                  prop.aggregates, stats, path + [(prop.name, True)])
            parts.append(_embedded_part(prefix, prop.is_many, link, session,
                                        file.getter(link.probe), build))

    def build(row: list, n: int) -> str:
        out: list[str] = []
        try:
            for part in parts:
                part(row, out)
        except _BadKey as exc:
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
            raise _BadKey(null_key)

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
                file, build = compile_plan(source, t2, te, stats)
            except Exception as exc:
                raise MigrationError(
                    f"while migrating collection {te.name!r}: {exc}") from exc
            stats.elapsed_ms = (time.monotonic() - started) * 1000.0
            compiled.append((te.name, stats, file, build))
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
