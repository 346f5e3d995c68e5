"""Trace-driven instance migration into JSON-lines collections.

For each collection of the target schema, the pivot-side origin is looked
up backward through the second trace, a cursor is opened over the source,
and every record is transformed into a document value tree: fields from
attribute values, keys verbatim or derived by joining the source key
components with ``#``, references as stored identifiers, embedded objects
by recursing over aggregate cursors. NULL values leave their property out
of the document. Each document is written as soon as it is built, through
one open ``<collection>.jsonl`` per collection, plus a ``manifest.json``; a
failed collection's partial file is removed.

Property resolution is compiled once per collection into a plan, so the
per-record path does no trace lookups.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

from unimig.document.model import (
    DocReference,
    DocumentSchema,
    DocumentType,
    Embedded,
    Field,
    Property,
)
from unimig.errors import MigrationError
from unimig.source import (
    KEY_SEPARATOR,
    SourceCursor,
    SourceSession,
    fmt_id,
    read_entity_all,
    record_id,
)
from unimig.trace import TraceStore, doc_path, id_segments


@dataclass
class EntityStats:
    rows_read: int = 0
    docs_written: int = 0
    elapsed_ms: float = 0.0


@dataclass
class MigrationReport:
    per_entity: dict[str, EntityStats] = field(default_factory=dict)

    @property
    def total_rows(self) -> int:
        return sum(s.rows_read for s in self.per_entity.values())

    @property
    def total_docs(self) -> int:
        return sum(s.docs_written for s in self.per_entity.values())

    @property
    def total_elapsed_ms(self) -> float:
        return sum(s.elapsed_ms for s in self.per_entity.values())

    @property
    def throughput_rows_per_s(self) -> float:
        seconds = self.total_elapsed_ms / 1000.0
        return self.total_rows / seconds if seconds > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "perEntity": {
                name: {"rowsRead": s.rows_read, "docsWritten": s.docs_written,
                       "elapsedMs": round(s.elapsed_ms, 3)}
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


def _derived_key(cursor: SourceCursor) -> str:
    return KEY_SEPARATOR.join(fmt_id(v) for v in cursor.id_values())


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


def transform_instance(t2: TraceStore, cursor: SourceCursor,
                       te: DocumentType) -> dict:
    """One source record into a document value tree for collection ``te``."""
    _, steps = compile_plan(t2, te)
    return _execute(steps, cursor, te.name)


def _execute(steps: list[_Step], cursor: SourceCursor, collection: str) -> dict:
    doc: dict[str, object] = {}
    for step in steps:
        kind = step.kind
        if kind == "attr":
            value = cursor.attr_value(step.us_feature)
            if value is None:
                continue
            if step.primitive == "DOUBLE" and not isinstance(value, float):
                value = float(value)
            doc[step.name] = value
        elif kind == "key_attr":
            value = cursor.attr_value(step.us_feature)
            if value is None:
                raise MigrationError(
                    f"NULL key value for {collection}.{step.name}")
            doc[step.name] = value
        elif kind == "key_derived":
            doc[step.name] = _derived_key(cursor)
        elif kind == "side_ref":
            # The associative row itself stores this side's identifier.
            columns = cursor.session.side_columns(step.us_owner, step.us_feature)
            values = tuple(cursor.raw_value(c) for c in columns)
            if None in values:
                continue
            doc[step.name] = record_id(values)
        elif kind == "ref_forward":
            ids = cursor.related_ids(step.us_feature)
            if ids:
                doc[step.name] = ids[0]
        elif kind == "ref_reverse":
            doc[step.name] = cursor.related_ids(step.us_feature)
        elif kind == "embedded":
            children = cursor.related_by_name(step.us_feature)
            try:
                if step.many:
                    items = []
                    while children.has_data():
                        items.append(_execute(step.sub, children, collection))
                        children.advance()
                    doc[step.name] = items
                elif children.has_data():
                    doc[step.name] = _execute(step.sub, children, collection)
            finally:
                children.close()
        else:
            raise MigrationError(f"unknown plan step {kind!r}")
    return doc


# --- writing --------------------------------------------------------------------

def write_batch(handle: TextIO, docs: list[dict]) -> int:
    """Write documents to an open text handle, one compact JSON line each;
    returns how many were written."""
    for doc in docs:
        handle.write(json.dumps(doc, ensure_ascii=False, separators=(",", ":")))
        handle.write("\n")
    return len(docs)


# --- the pipeline ----------------------------------------------------------------

def migrate(target_schema: DocumentSchema, t2: TraceStore,
            source: SourceSession, target_dir: Path | str,
            trace_refs: dict[str, str] | None = None) -> MigrationReport:
    """Migrate every collection of ``target_schema`` from ``source`` into
    ``target_dir``.

    The session carries the forward trace it was opened with; ``t2`` is the
    trace from the pivot model to ``target_schema``. The session is closed
    when migration finishes, successfully or not.
    """
    target_dir = Path(target_dir)
    target_dir.mkdir(parents=True, exist_ok=True)

    report = MigrationReport()
    try:
        for te in target_schema.documents:
            stats = EntityStats()
            report.per_entity[te.name] = stats
            started = time.monotonic()
            rows_before = source.records_read
            ue_name, steps = compile_plan(t2, te)
            out_path = target_dir / f"{te.name}.jsonl"
            cursor = read_entity_all(source, ue_name)
            try:
                with open(out_path, "w", encoding="utf-8") as out:
                    while cursor.has_data():
                        stats.docs_written += write_batch(
                            out, [_execute(steps, cursor, te.name)])
                        cursor.advance()
            except Exception as exc:
                out_path.unlink(missing_ok=True)
                raise MigrationError(
                    f"while migrating collection {te.name!r}: {exc}") from exc
            finally:
                cursor.close()
            stats.rows_read = source.records_read - rows_before
            stats.elapsed_ms = (time.monotonic() - started) * 1000.0
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
