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
probe; each file's planned indexes are then built in ``k`` row slices,
before any collection is written, so a bad cell or NULL key value an index
relies on fails before any output. A NULL value leaves its property out and is
counted (``nullsOmitted``), as is a forward reference whose target row is
missing (``danglingRefs``); a NULL key fails.

Both phases cut each file they read once into ``k`` contiguous row slices,
one per CPU this process may run on (``_TableFile.spans``), and run slice
``i`` in process ``i``, kept on the ``i``-th CPU while the phase runs: the
parent runs slice 0 and forks a worker per other slice (horizontal
partitioning of a scan: DeWitt & Gray, "Parallel Database Systems", CACM
1992). In the index pass the parent fills the indexes of every indexed file
from its slice, each worker fills partial indexes from its own and sends
them back through an unnamed part file, and the parent joins them on in
slice order (``_build_indexes``). Once the indexes are built, a document
depends only on its own row and on read-only indexes, so the writers are
forked next: each process writes its slice of every collection in schema
order, one document per line (``write_batch``): the parent straight into
``<collection>.jsonl``, a worker into a part file that the parent appends,
in slice order, once every worker is done. With one CPU nothing is forked.
A failure ends as the serial run would: the error of the first failing file
or collection and, within it, of the first failing row; an index failure
leaves nothing on disk, a write failure only the collections before it. The
manifest's counters are sums over slices; its total ``elapsedMs`` is the
wall time of the whole ``migrate``, and a collection's ``elapsedMs`` is its
compile time plus the write times of its slices.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, TextIO

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
    _Runs,
    _Span,
    _TableFile,
    fmt_id,
    read_entity_all,  # noqa: F401  (re-exported: the benchmark wraps it here)
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
    total_elapsed_ms: float = 0.0  # wall time of the whole migrate

    @property
    def total_rows(self) -> int:
        return sum(s.rows_read for s in self.per_entity.values())

    @property
    def total_docs(self) -> int:
        return sum(s.docs_written for s in self.per_entity.values())

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
    collection. The indexes are only planned; they must be built
    (``build_indexes``, or ``migrate``'s index pass) before the function
    runs."""
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
            runs = link.file.runs_on(link.index, link.order, plan_for=collection)
            build = _compile_rows(session, t2, link.type_name, link.file,
                                  prop.aggregates, stats, path + [(prop.name, True)])
            parts.append(_embedded_part(prefix, prop.is_many, link, runs, session,
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


def _embedded_part(prefix: str, many: bool, link: _Link, runs: _Runs,
                   session: SourceSession, probe_of: Callable[[list], tuple],
                   build: _Build) -> _Part:
    """Child rows read through ``runs``, the run index of the child file,
    in key order; the session counts them as live while they are built."""
    def embedded(row: list, out: list) -> None:
        group = link.group(probe_of(row), runs)
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


@dataclass
class _Collection:
    """A compiled collection: the file its documents come from, cut into
    one row slice per process, and the function that builds each."""

    name: str
    stats: EntityStats
    file: _TableFile
    build: _Build
    spans: list[_Span]


def _write_slice(source: SourceSession, c: _Collection, i: int,
                 out: TextIO) -> None:
    """Write the documents of row slice ``i`` of ``c`` to ``out``, adding
    to its stats; the parent and every worker run this."""
    started = time.monotonic()
    rows_before = source.records_read
    try:
        for n, row in c.file.typed_rows(c.spans[i]):
            source._records_born(1)
            c.stats.docs_written += write_batch(out, [c.build(row, n)])
            source._records_released(1)
    except Exception as exc:
        raise MigrationError(
            f"while migrating collection {c.name!r}: {exc}") from exc
    c.stats.rows_read += source.records_read - rows_before
    c.stats.elapsed_ms += (time.monotonic() - started) * 1000.0


def _cpus() -> int:
    """The number of row slices, and so of processes: how many CPUs this
    process may run on, or 1 where that is unknown or where other threads
    run, since a process with threads cannot be forked safely."""
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


#: Row slice ``i`` of one step of a phase (a file to index, or a collection
#: to write), run in a worker: it writes its output to the part file by its
#: descriptor and returns what the worker reports of it.
_Step = Callable[[int, int], dict]


@dataclass
class _Worker:
    """A forked process that runs row slice ``i`` of every step of a phase,
    in order, into an unnamed part file and reports each step as one JSON
    line through a pipe."""

    i: int
    part: BinaryIO
    pid: int = 0  # 0 once reaped
    pipe: int = -1  # the read end, -1 once closed
    ends: list[int] = field(default_factory=list)  # part offset after each

    def output(self, j: int) -> tuple[int, int]:
        """The part file's byte range holding step ``j``'s output."""
        return self.ends[j - 1] if j else 0, self.ends[j]

    def close(self) -> None:
        """Kill the worker if it still runs (an error path), reap it, and
        close the pipe and the part file."""
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        if self.pipe >= 0:
            os.close(self.pipe)
            self.pipe = -1
        self.part.close()


def _fork(worker: _Worker, steps: list[_Step], cpu: int) -> None:
    """Start ``worker`` on CPU ``cpu``; in the child, run it and end the
    process there, never returning into the caller's stack."""
    worker.pipe, report = os.pipe()
    try:
        worker.pid = os.fork()
    except OSError:
        os.close(report)
        raise
    if worker.pid == 0:
        code = 1
        try:
            os.close(worker.pipe)
            os.sched_setaffinity(0, {cpu})
            _work(worker, steps, report)
            code = 0
        finally:
            os._exit(code)
    os.close(report)


def _work(worker: _Worker, steps: list[_Step], report: int) -> None:
    """A worker's run: after each step, one JSON line with what the step
    reports and the part file's offset, or with the error that stopped the
    worker."""
    part = worker.part.fileno()
    with open(report, "w", encoding="utf-8", buffering=1) as pipe:
        for step in steps:
            try:
                message = step(worker.i, part)
            except MigrationError as exc:
                pipe.write(json.dumps({"error": str(exc)}) + "\n")
                return
            message["end"] = os.lseek(part, 0, os.SEEK_CUR)
            pipe.write(json.dumps(message) + "\n")


def _collect(worker: _Worker, labels: list[str], verb: str,
             error: type[MigrationError]
             ) -> tuple[list[dict], tuple[int, int, MigrationError] | None]:
    """Wait for ``worker`` and record the part file's offset after each
    step it completed. Returns what it reported of those steps, and its
    failure as (step index, slice, error) or None; ``labels`` name the steps
    in error messages, ``verb`` what a worker does to its slice."""
    with open(worker.pipe, encoding="utf-8") as pipe:
        worker.pipe = -1
        messages = [json.loads(line) for line in pipe]
    _, status = os.waitpid(worker.pid, 0)
    worker.pid = 0
    for j, message in enumerate(messages):
        if "error" in message:
            return messages[:j], (j, worker.i, error(message["error"]))
        worker.ends.append(message["end"])
    if len(messages) < len(labels):
        j = len(messages)
        return messages, (j, worker.i, error(
            f"{labels[j]}: the worker {verb} row slice {worker.i} ended "
            "without reporting it (exit status "
            f"{os.waitstatus_to_exitcode(status)})"))
    return messages, None


@contextmanager
def _in_slices(k: int, target_dir: Path, steps: list[_Step],
               first: Callable[[int], None], labels: list[str], verb: str,
               error: type[MigrationError]
               ) -> Iterator[tuple[list[_Worker], list[list[dict]],
                                   tuple[int, MigrationError] | None]]:
    """Run slice ``i`` of every step in process ``i``: this process runs
    slice 0 of each step in order (``first``) until one fails, while forked
    workers, one per slice but the first (none when ``k`` is 1), run
    ``steps``. Yields, once all are done, the workers, what each reported
    and the failure the serial run would raise: as (step index, error) of
    the first failing step and, within it, of the lowest failing slice, or
    None. While they run, process ``i`` is kept on the ``i``-th CPU this
    process may run on; every worker is reaped and this process's CPUs are
    restored on exit, whatever happens."""
    workers: list[_Worker] = []
    # Left to the scheduler, both processes of a short phase were seen to
    # share one CPU throughout while the other, idle before, stayed idle.
    cpus = sorted(os.sched_getaffinity(0)) if k > 1 else []
    try:
        for i in range(1, k):
            workers.append(_Worker(i, tempfile.TemporaryFile(dir=target_dir)))
            _fork(workers[-1], steps, cpus[i % len(cpus)])
        if cpus:
            os.sched_setaffinity(0, cpus[:1])
        failures = []
        for j in range(len(steps)):
            try:
                first(j)
            except MigrationError as exc:
                failures.append((j, 0, exc))
                break
        reports = []
        for worker in workers:
            messages, failure = _collect(worker, labels, verb, error)
            reports.append(messages)
            failures += [failure] if failure else []
        failure = min(failures, key=itemgetter(0, 1), default=None)
        yield workers, reports, failure and (failure[0], failure[2])
    finally:
        for worker in workers:
            worker.close()
        if cpus:
            os.sched_setaffinity(0, cpus)


def _index_step(file: _TableFile, spans: list[_Span], i: int,
                part: int) -> dict:
    file.index_slice(spans[i])
    with open(part, "wb", closefd=False) as out:
        out.write(file.encode_slice())
    return {}


def _build_indexes(files: list[_TableFile], spans: dict[_TableFile, list[_Span]],
                   k: int, target_dir: Path) -> None:
    """Fill every planned index of ``files`` in their ``k`` row slices:
    this process indexes slice 0 of each file straight into the indexes,
    forked workers the others and send their partial indexes back through
    their part files, and once all are done each file's are joined on in
    slice order. A failure raises the serial run's error before anything is
    written."""
    with _in_slices(
            k, target_dir,
            [partial(_index_step, file, spans[file]) for file in files],
            lambda j: files[j].index_slice(spans[files[j]][0]),
            [f"while indexing for {file.planned_for}" for file in files],
            "indexing", SourceError) as (workers, _, failure):
        if failure is not None:
            raise failure[1]
        for j, file in enumerate(files):
            later = []
            for worker in workers:
                start, end = worker.output(j)
                worker.part.seek(start)
                later.append(worker.part.read(end - start))
            file.merge_indexes(later)


def _write_step(source: SourceSession, c: _Collection, i: int,
                part: int) -> dict:
    vars(c.stats).update(vars(EntityStats()))  # this slice's counts only
    with open(part, "w", encoding="utf-8", closefd=False) as out:
        _write_slice(source, c, i, out)
    return {"stats": asdict(c.stats), "peak": source.peak_live_records}


def _first_slice(target_dir: Path, source: SourceSession,
                 c: _Collection) -> None:
    with open(target_dir / f"{c.name}.jsonl", "w", encoding="utf-8") as out:
        _write_slice(source, c, 0, out)


def _join(target_dir: Path, collections: list[_Collection],
          workers: list[_Worker]) -> None:
    """Append each collection's slices from the workers' part files, in
    slice order, with ``sendfile`` (which takes no ``O_APPEND`` target)."""
    for j, c in enumerate(collections):
        ranges = [(w.part.fileno(), *w.output(j)) for w in workers]
        if all(start == end for _, start, end in ranges):
            continue
        out = os.open(target_dir / f"{c.name}.jsonl", os.O_WRONLY)
        try:
            os.lseek(out, 0, os.SEEK_END)
            for part, start, end in ranges:
                while start < end:
                    sent = os.sendfile(out, part, start, end - start)
                    if not sent:
                        raise MigrationError(
                            f"a part file of collection {c.name!r} is short")
                    start += sent
        finally:
            os.close(out)


def _write_collections(source: SourceSession, collections: list[_Collection],
                       k: int, target_dir: Path) -> None:
    """Write every collection in its ``k`` row slices, slice ``i`` by
    process ``i`` (``_in_slices``): this process writes slice 0 straight
    into ``<collection>.jsonl``, forked workers write the others, and once
    all are done this process appends their part files and adds up what
    they counted. A failure raises the serial run's error, and only the
    collections before the failing one stay on disk."""
    with _in_slices(
            k, target_dir,
            [partial(_write_step, source, c) for c in collections],
            lambda j: _first_slice(target_dir, source, collections[j]),
            [f"while migrating collection {c.name!r}" for c in collections],
            "writing", MigrationError) as (workers, reports, failure):
        for messages in reports:
            for c, message in zip(collections, messages):
                for key, value in message["stats"].items():
                    setattr(c.stats, key, getattr(c.stats, key) + value)
                # each record a worker reads is a row of a slice it writes
                # or of a child group embedded there, so its rows_read
                # count them all
                source.records_read += message["stats"]["rows_read"]
                source.peak_live_records = max(source.peak_live_records,
                                               message["peak"])
        done = collections if failure is None else collections[:failure[0]]
        for c in collections[len(done):]:
            (target_dir / f"{c.name}.jsonl").unlink(missing_ok=True)
        _join(target_dir, done, workers)
        if failure is not None:
            raise failure[1]


# --- the pipeline ----------------------------------------------------------------

def migrate(target_schema: DocumentSchema, t2: TraceStore,
            source: SourceSession, target_dir: Path | str,
            trace_refs: dict[str, str] | None = None) -> MigrationReport:
    """Migrate every collection of ``target_schema`` from ``source`` into
    ``target_dir``.

    Every collection is compiled first, which plans the indexes they
    probe; each file's planned indexes are then built in one row slice per
    available CPU, one process per slice (``_build_indexes``), before any
    collection is written. Each collection's rows are then written in the
    same slices (``_write_collections``). The session carries the forward trace it was
    opened with; ``t2`` is the trace from the pivot model to
    ``target_schema``. The session is closed when migration finishes,
    successfully or not.
    """
    started = time.monotonic()
    target_dir = Path(target_dir)
    target_dir.mkdir(parents=True, exist_ok=True)

    report = MigrationReport()
    try:
        plans, k = [], _cpus()
        for te in target_schema.documents:
            stats = report.per_entity[te.name] = EntityStats()
            compiled = time.monotonic()
            try:
                file, build = compile_plan(source, t2, te, stats)
            except Exception as exc:
                raise MigrationError(
                    f"while migrating collection {te.name!r}: {exc}") from exc
            stats.elapsed_ms = (time.monotonic() - compiled) * 1000.0
            plans.append((te.name, stats, file, build))
        # each file is cut once; the index pass and the writes share the cuts
        indexed_files = source.indexed_files()
        spans: dict[_TableFile, list[_Span]] = {}
        for file in indexed_files + [plan[2] for plan in plans]:
            if file not in spans:
                spans[file] = file.spans(k)
        indexed = time.monotonic()
        _build_indexes(indexed_files, spans, k, target_dir)
        report.index_ms = (time.monotonic() - indexed) * 1000.0
        collections = [_Collection(*plan, spans[plan[2]]) for plan in plans]
        source.close_handles()  # no two processes share a file offset
        _write_collections(source, collections, k, target_dir)
        report.total_elapsed_ms = (time.monotonic() - started) * 1000.0
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
