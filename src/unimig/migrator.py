"""Trace-driven instance migration into JSON-lines collections.

``compile_plan`` compiles a collection in one walk over its properties:
each is looked up backward through the second trace to its pivot feature,
which the source session resolves through the forward trace to columns or
to the indexes to probe. Each property compiles to a step: its
``"<name>":`` prefix, encoded at compile time, the value's encoder, picked
there from the column's type, so the text is byte for byte what
``json.dumps`` (compact, ``ensure_ascii=False``) writes, and a column
function that gives the values of a whole block of rows from its columns,
reading them by position. Fields are attribute values, keys are verbatim
or ``#``-joined source key components (a text component holding ``#``
fails), references are identifiers from a covering index, and embedded
objects the JSON text of the child group, copied from a text index on the
child file whose groups are built with the child properties' steps,
compiled recursively (``_group_text``, ``_embedded``).

Documents are built a block of rows at a time, a column at a time, as the
reader hands the blocks on (``_Builder.documents``; vectorised execution
as in Boncz, Zukowski, Nes, "MonetDB/X100", CIDR 2005): each step's column
function runs in C over the block (a field maps its encoder over its
column, a derived key joins its components, a reference or embedded text
looks the probe column up in its index), each value becomes a fragment
that leads with a comma and its prefix, or ``""`` when absent, and each
document is the join of its row's fragments. What the steps count is kept
per row, so that the groups a text index builds from a block of child
documents each get their own counters. The column functions are the only
builder: when one fails on a block (a NULL key value, a ``#`` in a key
component, an embedded group whose build failed, a one-object aggregate
over several children), the block's halves are built in turn through the
same functions, down to single rows (``_Builder.runs``), so that the first
failing row fails with its file, its row and its own message.

Every collection is compiled before any runs, which plans the indexes they
probe, each at its level (``texts_on``); each file's planned indexes are
then built level by level in ``k`` row slices (``_index_levels``), before
any collection is written, so a bad cell or NULL key value an index relies
on fails before any output. Levels make the deepest embedded children
first: on the music schema, song's id index (level 0) before
playlist_song's texts, which read it (level 1), and those before
playlist's (level 2); a schema whose collections embed nothing, such as
Northwind, has one level. Each child row is so typed and built once, in
the pass, and its group's text is spilled with the counters building it
added; a parent's document copies the text with one ``pread`` and adds
the counters to its collection's. A NULL value leaves its property out and
is counted (``nullsOmitted``), as is a forward reference whose target row
is missing (``danglingRefs``); a NULL key fails, as does a one-object
aggregate over more than one child row. A failure in building a group is
raised when a document embeds it, as the error of that document's
collection, so child rows that no parent embeds fail nothing and count
nothing. A child file not clustered by the key is clustered by it in
memory and its group texts built again by the same pass, at the same level
and in as many slices (``_TableFile._cluster``), so every embedded object
is copied from a text index.

Both phases cut each file they read once into ``k`` contiguous row slices,
one per CPU this process may run on (``_TableFile.spans``; a child file is
cut where its groups end, so a slice reads no row outside it), read a slice
through the source's one reader, a block at a time (``_TableFile.blocks``),
and run slice ``i`` in process ``i``, kept on the ``i``-th CPU while the
phase runs: the parent runs slice 0 and forks a worker per other slice
(horizontal partitioning of a scan: DeWitt & Gray, "Parallel Database
Systems", CACM 1992). One step function per phase runs every slice: a
worker's into its unnamed part file, the parent's slice 0 in place. Each
level of the index pass is such a phase (``_index_step``): the parent fills
the indexes of every file of the level from its slice, and spills its
texts, each worker fills partial indexes, writes its texts and the indexes
to its part file, and the parent appends the texts to the spill and joins
the indexes on in slice order (``_build_indexes``). Once the indexes are
built, a document depends only on its own row and on read-only indexes and
spilled texts, so the writers are forked next: each process writes its
slice of every collection in schema order, one document per line and one
``write_batch`` call per block (``_write_step``): the parent straight into
``<collection>.jsonl``, a worker into its part file, which the parent
appends, in slice order, once every worker is done. With one CPU nothing is
forked. A failure ends as the serial run would: the error of the first
failing level, file or collection and, within it, of the first failing row;
an index failure leaves nothing on disk, a write failure only the
collections before it. The manifest's counters are sums over slices; the
session's ``records_read`` adds their rows once the run ends (a failed
run's partial sums), and its ``peak_live_records`` is the most records any
process held at once. The manifest's total ``elapsedMs`` is the wall time
of the whole ``migrate``, and a collection's ``elapsedMs`` is its compile
time plus the write times of its slices.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import threading
import time
from contextlib import contextmanager
from functools import partial
from itertools import islice, repeat
from json.encoder import encode_basestring
from operator import is_, is_not, itemgetter
from pathlib import Path
from typing import (BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence,
                    TextIO)

from unimig.document.model import (
    DocReference,
    DocumentSchema,
    DocumentType,
    Embedded,
    Field,
    Property,
)
from unimig.errors import MigrationError, SourceError
from unimig.record import field, record
from unimig.source import (
    KEY_SEPARATOR,
    SourceSession,
    _Block,
    _Counted,
    _GroupDocs,
    _Runs,
    _keys,
    _TableFile,
    _Texts,
    _add,
    _halves,
    fmt_id,
    read_entity_all,  # noqa: F401  (re-exported: the benchmark wraps it here)
    separator_message,
)
from unimig.trace import TraceStore, doc_path, id_segments


@record
class EntityStats:
    rows_read: int = 0
    docs_written: int = 0
    elapsed_ms: float = 0.0
    nulls_omitted: int = 0  # properties left out because their value is NULL
    dangling_refs: int = 0  # forward references whose target row is missing


@record
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

# A step: a property's encoded ``,"<name>":`` prefix, encoder, column
# function, and what an absent value means: counted in ``nullsOmitted``
# (``_COUNT``), left out (``_SKIP``) or a key's failure message. A column
# function gives the values of a block of rows (None when absent) from its
# columns and adds what it counts to a ``_Counted``; it raises ``_BadKey``
# when a row's key or aggregate fails.
_Encode = Callable[[object], str]
_Column = Callable[[list[Sequence], _Counted], Sequence]
_Prop = tuple[str, _Encode, _Column, bool | str]
_COUNT, _SKIP = True, False

#: JSON text of a value by its type, as ``json.dumps`` writes it; a
#: non-finite float never reaches the encoder (the source rejects it).
_ENCODERS: dict[type, _Encode] = {
    str: encode_basestring,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
}
#: A value as an identifier component by its type, as ``fmt_id`` writes
#: it; None for text, which is its own.
_ID_TEXT: dict[type, _Encode | None] = {
    str: None,
    int: int.__repr__,
    float: float.__repr__,
    bool: _ENCODERS[bool],
}
_FIRST = itemgetter(0)
_TAIL = itemgetter(slice(1, None))  # a document's fragments but the first comma


def _float_text(value: object) -> str:
    """An integer column's value in a DOUBLE property."""
    return float.__repr__(float(value))


class _BadKey(MigrationError):
    """A NULL or colliding key value, or several children of a one-object
    aggregate; ``_Builder.runs`` adds file and row."""


def _column(p: int) -> _Column:
    """Column function of the values of column ``p``."""
    return lambda columns, counted: columns[p]


def _present(lead: str, encode: _Encode, values: Sequence) -> Iterator[str]:
    """``lead`` and the encoded value for each value, ``""`` for each None,
    in C: a None is encoded as some other value, then dropped."""
    if (some := next(filter(partial(is_not, None), values), None)) is None:
        return repeat("", len(values))
    texts = map(lead.__add__, map(encode, map({None: some}.get, values, values)))
    return map(tuple.__getitem__, zip(texts, repeat("")),
               map(is_, values, repeat(None)))


def _id_of(file: _TableFile, columns: list[str], text: bool = False
           ) -> tuple[_Encode, _Column]:
    """The encoder and column function of the identifier a row's values in
    ``columns`` form, as ``record_id`` does or, with ``text``, always as
    ``#``-joined text (None when one of the values is NULL), failing on a
    text component that holds ``#``."""
    if len(columns) == 1 and not text:
        p = file.columns.index(columns[0])
        return _ENCODERS[file.types[p]], _column(p)
    positions = file.positions(columns)
    texts = [p for p in positions if file.types[p] is str] if len(columns) > 1 else []
    formats = [_ID_TEXT[file.types[p]] for p in positions]

    def joined(values: tuple) -> str | None:
        if None in values:
            return None
        joined = KEY_SEPARATOR.join(map(fmt_id, values))
        if texts and joined.count(KEY_SEPARATOR) >= len(values):
            raise _BadKey(separator_message(columns, values))
        return joined

    def ids_of(block: list[Sequence], counted: _Counted) -> list[str | None]:
        parts = [block[p] for p in positions]
        if (any(None in part for part in parts)
                or any(KEY_SEPARATOR in "".join(block[p]) for p in texts)):
            return list(map(joined, zip(*parts)))
        return list(map(KEY_SEPARATOR.join, zip(*[
            part if f is None else map(f, part) for part, f in zip(parts, formats)])))

    return encode_basestring, ids_of


class _Builder(NamedTuple):
    """A compiled document: ``block`` builds the JSON texts of a block's
    rows from its columns, one at a time as they are taken, and gives what
    building each row counted; it raises ``_BadKey`` or the error of an
    embedded group when a row fails, without naming the row. ``name`` is
    the name of the rows' file."""

    block: Callable[[_Block], tuple[Iterator[str], _Counted]]
    name: str

    def runs(self, block: _Block) -> _Runs:
        """``block`` over a block's rows in runs (``_halves``), a
        ``_BadKey`` of a row that fails alone named by file and row."""
        def build(first: int, end: int) -> tuple[Iterator[str], _Counted]:
            return self.block(block.part(first, end))

        for first, end, built in _halves(len(block.numbers), build, MigrationError):
            if isinstance(built, _BadKey):
                built = MigrationError(f"{self.name} (row {block.numbers[first] + 1}), "
                                       f"{built}")
            yield first, end, built

    def documents(self, block: _Block, stats: EntityStats) -> Iterator[str]:
        """The JSON texts of a block's rows, built a column at a time,
        adding what building them counts to ``stats``. When building the
        block fails, it fails with the error of its first failing row
        (``runs``)."""
        try:
            docs, counted = self.block(block)
        except MigrationError as exc:
            raise next(built for *_, built in self.runs(block)
                       if isinstance(built, MigrationError)) from exc
        _add(vars(stats), counted)
        return docs


def compile_plan(session: SourceSession, t2: TraceStore, te: DocumentType
                 ) -> tuple[_TableFile, _Builder]:
    """Compile collection ``te``: the file its documents come from, and
    the ``_Builder`` that builds them from blocks of its typed rows."""
    origin = next((l for l in t2.lookup(f"doc:{te.name}", "backward")
                   if l.rule in ("R2", "R7")), None)
    if origin is None:
        raise MigrationError(
            f"collection {te.name!r} has no pivot origin in the trace")
    type_name = id_segments(origin.sources[0])[0]
    file = session.file_for(session.table_for(type_name).name)
    return file, _compile_rows(session, t2, type_name, file, te.properties,
                               [(te.name, False)])[0]


def _compile_rows(session: SourceSession, t2: TraceStore, type_name: str,
                  file: _TableFile, properties: list[Property],
                  path: list[tuple[str, bool]]) -> tuple[_Builder, int]:
    """Compile ``properties`` at document ``path`` into a function over
    blocks of typed rows of ``file``, whose table stores ``type_name``:
    column positions, value encoders and the indexes to probe are fixed
    here, once per collection. The indexes are only planned; they must be
    built (``_index_levels``) before the function runs. Also returns the
    level of an index that the function may build (``texts_on``): 0 if it
    probes no index, else one more than the highest level among those it
    probes (an id index is at level 0)."""
    table, collection = file.table, f"collection {path[0][0]!r}"
    steps: list[_Prop] = []
    level = 0
    for prop in properties:
        here = doc_path(path + [(prop.name, isinstance(prop, Embedded))])
        links = t2.lookup(here, "backward")
        if not links:
            raise MigrationError(f"property {here} has no trace origin")
        # the first source of the first link of each rule
        by_rule = {l.rule: id_segments(l.sources[0]) for l in reversed(links)}
        prefix = "," + encode_basestring(prop.name) + ":"
        label = ".".join([name for name, _ in path] + [prop.name])
        if isinstance(prop, Field) and prop.is_key and "R3" not in by_rule:
            # a derived key: the #-joined components of the primary key
            pk = table.primary_key()
            if pk is None:
                raise SourceError(f"table {table.name!r} has no primary key")
            steps.append((prefix, *_id_of(file, pk.columns, text=True),
                          f"columns {pk.columns}: NULL key value for {label}"))
        elif isinstance(prop, Field):
            if "R3" not in by_rule:
                raise MigrationError(f"field {here} lacks an attribute origin")
            column = session.column_of(type_name, table, by_rule["R3"][1])
            p = file.columns.index(column)
            encode = (_float_text if prop.type.primitive == "DOUBLE"
                      and file.types[p] is not float else _ENCODERS[file.types[p]])
            steps.append((prefix, encode, _column(p),
                          f"column {column!r}: NULL key value for {label}"
                          if prop.is_key else _COUNT))
        elif isinstance(prop, DocReference) and "R5" in by_rule:
            link = session.link(type_name, table, by_rule["R5"][1])
            ids = link.file.ids_on(link.index, plan_for=collection)
            steps.append((prefix, *_refs(not prop.type.array, link.file, ids,
                                         file, link.probe), _SKIP))
            level = max(level, 1)
        elif isinstance(prop, DocReference):
            if "R7" not in by_rule:
                raise MigrationError(f"reference {here} lacks a trace origin")
            # the associative row itself stores this side's identifier
            columns = session.side_columns(*by_rule["R7"][:2])
            steps.append((prefix, *_id_of(file, columns), _COUNT))
        else:
            if "R6" not in by_rule:
                raise MigrationError(f"embedded {here} lacks an aggregate origin")
            link = session.link(type_name, table, by_rule["R6"][1])
            build, child_level = _compile_rows(
                session, t2, link.type_name, link.file, prop.aggregates,
                path + [(prop.name, True)])
            texts = link.file.texts_on(
                link.index, link.order, _group_text(prop.is_many, build, session),
                child_level, session.spill(), collection)
            steps.append((prefix, *_embedded(prop.is_many, texts, file,
                                             link.probe, label), _SKIP))
            level = max(level, child_level + 1)

    # each fragment leads with a comma, but the first one with its
    # document's brace when the first property is in every row; the
    # fragments are made as the documents are taken, so that a block holds
    # its values and one document at a time, not every text three times
    def block(rows: _Block) -> tuple[Iterator[str], _Counted]:
        columns, counted, fragments = rows.columns, [], []
        opened = False
        for lead, encode, column_of, absent in steps:
            values = column_of(columns, counted)
            if None not in values:
                if not fragments:
                    lead, opened = "{" + lead[1:], True
                fragments.append(map(lead.__add__, map(encode, values)))
                continue
            if absent is _COUNT:
                counted.append(("nulls_omitted",
                                list(map(is_, values, repeat(None)))))
            elif absent is not _SKIP:
                raise _BadKey(absent)
            fragments.append(_present(lead, encode, values))
        if opened:
            return map("".join, zip(*fragments, repeat("}"))), counted
        if not fragments:
            return repeat("{}", len(rows.numbers)), counted
        return map("{%s}".__mod__, map(_TAIL, map("".join, zip(*fragments)))), counted

    return _Builder(block, file.path.name), level


def _refs(forward: bool, target: _TableFile, index: dict[tuple, list],
          file: _TableFile, probe: tuple[str, ...]) -> tuple[_Encode, _Column]:
    """A reference's encoder and column function: the identifiers that
    ``index``, a covering index of ``target``, holds for the ``probe``
    values of each row of ``file``, as an array, or for a forward
    reference the first, None when there is none (a NULL probe or a
    missing target, counted)."""
    encode = _id_of(target, target.table.primary_key().columns)[0]
    probes_of = partial(_keys, positions=file.positions(probe))
    if not forward:
        return (lambda ids: "[" + ",".join(map(encode, ids)) + "]",
                lambda block, counted: list(map(index.get, probes_of(block),
                                                repeat(()))))  # NULL joins nothing

    def first_ids(block: list[Sequence], counted: _Counted) -> list:
        probes = probes_of(block)
        found = list(map(index.get, probes))
        if None not in found:
            return list(map(_FIRST, found))
        nulls = [ids is None and None in key for key, ids in zip(probes, found)]
        counted.append(("nulls_omitted", nulls))
        counted.append(("dangling_refs", [ids is None and not null
                                          for ids, null in zip(found, nulls)]))
        return [ids and ids[0] for ids in found]

    return encode, first_ids


def _group_text(many: bool, build: _Builder, session: SourceSession
                ) -> _GroupDocs:
    """How an embedded property's text index builds the JSON text of a
    sorted child group from the documents ``build`` gives (an array, or the
    object of a one-object aggregate, which is not built over several
    rows), and its counters: its rows, then the rows, NULLs and dangling
    references that building it counted, its nested groups' included."""
    def text(size: int, docs: Iterable[str], counts: dict[str, int]
             ) -> tuple[str, int, int, int, int]:
        if not many and size > 1:
            return "", size, 0, 0, 0  # embedding it fails
        session.peak_live_records = max(session.peak_live_records, size)
        joined = "[" + ",".join(docs) + "]" if many else "".join(docs)
        # counts holds the sums once the documents are taken
        return (joined, size, size + counts.get("rows_read", 0),
                counts.get("nulls_omitted", 0), counts.get("dangling_refs", 0))

    return _GroupDocs(build.runs, text)


def _embedded(many: bool, texts: _Texts, file: _TableFile,
              probe: tuple[str, ...], label: str) -> tuple[_Encode, _Column]:
    """The encoder and column function of the JSON text of the child rows
    reached from each row of ``file`` through its ``probe`` values, copied
    from text index ``texts``, counting its counters: None for a
    one-object aggregate with no child, a failure with several."""
    probes_of = partial(_keys, positions=file.positions(probe))

    def embedded(block: list[Sequence], counted: _Counted) -> Sequence:
        found = list(map(texts.text, probes_of(block)))  # or a group's failure
        if None in found:
            missing = ("[]" if many else None, 0, 0, 0, 0)
            found = [entry or missing for entry in found]
        text, count, read, nulls, dangling = zip(*found)
        if not many and (most := max(count)) > 1:
            raise _BadKey(f"{most} child rows for one-object aggregate {label}")
        counted.extend(pair for pair in (("rows_read", read),
                                         ("nulls_omitted", nulls),
                                         ("dangling_refs", dangling))
                       if any(pair[1]))
        return text

    return str, embedded


# --- writing --------------------------------------------------------------------

#: Documents joined per write: joining a whole block held it twice, which
#: cost megabytes on blocks of large documents; 32 at a time write as fast.
_WRITE_CHUNK = 32
#: Bytes buffered per system call: with the default 8 KiB, about every chunk
#: of small documents made one, ~8 % of writing 40,000 of ~250 B (2 vCPU).
_WRITE_BUFFER = 1 << 16


def write_batch(handle: TextIO, lines: Iterable[str]) -> int:
    """Write encoded documents to an open text handle, one JSON text per
    line, ``_WRITE_CHUNK`` at a time; returns how many were written."""
    written, lines = 0, iter(lines)
    while chunk := list(islice(lines, _WRITE_CHUNK)):
        written += len(chunk)
        chunk.append("")  # the last line's end
        handle.write("\n".join(chunk))
    return written


@record
class _Collection:
    """A compiled collection: the file its documents come from, cut into
    one row slice per process, and the function that builds each."""

    name: str
    stats: EntityStats
    file: _TableFile
    build: _Builder
    spans: list[tuple[int, int, int]]


def _write_slice(source: SourceSession, c: _Collection, i: int,
                 out: TextIO) -> None:
    """Write the documents of row slice ``i`` of ``c`` to ``out``, adding
    to its stats; the parent and every worker run this."""
    started = time.monotonic()
    docs_before = c.stats.docs_written
    file = c.file
    try:
        with open(file.path, "rb") as handle:
            for block in file.blocks(handle, *c.spans[i]):
                c.stats.docs_written += write_batch(
                    out, c.build.documents(block, c.stats))
    except Exception as exc:
        raise MigrationError(
            f"while migrating collection {c.name!r}: {exc}") from exc
    # each document read its own row, held alone, and the embedded steps
    # counted the rows of the groups they copied
    written = c.stats.docs_written - docs_before
    c.stats.rows_read += written
    if written:
        source.peak_live_records = max(source.peak_live_records,
                                       source.live_records + 1)
    c.stats.elapsed_ms += (time.monotonic() - started) * 1000.0


def _cpus() -> int:
    """The number of row slices, and so of processes: how many CPUs this
    process may run on, or 1 where that is unknown or where other threads
    run, since a process with threads cannot be forked safely."""
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


#: Row slice ``i`` of one step of a phase (a file to index, or a collection
#: to write), run in process ``i``: into a worker's part file, by descriptor,
#: or in place for slice 0 (None); returns what a worker reports of it.
_Step = Callable[[int, int | None], dict]


@record
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
    """Start ``worker`` on CPU ``cpu``; in the child, run slice ``i`` of
    each step and end the process there, never returning into the caller's
    stack. After each step it writes one JSON line with what the step
    reports and the part file's offset, or with the error that stopped it."""
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
            part = worker.part.fileno()
            with open(report, "w", encoding="utf-8", buffering=1) as pipe:
                for step in steps:
                    try:
                        message = step(worker.i, part)
                    except MigrationError as exc:
                        pipe.write(json.dumps({"error": str(exc)}) + "\n")
                        break
                    message["end"] = os.lseek(part, 0, os.SEEK_CUR)
                    pipe.write(json.dumps(message) + "\n")
            code = 0
        finally:
            os._exit(code)
    os.close(report)


@contextmanager
def _in_slices(k: int, target_dir: Path, steps: list[_Step], labels: list[str],
               verb: str, error: type[MigrationError]
               ) -> Iterator[tuple[list[_Worker], list[list[dict]],
                                   tuple[int, MigrationError] | None]]:
    """Run slice ``i`` of every step, in order until one fails, in process
    ``i``: this process runs slice 0, forked workers, one per slice but the
    first (none when ``k`` is 1), the others. Yields, once all are done, the
    workers, what each reported of the steps it completed (recording the
    part file's offset after each) and the failure the serial run would
    raise: as (step index, error) of the first failing step and, within it,
    of the lowest failing slice, or None; ``labels`` name the steps in error
    messages, ``verb`` what a worker does to its slice. While they run,
    process ``i`` is kept on the ``i``-th CPU this process may run on; every
    worker is reaped and this process's CPUs are restored on exit, whatever
    happens."""
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
        for j, step in enumerate(steps):
            try:
                step(0, None)
            except MigrationError as exc:
                failures.append((j, 0, exc))
                break
        reports = []
        for worker in workers:
            with open(worker.pipe, encoding="utf-8") as pipe:
                worker.pipe = -1
                messages = [json.loads(line) for line in pipe]
            _, status = os.waitpid(worker.pid, 0)
            worker.pid = 0
            for j, message in enumerate(messages):
                if "error" in message:
                    failures.append((j, worker.i, error(message["error"])))
                    break
                worker.ends.append(message["end"])
            else:
                if (j := len(messages)) < len(steps):
                    failures.append((j, worker.i, error(
                        f"{labels[j]}: the worker {verb} row slice {worker.i} "
                        "ended without reporting it (exit status "
                        f"{os.waitstatus_to_exitcode(status)})")))
            reports.append(messages[:len(worker.ends)])
        failure = min(failures, key=itemgetter(0, 1), default=None)
        yield workers, reports, failure and (failure[0], failure[2])
    finally:
        for worker in workers:
            worker.close()
        if cpus:
            os.sched_setaffinity(0, cpus)


def _index_step(source: SourceSession, file: _TableFile,
                spans: list[tuple[int, int, int]], i: int,
                part: int | None) -> dict:
    if part is None:
        file.index_slice(spans[i])
        return {}
    start = os.lseek(part, 0, os.SEEK_END)
    file.index_slice(spans[i], part)
    texts = os.lseek(part, 0, os.SEEK_END) - start
    with open(part, "ab", closefd=False) as out:
        out.write(file.encode_slice())
    # the most records this worker held at once: its largest child group
    return {"texts": texts, "peak": source.peak_live_records}


def _build_indexes(source: SourceSession, files: list[_TableFile],
                   spans: dict[_TableFile, list[tuple[int, int, int]]],
                   k: int, target_dir: Path) -> None:
    """Fill the planned indexes of ``files`` at one level in their ``k``
    row slices (``spans``, or of a file whose lines are held clustered, of
    those lines): this process indexes slice 0 of each file straight into
    the indexes and its group texts into the session's spill, forked
    workers the others and send their texts and partial indexes back
    through their part files, and once all are done each file's texts are
    appended to the spill and its indexes joined on, in slice order, and
    the session's peak raised to the workers'. A failure raises the serial
    run's error before anything is written."""
    with _in_slices(
            k, target_dir,
            [partial(_index_step, source, file, spans[file]
                     if file.clustered is None else file.spans(k))
             for file in files],
            [f"while indexing for {file.planned_for}" for file in files],
            "indexing", SourceError) as (workers, reports, failure):
        if failure is not None:
            raise failure[1]
        for j, file in enumerate(files):
            later, shifts = [], []
            for worker, messages in zip(workers, reports):
                start, end = worker.output(j)
                source.peak_live_records = max(source.peak_live_records,
                                               messages[j]["peak"])
                shifts.append(0)
                if (texts := start + messages[j]["texts"]) > start:
                    spill = source.spill().fileno()
                    shifts[-1] = os.lseek(spill, 0, os.SEEK_END) - start
                    _copy(spill, worker.part.fileno(), start, texts, "indexing")
                worker.part.seek(texts)
                later.append(worker.part.read(end - texts))
            file.merge_indexes(later, shifts)


def _index_levels(source: SourceSession,
                  spans: dict[_TableFile, list[tuple[int, int, int]]], k: int,
                  target_dir: Path) -> None:
    """Build every planned index of ``source``, level by level, lowest
    first, each level in ``k`` row slices (``_build_indexes``)."""
    while files := source.indexed_files():
        level = min(file.level for file in files)
        _build_indexes(source, [f for f in files if f.level == level],
                       spans, k, target_dir)


def _write_step(source: SourceSession, target_dir: Path, c: _Collection,
                i: int, part: int | None) -> dict:
    if part is not None:
        vars(c.stats).update(vars(EntityStats()))  # this slice's counts only
    with open(target_dir / f"{c.name}.jsonl" if part is None else part, "w",
              buffering=_WRITE_BUFFER, encoding="utf-8", closefd=part is None) as out:
        _write_slice(source, c, i, out)
    return {"stats": vars(c.stats).copy(), "peak": source.peak_live_records}


def _copy(out: int, part: int, start: int, end: int, what: str) -> None:
    """Append bytes ``start`` to ``end`` of a part file to ``out`` with
    ``sendfile`` (which takes no ``O_APPEND`` target)."""
    while start < end:
        if not (sent := os.sendfile(out, part, start, end - start)):
            raise MigrationError(f"a part file {what} is short")
        start += sent


def _join(target_dir: Path, collections: list[_Collection],
          workers: list[_Worker]) -> None:
    """Append each collection's slices from the workers' part files, in
    slice order."""
    for j, c in enumerate(collections):
        ranges = [(w.part.fileno(), *w.output(j)) for w in workers]
        if all(start == end for _, start, end in ranges):
            continue
        out = os.open(target_dir / f"{c.name}.jsonl", os.O_WRONLY)
        try:
            os.lseek(out, 0, os.SEEK_END)
            for part, start, end in ranges:
                _copy(out, part, start, end, f"of collection {c.name!r}")
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
            [partial(_write_step, source, target_dir, c) for c in collections],
            [f"while migrating collection {c.name!r}" for c in collections],
            "writing", MigrationError) as (workers, reports, failure):
        for messages in reports:
            for c, message in zip(collections, messages):
                for key, value in message["stats"].items():
                    setattr(c.stats, key, getattr(c.stats, key) + value)
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
    available CPU, one process per slice, level by level
    (``_index_levels``), before any collection is written. Each
    collection's rows are then written in the same slices
    (``_write_collections``). The session carries the forward trace it was
    opened with; ``t2`` is the trace from the pivot model to
    ``target_schema``. The session is closed when migration finishes,
    successfully or not.
    """
    started = time.monotonic()
    target_dir = Path(target_dir)
    target_dir.mkdir(parents=True, exist_ok=True)

    report = MigrationReport()
    source.spill_dir = target_dir
    try:
        plans, k = [], _cpus()
        for te in target_schema.documents:
            stats = report.per_entity[te.name] = EntityStats()
            compiled = time.monotonic()
            try:
                file, build = compile_plan(source, t2, te)
            except Exception as exc:
                raise MigrationError(
                    f"while migrating collection {te.name!r}: {exc}") from exc
            stats.elapsed_ms = (time.monotonic() - compiled) * 1000.0
            plans.append((te.name, stats, file, build))
        # each file is cut once; the index pass and the writes share the cuts
        spans = {file: file.spans(k) for file in dict.fromkeys(
            source.indexed_files() + [plan[2] for plan in plans])}
        indexed = time.monotonic()
        _index_levels(source, spans, k, target_dir)
        report.index_ms = (time.monotonic() - indexed) * 1000.0
        collections = [_Collection(*plan, spans[plan[2]]) for plan in plans]
        _write_collections(source, collections, k, target_dir)
        report.total_elapsed_ms = (time.monotonic() - started) * 1000.0
        _write_manifest(target_dir, report, trace_refs or {})
        return report
    finally:
        # each record read is a row written or one of a child group copied
        # into a document, which the collections' rows_read count, once
        source.records_read += report.total_rows
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
