"""Streaming, model-independent access to a file-backed relational source.

A source dataset is a directory holding ``schema.sql`` plus one
``<table>.csv`` per table (UTF-8, header row naming the columns in table
order, empty field = NULL; fields must not contain line breaks). Opening a
source reads only the CSVs: it checks the file of every table of the schema
it is given once, that it is present and decodes as UTF-8, its header
against the table's columns, the field count of each record, that no record
spans lines, and that every line ends with a line feed. A failure names the
file and the row, or the line; a dataset that does not match the schema
fails on the first file that disagrees.

Rows come from ``csv.reader`` and are typed by column position
(``_TableFile.typed``): every non-string cell is converted, a numeric cell
must be ASCII with no digit-group ``_`` or surrounding whitespace (which
``int`` and ``float`` accept and SQL loaders do not), integers are
range-checked against their declared SQL type, a float must be finite, and
a value that does not convert names its file, row and column. Joins probe
two indexes by typed key. The run index (``runs_on``) maps a key to the
runs of consecutive rows holding it, stored flat as (byte offset, first
row, row count) triples in one ``array`` per key; a group is read with one
seek per run (one run per key in a file clustered by it) through one
handle per table, which the session closes. The covering id index
(``ids_on``) maps a key to the identifiers of the matching rows, so a
reference reads no row of the table it points at. Every index is planned
first (``plan_for`` names what needs it) and then built from a file's row
slices (see below): ``index_slice`` fills the indexes from one slice in a
pass that types each row once, and ``merge_indexes`` joins the partial
indexes of the later slices onto the first's in slice order (run triples
concatenated, a run that continues across a cut made one; identifier lists
concatenated, then sorted and ``#``-joined once), so any number of slices
builds the index one slice gives. The migrator indexes the later slices in
forked workers, which send their partial indexes back flat
(``encode_slice``); the session's ``build_indexes`` reads each file as one
slice. A pass fails, naming file, row and column and what the indexes were
planned for, on a bad cell, a NULL primary key value (which a covering
index would store), a text component of a composite primary key holding
``#`` (two stored identifiers could collide) or a NULL order value (which
child groups are sorted by).

The session resolves pivot-model features (attributes, keys, references,
aggregates) to tables, columns and foreign keys by looking them up in the
forward trace on each call; the migrator does so once per collection, when
it compiles its executor over these files.

After open, the index pass, collection writes, group reads and
``read_entity_all`` get data rows from one reader (``rows``), which parses
them and hands them on typed. It reads a run or a contiguous row slice
(``spans``), both (byte offset, first row, row count) triples.

The session counts the records read and the most held at once
(``peak_live_records``). ``SourceCursor`` and ``read_entity_all`` serve an
entity's records and the records a feature reaches from one; the migrator
does not use them, and they stay only while the benchmark's traced mode
wraps them by name.
"""

from __future__ import annotations

import csv
import marshal
import os
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, islice, tee
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from unimig.errors import SourceError
from unimig.relational.model import FKey, RelationalSchema, SqlType, Table, fk_in_pk
from unimig.trace import (
    AGGREGATE_CHILD,
    REF_FORWARD,
    REF_REVERSE,
    REL_TYPE_SIDE,
    TraceStore,
    id_segments,
)
from unimig.transforms.typemap import rel_to_us_type
from unimig.uschema.model import SchemaType

#: Joins the components of a composite identifier in migrated documents.
KEY_SEPARATOR = "#"

_TRUE = {"true", "t", "1", "yes"}
_FALSE = {"false", "f", "0", "no"}

_INT_RANGES = {"SMALLINT": 16, "INT": 32, "BIGINT": 64}

#: Roles, by rule, of the forward-trace links that give a feature data access.
_ACCESS_ROLES = {rule: (AGGREGATE_CHILD, REL_TYPE_SIDE) for rule in ("R5", "R6")} | {
    rule: (REF_FORWARD, REF_REVERSE) for rule in ("R7.1", "R7.2")}

#: A run index: typed key -> flat (byte offset, first row, row count) triples.
_Runs = dict[tuple, array]
#: One step of an index pass, given each typed row, its number and offset.
_Fill = Callable[[list, int, int], None]

_COUNT_CHUNK = 1 << 16  # bytes read at a time to count lines


def fmt_id(value: object) -> str:
    """One identifier component as text."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def record_id(values: tuple) -> object:
    """The identifier a document stores for a row with key ``values``: the
    bare value of a single-column key, else the ``#``-joined components."""
    if len(values) == 1:
        return values[0]
    return KEY_SEPARATOR.join(fmt_id(v) for v in values)


def separator_message(columns: list[str], values: tuple) -> str:
    """Names the first of ``values``, components of one identifier, that
    holds the separator, so that two identifiers could collide."""
    column, value = next((c, v) for c, v in zip(columns, values)
                         if isinstance(v, str) and KEY_SEPARATOR in v)
    return (f"column {column!r}: key value {value!r} holds the identifier "
            f"separator {KEY_SEPARATOR!r}")


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise SourceError(f"cannot read boolean value {text!r}")


def _ranged_int(base: str) -> Callable[[str], int]:
    bits = _INT_RANGES[base]
    low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1

    def convert(text: str) -> int:
        if "_" in text or not text.isascii() or text.strip() != text:
            raise ValueError(f"invalid literal for int() with base 10: {text!r}")
        value = int(text)
        if low <= value <= high:
            return value
        raise SourceError(f"{value} is out of {base} range [{low}, {high}]")

    return convert


def _finite_float(text: str) -> float:
    if "_" in text or not text.isascii() or text.strip() != text:
        raise ValueError(f"could not convert string to float: {text!r}")
    value = float(text)
    if value - value == 0.0:  # inf - inf and nan - nan are nan
        return value
    raise SourceError(f"{text!r} is not a finite number")


def _converter(datatype: SqlType) -> tuple[Callable[[str], object], type]:
    """Converter of one column's non-NULL cells, and the type of its values."""
    if datatype.base in _INT_RANGES:
        return _ranged_int(datatype.base), int
    kind = rel_to_us_type(datatype).kind
    if kind in ("Double", "Decimal"):
        return _finite_float, float
    if kind == "Boolean":
        return _bool, bool
    return str, str  # String, Date


def _not_utf8(path: Path) -> SourceError:
    """The error naming the first line of ``path`` that is not UTF-8, a
    CSV file's as a data row; a line feed is never part of a UTF-8
    sequence, so the lines decode one by one as the whole file does."""
    with open(path, "rb") as handle:
        for n, line in enumerate(handle):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                where = f"line {n + 1}"
                if path.suffix == ".csv":
                    where = f"row {n}" if n else "header row"
                return SourceError(f"{path.name} ({where}): not UTF-8: "
                                   f"{exc.reason} {line[exc.start]:#04x}")
    return SourceError(f"{path.name}: not UTF-8")


def read_utf8(path: Path) -> str:
    """``path.read_text()`` of a UTF-8 file, failing as ``_not_utf8``."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _count_lines(handle: BinaryIO, start: int, stop: int) -> int:
    """Line feeds between bytes ``start`` and ``stop`` of a binary
    ``handle``, read in bounded chunks."""
    handle.seek(start)
    lines = 0
    while start < stop:
        chunk = handle.read(min(stop - start, _COUNT_CHUNK))
        lines += chunk.count(b"\n")
        start += len(chunk)
    return lines


class _TableFile:
    """One CSV file: validation and row counting at open, schema-aware
    parsing, and the run and covering id indexes, planned on demand and
    built together, one pass per row slice."""

    def __init__(self, table: Table, path: Path):
        self.table = table
        self.path = path
        self.columns = [c.name for c in table.columns]
        converters, self.types = zip(*(_converter(c.datatype)
                                       for c in table.columns))
        # only non-string cells need converting; "" is NULL in every column
        self._typed_columns = [(p, convert) for p, convert
                               in enumerate(converters) if convert is not str]
        self.row_count = self._validate_and_count()
        self._runs: dict[tuple[tuple[str, ...], tuple[str, ...]], _Runs] = {}
        self._id_indexes: dict[tuple[str, ...], dict[tuple, list]] = {}
        self._unbuilt: list[tuple[str, tuple]] = []  # planned, not yet filled
        self._planned_for: dict[str, None] = {}  # who planned them, in order
        self._handle: BinaryIO | None = None

    # -- reading -----------------------------------------------------------------

    def _validate_and_count(self) -> int:
        with open(self.path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader, None)
                if header is None:
                    raise SourceError(f"{self.path.name}: missing header row")
                if header != self.columns:
                    raise SourceError(
                        f"{self.path.name}: header {header} does not match "
                        f"columns {self.columns} of table {self.table.name!r}")
                widths = Counter(map(len, reader))
            except csv.Error as exc:
                raise SourceError(
                    f"{self.path.name} (line {reader.line_num}): {exc}") from exc
            except UnicodeDecodeError:  # found in a chunk: name its line
                raise _not_utf8(self.path) from None
            count = sum(widths.values())
            # One record per line, each with one field per column; the
            # record-by-record pass runs only to name the culprit.
            if widths.keys() - {len(self.columns)} or reader.line_num != count + 1:
                self._find_malformed_record()
            # csv also ends lines at a bare carriage return, but runs of rows
            # are read by the byte offsets of line feeds.
            seen = handle.newlines
            if "\r" in (seen if isinstance(seen, tuple) else (seen,)):
                raise SourceError(
                    f"{self.path.name}: a line ends with a bare carriage "
                    "return; lines must end with a line feed")
            return count

    def _find_malformed_record(self) -> None:
        with open(self.path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            line = 1
            for n, row in enumerate(reader):
                if reader.line_num != line + 1:
                    raise SourceError(
                        f"{self.path.name} (row {n + 1}): a quoted field holds a "
                        f"line break (lines {line + 1}-{reader.line_num}); fields "
                        "must not contain line breaks")
                line = reader.line_num
                if len(row) != len(self.columns):
                    raise SourceError(
                        f"{self.path.name} (row {n + 1}): expected "
                        f"{len(self.columns)} fields, found {len(row)}")
        raise SourceError(f"{self.path.name}: records and lines disagree")

    def typed(self, row: list[str], n: int) -> list:
        """Raw data row ``n`` (0-based), one cell per column (checked at
        open), as typed values in column order, None for NULL; every
        non-string cell is converted."""
        try:
            for p, convert in self._typed_columns:
                cell = row[p]
                row[p] = convert(cell) if cell else None
        except (ValueError, SourceError) as exc:
            raise SourceError(f"{self.path.name} (row {n + 1}), column "
                              f"{self.columns[p]!r}: {exc}") from exc
        if "" in row:
            return [None if value == "" else value for value in row]
        return row

    def rows(self, handle: BinaryIO, offset: int, first: int,
             count: int) -> Iterator[tuple[int, int, list]]:
        """The ``count`` data rows at byte ``offset`` of ``handle``, a
        binary handle on this file, numbered from ``first`` (a run, or a
        slice of ``spans``): each row's number, the byte offset of its line
        and its ``typed`` values, after one seek. A record is one line
        (checked at open), so lines pair with rows."""
        handle.seek(offset)
        lines, sized = tee(islice(handle, count))
        numbers = range(first, first + count)
        return zip(numbers, accumulate(map(len, sized), initial=offset),
                   map(self.typed, csv.reader(map(bytes.decode, lines)), numbers))

    def spans(self, k: int) -> list[tuple[int, int, int]]:
        """The data rows cut into ``k`` contiguous slices of about equal
        size, as runs (byte offset, first row, row count); a slice may be
        empty. Each cut is the first line start at or after a byte
        ``k``-ile: a record is one line (checked at open), and a line feed
        never occurs inside a UTF-8 sequence. Rows before each cut are
        counted in bounded chunks."""
        with open(self.path, "rb") as handle:
            cuts = [len(handle.readline())]
            size = os.fstat(handle.fileno()).st_size
            for i in range(1, k):
                target = cuts[0] + (size - cuts[0]) * i // k
                if target > cuts[-1]:
                    handle.seek(target - 1)
                    handle.readline()
                    cuts.append(handle.tell())
                else:  # the last cut is already the first line start after it
                    cuts.append(cuts[-1])
            firsts = [0]
            for start, stop in zip(cuts, cuts[1:]):
                # the last line may lack its line feed
                firsts.append(self.row_count if stop == size else
                              firsts[-1] + _count_lines(handle, start, stop))
        firsts.append(self.row_count)
        return [(cut, first, after - first)
                for cut, first, after in zip(cuts, firsts, firsts[1:])]

    def getter(self, columns: Iterable[str]) -> Callable[[list], tuple]:
        """Function from a row to the tuple of its values in ``columns``."""
        positions = [self.columns.index(c) for c in columns]
        if len(positions) == 1:
            return lambda row, p=positions[0]: (row[p],)
        return itemgetter(*positions) if positions else lambda row: ()

    # -- indexes -------------------------------------------------------------------

    def runs_on(self, columns: tuple[str, ...], order: tuple[str, ...],
                plan_for: str) -> _Runs:
        """Run index: typed values of ``columns`` -> the runs of consecutive
        rows holding them, as flat ``(byte offset, first row, row count)``
        triples in file order. A file clustered by ``columns`` has one run
        per key. Rows with a NULL in ``columns`` are left out; a NULL in one
        of the ``order`` columns, which groups are sorted by, fails. The
        index is planned for ``plan_for``, which names what needs it: it
        stays empty until ``build_indexes`` fills it together with the
        file's other indexes."""
        return self._index(self._runs, "runs", (columns, order), plan_for)

    def ids_on(self, columns: tuple[str, ...], plan_for: str) -> dict[tuple, list]:
        """Covering index: typed values of ``columns`` -> identifiers
        (``record_id``) of the matching rows, in primary key order. Rows
        with a NULL in ``columns`` are left out; a NULL primary key value
        fails. It is planned as ``runs_on`` plans."""
        if self.table.primary_key() is None:
            raise SourceError(f"table {self.table.name!r} has no primary key")
        return self._index(self._id_indexes, "ids", columns, plan_for)

    def _index(self, indexes: dict, kind: str, key: tuple, plan_for: str) -> dict:
        index = indexes.get(key)
        if index is None:
            index = indexes[key] = {}
            self._unbuilt.append((kind, key))
        if (kind, key) in self._unbuilt:
            self._planned_for[plan_for] = None
        return index

    @property
    def planned_for(self) -> str:
        """What the indexes still unbuilt were planned for."""
        return ", ".join(self._planned_for)

    def index_slice(self, span: tuple[int, int, int]) -> None:
        """Fill every planned index still unbuilt, emptied first, from the
        data rows of ``span`` (one of ``spans``) alone: the first slice's
        part of each index, or in a forked worker the partial indexes of its
        slice, which ``merge_indexes`` joins onto the first slice's. One
        pass numbers rows from the span's first, types each row once and
        checks the key columns the indexes rely on: the primary key for
        covering indexes, the order columns for run indexes. A failed pass
        names what the indexes were planned for."""
        required: dict[str, None] = {}
        joined: list[str] = []  # text components of #-joined identifiers
        fills = []
        for kind, key in self._unbuilt:
            if kind == "ids":
                pk = self.table.primary_key().columns
                required.update(dict.fromkeys(pk))
                if len(pk) > 1:
                    joined = [c for c in pk
                              if self.types[self.columns.index(c)] is str]
                fills.append(self._ids_fill(key))
            else:
                required.update(dict.fromkeys(key[1]))
                fills.append(self._runs_fill(*key))
        if required:
            fills.insert(0, self._key_check(tuple(required), joined))
        with open(self.path, "rb") as handle:
            try:
                for n, start, row in self.rows(handle, *span):
                    for fill in fills:
                        fill(row, n, start)
            except SourceError as exc:
                raise SourceError(
                    f"while indexing for {self.planned_for}: {exc}") from exc

    def merge_indexes(self, later: list[bytes]) -> None:
        """Finish every planned index still unbuilt: join onto the first
        slice's part of it (``index_slice``) those of the later slices, each
        slice's partial indexes as ``encode_slice`` encoded them, in slice
        order. A key's run triples are concatenated, a run that continues
        across a cut becoming one; its identifier lists are concatenated,
        then sorted in primary key order and, for a composite key,
        ``#``-joined. The result is the index one slice over the whole file
        gives."""
        slices = [marshal.loads(data) for data in later]
        for p, (kind, key) in enumerate(self._unbuilt):
            if kind == "runs":
                index = self._runs[key]
                for keys, lengths, flat in (parts[p] for parts in slices):
                    triples, sizes = array("q"), array("q")
                    triples.frombytes(flat)
                    sizes.frombytes(lengths)
                    start = 0
                    for runs_key, size in zip(keys, sizes):
                        more = triples[start:start + size]
                        start += size
                        if (runs := index.get(runs_key)) is None:
                            index[runs_key] = more
                        elif runs[-2] + runs[-1] == more[1]:  # across the cut
                            runs[-1] += more[2]
                            runs.extend(more[3:])
                        else:
                            runs.extend(more)
                continue
            index = self._id_indexes[key]
            for part in (parts[p] for parts in slices):
                for ids_key, pks in part.items():
                    if (mine := index.get(ids_key)) is None:
                        index[ids_key] = pks
                    else:
                        mine.extend(pks)
            composite = len(self.table.primary_key().columns) > 1
            for pks in index.values():
                pks.sort()  # as key tuples: (1, 9) before (1, 10)
                if composite:
                    pks[:] = map(record_id, pks)
        self._unbuilt.clear()
        self._planned_for = {}

    def encode_slice(self) -> bytes:
        """The planned indexes still unbuilt, as ``index_slice`` filled them
        from one slice, in a flat ``marshal`` encoding: a run index as its
        keys, the length of each key's triples and all triples, the last two
        as ``array`` bytes; an id index as it is."""
        flat: list[object] = []
        for kind, key in self._unbuilt:
            if kind == "ids":
                flat.append(self._id_indexes[key])
                continue
            runs = self._runs[key]
            flat.append((list(runs), array("q", map(len, runs.values())).tobytes(),
                         b"".join(map(array.tobytes, runs.values()))))
        return marshal.dumps(flat)

    def _key_check(self, columns: tuple[str, ...], joined: list[str]) -> _Fill:
        """Fill step that fails on a NULL in ``columns``, or on ``#`` in a
        value of ``joined`` (text components of ``#``-joined identifiers),
        naming the row."""
        values_of, texts_of = self.getter(columns), self.getter(joined)

        def check(row: list, n: int, offset: int) -> None:
            if None in (values := values_of(row)):
                column = columns[values.index(None)]
                raise SourceError(
                    f"{self.path.name} (row {n + 1}), column {column!r}: "
                    f"NULL key value for {self.table.name}.{column}")
            if joined and KEY_SEPARATOR in "".join(texts := texts_of(row)):
                raise SourceError(
                    f"{self.path.name} (row {n + 1}), "
                    + separator_message(joined, texts))

        return check

    def _runs_fill(self, columns: tuple[str, ...], order: tuple[str, ...]) -> _Fill:
        index, key_of = self._runs[(columns, order)], self.getter(columns)
        index.clear()  # a failed earlier pass may have left part of it
        last: tuple | None = None
        runs = array("q")

        def fill(row: list, n: int, offset: int) -> None:
            nonlocal last, runs
            key = key_of(row)
            if key == last:
                runs[-1] += 1
                return
            last = key
            if None in key:  # a NULL joins nothing: count into a throwaway
                runs = array("q", (offset, n, 1))
            elif (runs := index.get(key)) is None:
                runs = index[key] = array("q", (offset, n, 1))
            else:
                runs.extend((offset, n, 1))

        return fill

    def _ids_fill(self, columns: tuple[str, ...]) -> _Fill:
        groups, key_of = self._id_indexes[columns], self.getter(columns)
        groups.clear()
        pk = [self.columns.index(c) for c in self.table.primary_key().columns]
        # a single-column key is held as its bare value, which is its
        # record_id: a 1-tuple per row would cost ~4 MB on Northwind 39x
        pk_of = itemgetter(*pk)

        def fill(row: list, n: int, offset: int) -> None:
            key = key_of(row)
            if None not in key:
                if (pks := groups.get(key)) is None:
                    groups[key] = [pk_of(row)]
                else:
                    pks.append(pk_of(row))

        return fill

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@dataclass(frozen=True)
class _Link:
    """A related feature resolved against the schema: it reaches the rows of
    ``file`` whose ``index`` columns equal the current record's ``probe``
    columns, ordered by ``order`` when read as records."""

    type_name: str
    file: _TableFile
    probe: tuple[str, ...]
    index: tuple[str, ...]
    order: tuple[str, ...]
    order_of: Callable[[list], tuple]

    def group(self, probe: tuple, runs: _Runs) -> list[tuple[int, list]]:
        """Numbered typed rows reached from a record whose probe columns
        hold ``probe`` (none if it holds a NULL), read by their runs in
        ``runs``, the built run index of ``file`` on ``index`` and ``order``,
        through the file's one handle (the session closes it); sorted."""
        file, order_of = self.file, self.order_of
        handle = file._handle = file._handle or open(file.path, "rb")
        triples = iter(() if None in probe else runs.get(probe, ()))
        rows = [(n, row) for run in zip(triples, triples, triples)
                for n, _, row in file.rows(handle, *run)]
        if self.order:
            rows.sort(key=lambda item: order_of(item[1]))
        return rows


class SourceSession:
    """Open dataset directory; resolves pivot features to tables through the
    forward trace."""

    def __init__(self, root: Path, schema: RelationalSchema, t1: TraceStore):
        self.root = Path(root)
        self.schema = schema
        self.t1 = t1
        self.open = True
        self.live_records = 0
        self.peak_live_records = 0
        self.records_read = 0
        self._files: dict[str, _TableFile] = {}

    # -- bookkeeping ---------------------------------------------------------

    def _records_born(self, n: int) -> None:
        self.live_records += n
        self.records_read += n
        if self.live_records > self.peak_live_records:
            self.peak_live_records = self.live_records

    def _records_released(self, n: int) -> None:
        self.live_records = max(0, self.live_records - n)

    def _check_open(self) -> None:
        if not self.open:
            raise SourceError("source session is closed")

    # -- trace resolution ------------------------------------------------------

    def _traced(self, element: str, rule: str,
                direction: str = "backward") -> list[str | None]:
        """Path segments of the other end of the first ``rule`` link of the
        forward trace that holds ``element``, or ``[None]``."""
        for link in self.t1.lookup(element, direction):
            if link.rule == rule:
                ends = link.sources if direction == "backward" else link.targets
                return id_segments(ends[0])
        return [None]

    def table_for(self, type_name: str) -> Table:
        table_name = self._traced(f"us:{type_name}", "R2")[0]
        if table_name is None:
            raise SourceError(f"no table traces to schema type {type_name!r}")
        return self.schema.table(table_name)

    def column_of(self, type_name: str, table: Table, attr_name: str) -> str:
        """Column of ``table`` that stores attribute ``attr_name`` of
        ``type_name``."""
        source = self._traced(f"us:{type_name}.{attr_name}", "R3")
        if source[0] != table.name:
            raise SourceError(
                f"attribute {attr_name!r} does not belong to {type_name!r} "
                "(or is reference-owned)")
        return source[1]

    def _access(self, type_name: str, feature_name: str
                ) -> tuple[str, Table, str | None] | None:
        """Role, holding table and foreign key name of the link that gives
        feature ``feature_name`` of ``type_name`` its data access."""
        for link in self.t1.lookup(f"us:{type_name}.{feature_name}", "backward"):
            if link.role in _ACCESS_ROLES.get(link.rule, ()):
                table_name, *fk_name = id_segments(link.sources[-1])
                return link.role, self.schema.table(table_name), (*fk_name, None)[0]
        return None

    def side_columns(self, owner_type: str, ref_name: str) -> list[str]:
        """Columns of the foreign key behind one side of a relationship type,
        i.e. where an associative row stores that side's identifier."""
        access = self._access(owner_type, ref_name)
        if access is None or access[0] != REL_TYPE_SIDE:
            raise SourceError(f"{owner_type}.{ref_name} is not a relationship side")
        return list(_fk(access[1], access[2]).columns)

    def link(self, type_name: str, table: Table, feature_name: str) -> _Link:
        """Feature ``feature_name`` of ``type_name`` (stored in ``table``)
        resolved to the rows it reaches."""
        access = self._access(type_name, feature_name)
        if access is None:
            raise SourceError(
                f"feature {type_name}.{feature_name} carries no data-access "
                "role in the trace")
        role, holder, fk_name = access
        if role == REL_TYPE_SIDE:
            fk = _filter_side(holder, fk_name, table.name,
                              f"{type_name}.{feature_name}")
        else:
            fk = _fk(holder, fk_name)
        if role == REF_FORWARD:
            # the holder's foreign key columns point at the target's key
            reached = self.schema.table(fk.ref_table)
            probe, index, order = fk.columns, fk.ref_columns, []
        else:
            # rows of the holder whose foreign key points at this record
            reached, probe, index = holder, fk.ref_columns, fk.columns
            pk = holder.primary_key()
            order = list(pk.columns) if pk else []
            if role != REF_REVERSE:
                order = [c for c in order if c not in fk.columns]
        file = self._files[reached.name]
        stored = self._traced(f"rel:{reached.name}", "R2", "forward")[0]
        return _Link(stored or reached.name, file, tuple(probe),
                     tuple(index), tuple(order), file.getter(order))

    def file_for(self, table_name: str) -> _TableFile:
        return self._files[table_name]

    def indexed_files(self) -> list[_TableFile]:
        """The files with planned indexes still unbuilt, in schema order."""
        return [file for file in self._files.values() if file._unbuilt]

    def build_indexes(self) -> None:
        """Fill every planned index, one pass per file over all its rows as
        one slice; a file with nothing planned is not read."""
        for file in self.indexed_files():
            file.index_slice(file.spans(1)[0])
            file.merge_indexes([])

    def close_handles(self) -> None:
        """Close every table's read handle; the next read reopens it."""
        for file in self._files.values():
            file.close()

    def close(self) -> None:
        self.open = False
        self.live_records = 0
        self.close_handles()


def _fk(table: Table, fk_name: str | None) -> FKey:
    for fk in table.fkeys:
        if fk.constraint_name == fk_name:
            return fk
    raise SourceError(f"table {table.name!r} has no foreign key {fk_name!r}")


def _filter_side(assoc: Table, fk_name: str | None, from_table: str,
                 feature: str) -> FKey:
    """The identifying foreign key of associative table ``assoc`` that
    selects its rows for a record of ``from_table``: the one that is not
    the side ``fk_name`` itself, or for a self-relationship the one that
    points at ``from_table``."""
    identifying = [fk for fk in assoc.fkeys if fk_in_pk(assoc, fk)]
    others = [fk for fk in identifying if fk.constraint_name != fk_name]
    if len(others) == 1:
        return others[0]
    mine = [fk for fk in others if fk.ref_table == from_table]
    if len(mine) != 1:
        raise SourceError(
            f"cannot pick the filtering side of {assoc.name!r} for {feature}")
    return mine[0]


def open_source(root: Path | str, schema: RelationalSchema,
                t1: TraceStore) -> SourceSession:
    """Check the CSV of every table of ``schema`` in the dataset directory
    and open a session."""
    root = Path(root)
    session = SourceSession(root, schema, t1)
    for table in schema.tables:
        path = root / f"{table.name}.csv"
        if not path.exists():
            session.close()
            raise SourceError(f"missing data file for table {table.name!r}: {path}")
        session._files[table.name] = _TableFile(table, path)
    return session


class SourceCursor:
    """Streaming view over the instances of one schema type.

    ``preloaded`` is the number of already-parsed records handed in by a
    related lookup (current one included); streaming cursors parse on
    demand instead. Either way the session's live-record count drops as the
    cursor moves past records or closes.
    """

    def __init__(self, session: SourceSession, type_name: str, table: Table,
                 records: Iterable[dict[str, object]],
                 preloaded: int | None = None):
        self.session = session
        self.type_name = type_name
        self.table = table
        self._iter = iter(records)
        self._current: dict[str, object] | None = None
        self._preloaded = preloaded
        self.advance()

    # -- iteration -------------------------------------------------------------

    def has_data(self) -> bool:
        return self._current is not None

    def advance(self) -> bool:
        self.session._check_open()
        if self._current is not None:
            self.session._records_released(1)
            if self._preloaded is not None:
                self._preloaded -= 1
        try:
            self._current = next(self._iter)
            if self._preloaded is None:  # streamed: read just now
                self.session._records_born(1)
        except StopIteration:
            self._current = None
        return self._current is not None

    def close(self) -> None:
        if self._preloaded is not None:
            self.session._records_released(self._preloaded)
            self._preloaded = 0
        elif self._current is not None:
            self.session._records_released(1)
        self._current = None
        self._iter = iter(())

    def record(self) -> dict[str, object]:
        if self._current is None:
            raise SourceError(f"cursor over {self.type_name!r} is exhausted")
        return self._current

    def related_by_name(self, feature_name: str) -> "SourceCursor":
        """Cursor over the records a related feature reaches from the
        current record: aggregate children and relationship rows in key
        order, reverse references in primary key order, a forward
        reference's target (zero or one)."""
        self.session._check_open()
        record = self.record()
        link = self.session.link(self.type_name, self.table, feature_name)
        runs = link.file.runs_on(link.index, link.order,
                                 plan_for=f"feature {self.type_name}.{feature_name}")
        self.session.build_indexes()
        group = link.group(tuple(record[c] for c in link.probe), runs)
        records = [dict(zip(link.file.columns, row)) for _, row in group]
        self.session._records_born(len(records))
        return SourceCursor(self.session, link.type_name, link.file.table,
                            records, preloaded=len(records))


def read_entity_all(session: SourceSession, schema_type: SchemaType | str) -> SourceCursor:
    """Cursor over every stored instance of an entity or relationship type,
    in file order."""
    session._check_open()
    name = schema_type if isinstance(schema_type, str) else schema_type.name
    table = session.table_for(name)
    file = session.file_for(table.name)

    def records() -> Iterator[dict[str, object]]:
        with open(file.path, "rb") as handle:
            for _, _, row in file.rows(handle, *file.spans(1)[0]):
                yield dict(zip(file.columns, row))

    return SourceCursor(session, name, table, records())
