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

Rows come from ``csv.reader`` and are typed a block of rows at a time, each
column by one kernel for its type (``_TableFile.typed_block``;
block-at-a-time processing as in Boncz, Zukowski, Nes, "MonetDB/X100:
Hyper-Pipelining Query Execution", CIDR 2005): every non-string cell is
converted, a numeric cell must be ASCII with no digit-group ``_`` or
surrounding whitespace (which ``int`` and ``float`` accept and SQL loaders
do not), integers are range-checked against their declared SQL type, a float
must be finite, and ``""`` is NULL in every column. A kernel checks a whole
column with calls that run in C and accepts only cells it can vouch for; on
any doubt the block is typed row by row (``_TableFile.typed``), as its rows
are taken, and a value that does not convert names its file, row and column,
at the row and in the order typing row by row fails. Joins probe three
indexes by typed key. The covering id index (``ids_on``) maps a key to the
identifiers of the matching rows, so a reference reads no row of the table
it points at. The text index (``texts_on``) maps a key to one entry, the
spill offset and length of a record that holds the text a caller's function
built from the key's group of rows, sorted by the group's order columns, and
the counters it returned. The records lie in one unnamed spill file per
session, with no directory entry, and are read back with one ``pread``; the
function runs once per group while the index is built, and an error it
raises is kept as the record and raised only when the record is read, so a
group that nothing reads (an orphan) never fails (grouping and spilling as
in Graefe, "Query Evaluation Techniques for Large Databases", ACM CSUR
1993). A group must be one run of consecutive rows; a file with a key in
several runs is not clustered by it, and the text index then holds the
file's run index on the key instead (``runs_on``): a key -> the runs of
consecutive rows holding it, stored flat as (byte offset, first row, row
count) triples in one ``array`` per key, whose group is read with one seek
per run through one handle per table, which the session closes.

Every index is planned first (``plan_for`` names what needs it), at a
level: id and run indexes at 0, a text index at 0 if its function probes no
index, else at one more than the highest level of those it probes. They are
then built level by level, lowest first, from a file's row slices (see
below): ``index_slice`` fills a file's indexes of its lowest unbuilt level
from one slice in a pass that types each row once, and ``merge_indexes``
joins the partial indexes of the later slices onto the first's in slice
order (run triples concatenated, a run that continues across a cut made
one; identifier lists concatenated, then sorted and ``#``-joined once; text
entries appended), so any number of slices builds the index one slice
gives. A text index's slice owns each group whose first row it holds: it
reads on past its end while its last group goes on and passes over the
rows at its start that continue the row before it. The migrator indexes the
later slices in forked workers, which append their texts to their part
files and send their partial indexes back flat (``encode_slice``); the
session's ``build_indexes`` reads each file as one slice. A pass fails,
naming file, row and column and what the indexes were planned for, on a bad
cell, a NULL primary key value (which a covering index would store), a text
component of a composite primary key holding ``#`` (two stored identifiers
could collide) or a NULL order value (which groups are sorted by).

The session resolves pivot-model features (attributes, keys, references,
aggregates) to tables, columns and foreign keys by looking them up in the
forward trace on each call; the migrator does so once per collection, when
it compiles its executor over these files.

After open, the index pass, collection writes, run-index group reads and
``read_entity_all`` get data rows from one reader (``rows``), which parses
them and hands them on typed, as tuples. It reads a run or a contiguous row
slice (``spans``), both (byte offset, first row, row count) triples, in
blocks of ``_BLOCK`` rows; a group read gathers its runs' lines first and
types them as one block.

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
import re
import struct
import tempfile
from array import array
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from math import isfinite
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from unimig.errors import MigrationError, SourceError
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

_INT_RANGES = {base: (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
               for base, bits in (("SMALLINT", 16), ("INT", 32), ("BIGINT", 64))}

#: Roles, by rule, of the forward-trace links that give a feature data access.
_ACCESS_ROLES = {rule: (AGGREGATE_CHILD, REL_TYPE_SIDE) for rule in ("R5", "R6")} | {
    rule: (REF_FORWARD, REF_REVERSE) for rule in ("R7.1", "R7.2")}

#: A run index: typed key -> flat (byte offset, first row, row count) triples.
_Runs = dict[tuple, array]
#: One step of an index pass, given each typed row, its number and offset.
_Fill = Callable[[tuple, int, int], None]
#: Types one column of a block of rows at once: its cells -> its values,
#: raising ``ValueError`` or ``KeyError`` on any cell it cannot vouch for.
_Kernel = Callable[[tuple], Sequence]

_COUNT_CHUNK = 1 << 16  # bytes read at a time to count lines
#: Data rows typed at once, picked by timing full reads: 128 to 1024 read
#: within a few per cent of each other, 256 fastest.
_BLOCK = 256


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
    low, high = _INT_RANGES[base]

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


# The column kernels accept only cells their converter above accepts, with
# the same values: ASCII digits and signs (and a point and exponent for a
# float), which holds no ``_`` or whitespace, or a word of ``_TRUE`` or
# ``_FALSE`` once stripped and lower-cased, as ``_bool`` reads it. Each call
# in them runs in C over the column.
_INT_TEXT = re.compile(r"[0-9+-]*").fullmatch
_FLOAT_TEXT = re.compile(r"[0-9+.eE-]*").fullmatch
_WORDS = dict.fromkeys(_TRUE, True) | dict.fromkeys(_FALSE, False)
_NULL = {"": None}


def _with_nulls(cells: tuple, values: list) -> list:
    """``values``, one per non-empty cell of ``cells``, with None for each
    empty one."""
    if len(values) == len(cells):
        return values
    more = iter(values)
    return [next(more) if cell else None for cell in cells]


def _int_kernel(base: str) -> _Kernel:
    low, high = _INT_RANGES[base]

    def kernel(cells: tuple) -> list:
        if not _INT_TEXT("".join(cells)):
            raise ValueError
        values = list(map(int, filter(None, cells)))
        if values and (min(values) < low or max(values) > high):
            raise ValueError
        return _with_nulls(cells, values)

    return kernel


def _float_kernel(cells: tuple) -> list:
    if not _FLOAT_TEXT("".join(cells)):
        raise ValueError
    values = list(map(float, filter(None, cells)))
    if not all(map(isfinite, values)):
        raise ValueError
    return _with_nulls(cells, values)


def _bool_kernel(cells: tuple) -> list:
    words = map(str.lower, map(str.strip, filter(None, cells)))
    return _with_nulls(cells, list(map(_WORDS.__getitem__, words)))


def _text_kernel(cells: tuple) -> Sequence:
    return list(map(_NULL.get, cells, cells)) if "" in cells else cells


def _converter(datatype: SqlType) -> tuple[Callable[[str], object], _Kernel, type]:
    """Converter of one column's non-NULL cells, its column kernel, and the
    type of its values."""
    if datatype.base in _INT_RANGES:
        return _ranged_int(datatype.base), _int_kernel(datatype.base), int
    kind = rel_to_us_type(datatype).kind
    if kind in ("Double", "Decimal"):
        return _finite_float, _float_kernel, float
    if kind == "Boolean":
        return _bool, _bool_kernel, bool
    return str, _text_kernel, str  # String, Date


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


#: Values per text entry: the spill offset of its record and the record's
#: length, negated when the text is a deferred error message. A record is a
#: header (``_HEADER``: the byte offset and number of the group's first row,
#: then the counters ``text_of`` gives), then the text.
_ENTRY = 2
_HEADER = struct.Struct("<6q")
#: Builds a group of numbered typed rows, sorted: its text and counters
#: (group rows, rows read, NULLs omitted, dangling references).
_TextOf = Callable[[list[tuple[int, tuple]]], tuple[str, int, int, int, int]]


def _level(planned: tuple[str, object]) -> int:
    """The level of a planned index: a text index's own, else 0."""
    kind, key = planned
    return key.level if kind == "texts" else 0


class _Texts:
    """A text index: typed key -> one entry (``_ENTRY``) in ``entries``,
    whose text, built once by ``text_of`` from the key's group of rows in
    ``order``, lies in ``spill``, an unnamed file. ``text_of`` may fail; its
    error is kept as the text and raised when the text is read, so a group
    that is never read never fails. A file not clustered by the key (a key
    with more than one group) gets its run index instead (``runs``), and
    its groups are read and built where they are used. While a slice is
    built, ``repeats`` holds, after a key's first repeat, the runs of the
    slice's later groups."""

    def __init__(self, columns: tuple[str, ...], order: tuple[str, ...],
                 key_of: Callable[[tuple], tuple],
                 order_of: Callable[[tuple], object] | None, text_of: _TextOf,
                 level: int, spill: BinaryIO):
        self.columns, self.order = columns, order
        self.key_of, self.order_of, self.text_of = key_of, order_of, text_of
        self.level, self.spill = level, spill
        self.index: dict[tuple, int] = {}  # key -> entry number
        self.entries = array("q")
        self.repeats: _Runs | None = None
        self.runs: _Runs | None = None

    def add(self, keys: list[tuple], entries: bytes, shift: int) -> bool:
        """Append the entries of ``keys``, in order, as ``array`` bytes,
        their offsets moved by ``shift``; whether a key was there."""
        start = len(self.entries)
        self.entries.frombytes(entries)
        for j in range(start, len(self.entries), _ENTRY):
            self.entries[j] += shift
        before = len(self.index)
        base = start // _ENTRY
        self.index.update(zip(keys, range(base, base + len(keys))))
        return len(self.index) < before + len(keys)

    def text(self, key: tuple) -> tuple[str, int, int, int, int] | None:
        """The text of ``key``'s group and its counters, as ``text_of``
        gave them, None when no row holds ``key``; raises the error
        ``text_of`` raised."""
        if (p := self.index.get(key)) is None:
            return None
        offset, length = self.entries[p * _ENTRY:(p + 1) * _ENTRY]
        record = os.pread(self.spill.fileno(), abs(length), offset)
        text = record[_HEADER.size:].decode()
        if length < 0:
            raise MigrationError(text)
        return (text, *_HEADER.unpack_from(record)[2:])

    def runs_from(self, slices: list[tuple[list[tuple], int, dict | None]]
                  ) -> None:
        """Make ``runs`` from each slice's keys, entry number of the first
        and ``repeats`` (arrays, or their bytes), in slice order, and drop
        the entries: a group's run is read from its record's header."""
        runs: _Runs = {}
        for keys, base, repeats in slices:
            for p, key in enumerate(keys, base):
                header = os.pread(self.spill.fileno(), _HEADER.size,
                                  self.entries[p * _ENTRY])
                run = _HEADER.unpack(header)[:3]  # offset, first row, count
                if (mine := runs.get(key)) is None:
                    runs[key] = array("q", run)
                else:
                    mine.extend(run)
            for key, more in (repeats or {}).items():
                if isinstance(more, bytes):
                    more = array("q", memoryview(more).cast("q"))
                if (mine := runs.get(key)) is None:
                    runs[key] = more
                else:
                    mine.extend(more)
        self.index.clear()
        self.entries, self.repeats, self.runs = array("q"), None, runs


class _Grouper:
    """Groups the consecutive rows of one slice that hold a key of text
    index ``texts`` (none with a NULL in it), writes each group's text to
    ``out`` and enters it. Rows that hold the key of ``before``, the row
    before the slice, at its start belong to an earlier slice's group."""

    __slots__ = ("texts", "key_of", "out", "last", "group", "offset")

    def __init__(self, texts: _Texts, out: BinaryIO, before: tuple | None):
        texts.index.clear()
        texts.entries = array("q")
        texts.repeats = None
        self.texts, self.key_of, self.out = texts, texts.key_of, out
        self.last = None if before is None else texts.key_of(before)
        self.group: list[tuple[int, tuple]] | None = None  # None: passed over
        self.offset = 0  # of the group's first row

    def add(self, row: tuple, n: int, offset: int) -> None:
        if (key := self.key_of(row)) != self.last:
            self.close()
            self.last, self.offset = key, offset
            if None not in key:
                self.group = []
        if self.group is not None:
            self.group.append((n, row))

    def extend(self, row: tuple, n: int) -> bool:
        """Take a row after the slice if it goes on with the last group."""
        if self.key_of(row) != self.last:
            return False
        self.group.append((n, row))
        return True

    def close(self) -> None:
        """Build and enter the open group, if any; after a key's first
        repeat, record its run instead (the file gets a run index)."""
        group, self.group, texts = self.group, None, self.texts
        if not group:
            return
        run = (self.offset, group[0][0], len(group))
        if texts.repeats is None and self.last in texts.index:
            texts.repeats = {}  # from here on the groups' runs alone
        if texts.repeats is not None:
            if (runs := texts.repeats.get(self.last)) is None:
                texts.repeats[self.last] = array("q", run)
            else:
                runs.extend(run)
            return
        if order_of := texts.order_of:
            group.sort(key=lambda item: order_of(item[1]))
        try:
            text, *counters = texts.text_of(group)
            sign = 1
        except MigrationError as exc:
            text, sign, counters = str(exc), -1, (len(group), 0, 0, 0)
        record = _HEADER.pack(*run[:2], *counters) + text.encode()
        texts.index[self.last] = len(texts.entries) // _ENTRY
        texts.entries.extend((self.out.tell(), sign * len(record)))
        self.out.write(record)


class _TableFile:
    """One CSV file: validation and row counting at open, the one reader of
    its rows after open, which parses and types them a block at a time, a
    column at a time (``rows``, ``typed_block``), and the run, covering id
    and text indexes, planned on demand and built together, one pass per
    row slice and level."""

    def __init__(self, table: Table, path: Path):
        self.table = table
        self.path = path
        self.columns = [c.name for c in table.columns]
        converters, kernels, self.types = zip(*(_converter(c.datatype)
                                                for c in table.columns))
        # only non-string cells need converting; "" is NULL in every column
        self._typed_columns = [(p, convert) for p, convert
                               in enumerate(converters) if convert is not str]
        self._kernels = list(enumerate(kernels))
        self.row_count = self._validate_and_count()
        self._runs: dict[tuple[tuple[str, ...], tuple[str, ...]], _Runs] = {}
        self._id_indexes: dict[tuple[str, ...], dict[tuple, list]] = {}
        self._texts: list[_Texts] = []
        # planned, not yet filled: (kind, key) -> who planned it, in order
        self._unbuilt: dict[tuple[str, object], dict[str, None]] = {}
        self.texts_to: int | None = None  # where a worker appends texts
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

    def typed(self, row: list[str], n: int) -> tuple:
        """Raw data row ``n`` (0-based), one cell per column (checked at
        open), as typed values in column order, None for NULL; every
        non-string cell is converted, and the first that does not convert
        fails, naming file, row and column. ``typed_block`` falls back to
        it."""
        try:
            for p, convert in self._typed_columns:
                cell = row[p]
                row[p] = convert(cell) if cell else None
        except (ValueError, SourceError) as exc:
            raise SourceError(f"{self.path.name} (row {n + 1}), column "
                              f"{self.columns[p]!r}: {exc}") from exc
        if "" in row:
            return tuple(None if value == "" else value for value in row)
        return tuple(row)

    def typed_block(self, lines: list[bytes], numbers: Sequence[int]
                    ) -> Iterable[tuple]:
        """The typed rows of ``lines``, data rows ``numbers``, as ``typed``
        gives them, typed a column at a time: the lines are parsed and
        transposed, and each column goes through its type's kernel. When a
        kernel cannot vouch for a cell, the block's rows are typed one by
        one by ``typed``, as they are taken, so a bad cell fails only when
        its row is reached."""
        if not lines:
            return ()
        raw = list(csv.reader(map(bytes.decode, lines)))
        columns = list(zip(*raw))
        try:
            for p, kernel in self._kernels:
                columns[p] = kernel(columns[p])
        except (ValueError, KeyError):
            return map(self.typed, raw, numbers)
        return zip(*columns)

    def rows(self, handle: BinaryIO, offset: int, first: int,
             count: int) -> Iterator[tuple[int, int, tuple]]:
        """The ``count`` data rows at byte ``offset`` of ``handle``, a
        binary handle on this file, numbered from ``first`` (a run, or a
        slice of ``spans``): each row's number, the byte offset of its line
        and its typed values, after one seek. Lines are read and typed
        ``_BLOCK`` at a time (``typed_block``), as the rows are taken. A
        record is one line (checked at open), so lines pair with rows."""
        handle.seek(offset)
        return chain.from_iterable(self._blocks(handle, offset, first, count))

    def _blocks(self, handle: BinaryIO, offset: int, first: int,
                count: int) -> Iterator[Iterator[tuple[int, int, tuple]]]:
        for start in range(first, first + count, _BLOCK):
            lines = list(islice(handle, min(_BLOCK, first + count - start)))
            offsets = list(accumulate(map(len, lines), initial=offset))
            offset = offsets.pop()
            numbers = range(start, start + len(lines))
            yield zip(numbers, offsets, self.typed_block(lines, numbers))

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

    def getter(self, columns: Iterable[str]) -> Callable[[tuple], tuple]:
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
        file's other indexes of its level (level 0)."""
        return self._index(self._runs, "runs", (columns, order), plan_for)

    def ids_on(self, columns: tuple[str, ...], plan_for: str) -> dict[tuple, list]:
        """Covering index: typed values of ``columns`` -> identifiers
        (``record_id``) of the matching rows, in primary key order. Rows
        with a NULL in ``columns`` are left out; a NULL primary key value
        fails. It is planned as ``runs_on`` plans, at level 0."""
        if self.table.primary_key() is None:
            raise SourceError(f"table {self.table.name!r} has no primary key")
        return self._index(self._id_indexes, "ids", columns, plan_for)

    def texts_on(self, columns: tuple[str, ...], order: tuple[str, ...],
                 text_of: _TextOf, level: int, spill: BinaryIO,
                 plan_for: str) -> _Texts:
        """Text index: typed values of ``columns`` -> the text ``text_of``
        gives for the group of rows holding them, sorted by ``order``, kept
        in ``spill`` (see ``_Texts``). It is planned as ``runs_on`` plans,
        at ``level``: the indexes ``text_of`` probes must be built at lower
        levels."""
        texts = _Texts(columns, order, self.getter(columns),
                       order and itemgetter(*map(self.columns.index, order)),
                       text_of, level, spill)
        self._texts.append(texts)
        self._unbuilt[("texts", texts)] = {plan_for: None}
        return texts

    def _index(self, indexes: dict, kind: str, key: tuple, plan_for: str) -> dict:
        index = indexes.get(key)
        if index is None:
            index = indexes[key] = {}
            self._unbuilt[(kind, key)] = {}
        if (kind, key) in self._unbuilt:
            self._unbuilt[(kind, key)][plan_for] = None
        return index

    @property
    def level(self) -> int:
        """The lowest level of the indexes still unbuilt (0 if none)."""
        return min(map(_level, self._unbuilt), default=0)

    def _planned(self) -> list[tuple[str, object]]:
        """The indexes still unbuilt at the lowest level, in planning order:
        those the next ``index_slice`` fills."""
        level = self.level
        return [planned for planned in self._unbuilt if _level(planned) == level]

    @property
    def planned_for(self) -> str:
        """What the indexes the next ``index_slice`` fills were planned for."""
        return ", ".join(dict.fromkeys(name for planned in self._planned()
                                       for name in self._unbuilt[planned]))

    def index_slice(self, span: tuple[int, int, int]) -> None:
        """Fill every planned index still unbuilt at the lowest level,
        emptied first, from the data rows of ``span`` (one of ``spans``)
        alone: the first slice's part of each index, or in a forked worker
        the partial indexes of its slice, which ``merge_indexes`` joins onto
        the first slice's. One pass numbers rows from the span's first,
        types each row once and checks the key columns the indexes rely on:
        the primary key for covering indexes, the order columns for run and
        text indexes. A text index takes the groups whose first row lies in
        the span, whole: it reads on past the span's end while its last
        group goes on, and passes over the rows at its start that continue
        the row before it. Each group's text is appended to the spill, or
        to ``texts_to`` (a descriptor) when that is set. A failed pass names
        what the indexes were planned for."""
        required: dict[str, None] = {}
        joined: list[str] = []  # text components of #-joined identifiers
        fills, texts = [], []
        for kind, key in self._planned():
            if kind == "ids":
                pk = self.table.primary_key().columns
                required.update(dict.fromkeys(pk))
                if len(pk) > 1:
                    joined = [c for c in pk
                              if self.types[self.columns.index(c)] is str]
                fills.append(self._ids_fill(key))
            elif kind == "runs":
                required.update(dict.fromkeys(key[1]))
                fills.append(self._runs_fill(self._runs[key], key[0]))
            else:
                required.update(dict.fromkeys(key.order))
                texts.append(key)
        check = self._key_check(tuple(required), joined) if required else None
        offset, first, count = span
        with open(self.path, "rb") as handle, ExitStack() as stack:
            try:
                groupers, read = [], count
                if texts:
                    out = stack.enter_context(open(
                        texts[0].spill.fileno() if self.texts_to is None
                        else self.texts_to, "ab", closefd=False))
                    before = self._row_before(handle, offset, first)
                    groupers = [_Grouper(t, out, before) for t in texts]
                    read = self.row_count - first  # on past the span
                rows = self.rows(handle, offset, first, read)
                for n, start, row in islice(rows, count):
                    if check:
                        check(row, n, start)
                    for fill in fills:
                        fill(row, n, start)
                    for grouper in groupers:
                        grouper.add(row, n, start)
                going = [grouper for grouper in groupers if grouper.group]
                for n, start, row in rows if going else ():
                    if check:
                        check(row, n, start)
                    if not (going := [g for g in going if g.extend(row, n)]):
                        break
                for grouper in groupers:
                    grouper.close()
            except SourceError as exc:
                raise SourceError(
                    f"while indexing for {self.planned_for}: {exc}") from exc

    def _row_before(self, handle: BinaryIO, offset: int,
                    first: int) -> tuple | None:
        """Typed data row ``first - 1``, whose line ends at byte ``offset``
        of ``handle``, or None for the first row."""
        if not first:
            return None
        size = 256
        while True:  # the header's line feed comes before it
            start = max(0, offset - 1 - size)
            handle.seek(start)
            chunk = handle.read(offset - start)
            if (cut := chunk.rfind(b"\n", 0, -1)) >= 0:
                line = chunk[cut + 1:].decode()
                return self.typed(next(csv.reader([line])), first - 1)
            size *= 4

    def merge_indexes(self, later: list[bytes], shifts: list[int] = ()) -> None:
        """Finish every planned index that ``index_slice`` fills: join onto
        the first slice's part of it those of the later slices, each
        slice's partial indexes as ``encode_slice`` encoded them, in slice
        order. A key's run triples are concatenated, a run that continues
        across a cut becoming one; its identifier lists are concatenated,
        then sorted in primary key order and, for a composite key,
        ``#``-joined; text entries are added, their offsets moved by the
        slice's ``shifts`` entry (where its texts now lie in the spill). The
        result is the index one slice over the whole file gives. A text
        index whose key has more than one group, within a slice or across
        slices, gets the file's run index on its key instead (``_Texts.runs``),
        from the runs of its groups, as the slices found them."""
        slices = [marshal.loads(data) for data in later]
        for p, (kind, key) in enumerate(self._planned()):
            if kind == "texts":
                first, repeated = len(key.index), key.repeats is not None
                runs = []  # each later slice's keys, first entry, repeats
                for (keys, entries, repeats), shift in zip(
                        (parts[p] for parts in slices), shifts, strict=True):
                    runs.append((keys, len(key.entries) // _ENTRY, repeats))
                    repeated = (key.add(keys, entries, shift) or repeated
                                or repeats is not None)
                if repeated:  # the first slice's keys come first in the index
                    key.runs_from([(list(islice(key.index, first)), 0,
                                    key.repeats)] + runs)
                continue
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
        for planned in self._planned():
            del self._unbuilt[planned]

    def encode_slice(self) -> bytes:
        """The planned indexes that ``index_slice`` fills, as it filled them
        from one slice, in a flat ``marshal`` encoding: a run index as its
        keys, the length of each key's triples and all triples, the last two
        as ``array`` bytes; a text index as its keys, its entries as
        ``array`` bytes, and the runs of the groups after a key's first
        repeat; an id index as it is."""
        flat: list[object] = []
        for kind, key in self._planned():
            if kind == "ids":
                flat.append(self._id_indexes[key])
            elif kind == "texts":
                flat.append((list(key.index), key.entries.tobytes(),
                             key.repeats and {k: runs.tobytes() for k, runs
                                              in key.repeats.items()}))
            else:
                runs = self._runs[key]
                flat.append((list(runs),
                             array("q", map(len, runs.values())).tobytes(),
                             b"".join(map(array.tobytes, runs.values()))))
        return marshal.dumps(flat)

    def _key_check(self, columns: tuple[str, ...], joined: list[str]) -> _Fill:
        """Fill step that fails on a NULL in ``columns``, or on ``#`` in a
        value of ``joined`` (text components of ``#``-joined identifiers),
        naming the row."""
        positions = [self.columns.index(c) for c in columns]
        # a slice of one column, as C does it, else a tuple of several
        values_of = itemgetter(*positions) if len(positions) > 1 else \
            itemgetter(slice(positions[0], positions[0] + 1))
        texts_of = self.getter(joined)

        def check(row: tuple, n: int, offset: int) -> None:
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

    def _runs_fill(self, index: _Runs, columns: tuple[str, ...]) -> _Fill:
        key_of = self.getter(columns)
        index.clear()  # a failed earlier pass may have left part of it
        last: tuple | None = None
        runs = array("q")

        def fill(row: tuple, n: int, offset: int) -> None:
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

        def fill(row: tuple, n: int, offset: int) -> None:
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
    order_of: Callable[[tuple], tuple]

    def group(self, probe: tuple, runs: _Runs) -> list[tuple[int, tuple]]:
        """Numbered typed rows reached from a record whose probe columns
        hold ``probe`` (none if it holds a NULL), read by their runs in
        ``runs``, the built run index of ``file`` on ``index`` and ``order``,
        through the file's one handle (the session closes it), and typed
        as one block; sorted."""
        file, order_of = self.file, self.order_of
        handle = file._handle = file._handle or open(file.path, "rb")
        triples = iter(() if None in probe else runs.get(probe, ()))
        lines: list[bytes] = []
        numbers: list[int] = []
        for offset, first, count in zip(triples, triples, triples):
            handle.seek(offset)
            lines += islice(handle, count)
            numbers += range(first, first + count)
        rows = list(zip(numbers, file.typed_block(lines, numbers)))
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
        self.spill_dir: Path | None = None
        self._spill: BinaryIO | None = None

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
        """Fill every planned index, level by level, one pass per file and
        level over all its rows as one slice; a file with nothing planned is
        not read."""
        while files := self.indexed_files():
            level = min(file.level for file in files)
            for file in files:
                if file.level == level:
                    file.index_slice(file.spans(1)[0])
                    file.merge_indexes([])

    def spill(self) -> BinaryIO:
        """The unnamed file that holds every text index's texts, made on
        first use in ``spill_dir`` (the system's temporary directory when
        None) and closed with the session."""
        if self._spill is None:
            self._spill = tempfile.TemporaryFile(dir=self.spill_dir)
        return self._spill

    def close_handles(self) -> None:
        """Close every table's read handle; the next read reopens it."""
        for file in self._files.values():
            file.close()

    def close(self) -> None:
        self.open = False
        self.live_records = 0
        self.close_handles()
        if self._spill is not None:
            self._spill.close()
            self._spill = None


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
