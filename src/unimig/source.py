"""Streaming, model-independent access to a file-backed relational source.

A source dataset is a directory holding ``schema.sql`` plus one
``<table>.csv`` per table (UTF-8, header row naming the columns in table
order, empty field = NULL; fields must not contain line breaks). Opening a
source reads only the CSVs: it checks the file of every table of the schema
it is given once, that it is present and decodes as UTF-8, its header
against the table's columns, the field count of each record, that no record
spans lines, and that every line ends with a line feed. A file whose header
line is its columns joined by commas, whose lines hold no NUL and no bare
carriage return, and whose quotes all open and close quoted fields that
``csv`` reads within one line (``"a,b"``, ``"a ""b"" c"``) is checked and
counted in chunks of whole lines by byte calls and one regular expression
pass that run in C, which parse no record (``_TableFile._vouched_count``;
checking CSV with bulk byte operations and parsing only on doubt, as in
Mühlbauer et al., "Instant Loading for Main Memory Databases", VLDB 2013).
``csv.reader`` reads every file they cannot vouch for, so a failure is
always found by it. A failure names the file and the row, or the line; a
dataset that does not match the schema fails on the first file that
disagrees.

Rows are read and typed a block of rows at a time, each column by one
kernel for its type (``_TableFile.typed_block``; block-at-a-time
processing as in Boncz, Zukowski, Nes, "MonetDB/X100: Hyper-Pipelining
Query Execution", CIDR 2005). A block with no quote is split at commas in
one call and each column sliced from the cells; ``csv.reader`` parses a
block with quotes (``_TableFile._cells``). Every non-string cell is
converted, a numeric cell must be ASCII with no digit-group ``_`` or
surrounding whitespace (which ``int`` and ``float`` accept and SQL loaders
do not), integers are range-checked against their declared SQL type, a float
must be finite, and ``""`` is NULL in every column. A kernel checks a whole
column with calls that run in C and accepts only cells it can vouch for. On
any doubt the block's halves are typed in turn, down to single rows
(``_halves``): the rows before the first bad one come as blocks, then the
row fails with the message ``_TableFile.typed`` gives, naming its file, row
and column, at the row and in the order typing row by row fails. Joins probe
two indexes by typed key. The covering id index (``ids_on``) maps a key to
the identifiers of the matching rows, so a reference reads no row of the
table it points at. The text index (``texts_on``) maps a key to one entry, the
spill offset and length of a record that holds the text a caller's function
built from the key's group of rows, sorted by the group's order columns, and
the counters it returned. The records lie in one unnamed spill file per
session, with no directory entry, and are read back with one ``pread``; the
function runs once per group while the index is built, and an error it
raises is kept as the record and raised only when the record is read, so a
group that nothing reads (an orphan) never fails. A group is one run of
consecutive rows. A file with a key in several runs is not clustered by it:
its lines are then sorted by the key, stably, in memory, typing only the
key's columns, and the groups are built from them
(``_TableFile._cluster``; grouping by sorting and spilling
as in Graefe, "Query Evaluation Techniques for Large Databases", ACM CSUR
1993).

Every index is planned first (``plan_for`` names what needs it), at a
level: an id index (``_Ids``) at 0, a text index (``_Texts``) at 0 if its
function probes no index, else at one more than the highest level of those
it probes. Both kinds have one interface: their ``level``, the columns a
pass must find non-NULL (``required``) and free of ``#`` (``joined``), and
``start``, ``add`` (a block), ``close``, ``encode`` and ``merge``. They are
built level by level, lowest first, from a file's row slices (see below):
``index_slice`` fills a file's indexes of its lowest unbuilt level from one
slice in a pass that types each row once and hands each block to every
index, and ``merge_indexes`` has each index join the partial indexes of the
later slices onto the first's in slice order (identifier lists
concatenated, then sorted and ``#``-joined once; text entries appended),
so any number of slices builds the index one slice gives. A file with a
text index is cut where a run of equal key cells ends, so each slice holds
its groups whole and reads no row outside it.
Cells are compared untyped: a key spelled two ways (``2``, ``02``) may
still lie in two slices, and output never depends on where a cut lands. A
text index that meets a key a second time, within a slice or across
slices, stops grouping and stays planned; once its level is merged, the
file's lines are clustered by its key and the same pass builds it again,
at the same level, from slices of those lines cut at group ends, which
are dropped afterwards. A file with two unclustered text indexes is
clustered and passed over once per index. The migrator indexes the later
slices in forked workers, which inherit any clustered lines, append their
texts to their part files (``index_slice``'s ``out``) and send their
partial indexes back flat (``encode_slice``). A pass fails, naming file,
row and column and what the indexes were planned for, on a bad cell, a
NULL primary key value (which a covering index would store), a text
component of a composite primary key holding ``#`` (two stored identifiers
could collide) or a NULL order value (which groups are sorted by); the
first pass over a file runs every check, in file order.

The session resolves pivot-model features (attributes, keys, references,
aggregates) to tables, columns and foreign keys by looking them up in the
forward trace on each call; the migrator does so once per collection, when
it compiles its executor over these files.

After open, the index pass, collection writes, ``related_by_name`` and
``read_entity_all`` get data rows from one reader, which reads a
contiguous row slice (``spans``) in blocks of ``_BLOCK`` rows (``blocks``);
a pass over clustered lines reads those the same way. Every stage keeps a
block as columns, typed, down to the JSON text of its documents, and has
no other path. The index pass checks the key columns and fills the id
indexes a column at a time; a text index cuts a block's key column into
runs and joins each group's text from the documents of its rows, built
for the whole block at once (``_GroupDocs``). When building a block fails,
its halves are built in turn, down to single rows (``_halves``), and each
row that fails keeps its error in place of its document, so a group fails
with its first failing row in sorted order. A block fails exactly when
one of its rows fails alone, so within a row typing comes before the key
check and the key check before the build, and the first bad row fails as
typing, checking and building each row in turn would.

The session counts the records read and the most held at once
(``peak_live_records``); the migrator adds its rows and its largest child
group to them. ``SourceCursor`` and ``read_entity_all`` serve an
entity's records and the records a feature reaches from one, with one scan
of the reached file per call; the migrator does not use them, and they stay
only while the benchmark's traced mode wraps them by name.
"""

from __future__ import annotations

import csv
import io
import marshal
import os
import re
import struct
import tempfile
from array import array
from bisect import bisect_left
from collections import defaultdict, deque
from contextlib import ExitStack
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat
from math import isfinite
from operator import add, contains, itemgetter, ne, not_
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

from unimig.errors import MigrationError, SourceError
from unimig.record import record
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

#: Types one column of a block of rows at once: its cells -> its values,
#: raising ``ValueError`` or ``KeyError`` on any cell it cannot vouch for.
_Kernel = Callable[[tuple], Sequence]

_COUNT_CHUNK = 1 << 16  # bytes read at a time to count or check lines
#: Every byte but the comma and the line feed: deleting them leaves a
#: quote-free line's field separators and its end.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b",\n")
#: A comma, then a quoted field that ``csv`` reads within one line: no line
#: break and no quote inside but doubled ones, and a separator after it.
_QUOTED_FIELD = re.compile(rb',"[^"\n]*(?:""[^"\n]*)*"(?=[,\n])')
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
#: header (``_HEADER``: the counters ``_GroupDocs.text`` gives), then the text.
_ENTRY = 2
_HEADER = struct.Struct("<4q")
#: What building each row of a block counted, as (counter, one value per
#: row) pairs; the counter is a name its builder gives.
_Counted = list[tuple[str, Sequence[int]]]
#: A block built in runs (``_halves``): each run's documents and what
#: building them counted, or the error of a row that fails alone.
_Runs = Iterator[tuple[int, int, tuple[Iterator[str], _Counted] | MigrationError]]


class _Block:
    """Data rows ``numbers`` of a file, typed: their ``columns``, one
    sequence of values per column. Iterating gives the rows."""

    __slots__ = ("numbers", "columns")

    def __init__(self, numbers: Sequence[int], columns: list[Sequence]):
        self.numbers, self.columns = numbers, columns

    def __iter__(self) -> Iterator[tuple]:
        return zip(*self.columns)

    def part(self, first: int, end: int) -> _Block:
        """Rows ``first`` to ``end`` of the block, as a block."""
        if first == 0 and end == len(self.numbers):
            return self
        return _Block(self.numbers[first:end],
                      [column[first:end] for column in self.columns])


def _halves(size: int, build: Callable[[int, int], object],
            fails: type[Exception] | tuple[type[Exception], ...]
            ) -> Iterator[tuple[int, int, object]]:
    """Runs ``(first, end, built)`` covering rows 0 to ``size`` of a block
    in row order: ``build(first, end)`` of the whole block or, where it
    raises ``fails``, of each half in turn, down to single rows, which give
    the error they raise. Each ``build`` fails on a block exactly when one
    of its rows fails alone, so the first error is the first failing row's."""
    todo = [(0, size)]
    while todo:
        first, end = todo.pop()
        try:
            built = build(first, end)
        except fails as exc:
            if end - first > 1:
                middle = (first + end) // 2
                todo += [(middle, end), (first, middle)]
                continue
            built = exc.with_traceback(None)  # kept as data, its frames freed
        yield first, end, built


def _raised(doc: str | MigrationError) -> str:
    """A document, or its row's error raised anew: the kept one stays out of
    the traceback's frames, which hold it (a reference cycle)."""
    if isinstance(doc, MigrationError):
        raise MigrationError(str(doc))
    return doc


def _add(counts: dict[str, int], counted: _Counted, first: int = 0,
         end: int | None = None) -> None:
    """Add to ``counts`` what building rows ``first`` to ``end`` of a
    block counted."""
    for which, values in counted:
        counts[which] = counts.get(which, 0) + sum(values[first:end])


def _keys(columns: list[Sequence], positions: list[int]) -> list[tuple]:
    """Each row's tuple of its values at ``positions`` of a block's
    ``columns``."""
    return list(zip(*map(columns.__getitem__, positions)))


class _GroupDocs(NamedTuple):
    """How a text index builds its groups: ``docs`` gives the texts of a
    block's rows, from its columns, in runs (``_Runs``); ``text`` joins the
    ``size`` texts of a group's rows, sorted, into the group's text and
    counters (group rows, rows read, NULLs omitted, dangling references),
    summing the counters it is given (``counts``, complete once the texts
    are taken)."""

    docs: Callable[[_Block], _Runs]
    text: Callable[[int, Iterable[str], dict[str, int]],
                   tuple[str, int, int, int, int]]


class _Ids:
    """The covering index on ``columns`` of ``file``: ``index`` maps a key,
    their typed values, to the identifiers (``record_id``) of the rows
    holding it, in primary key order; a row with a NULL in ``columns`` is
    left out. A pass (``_TableFile.index_slice``) requires the primary key
    columns non-NULL and its text components (``joined``, for a composite
    key) free of ``#``. Its level is 0: filling it probes no index."""

    level = 0
    unclustered = False

    def __init__(self, file: _TableFile, columns: tuple[str, ...]):
        pk = file.table.primary_key().columns
        self.required = pk
        self.joined = [c for c in pk if len(pk) > 1
                       and file.types[file.columns.index(c)] is str]
        self.key_at, self.pk_at = file.positions(columns), file.positions(pk)
        self.index: dict[tuple, list] = {}

    def start(self, out: BinaryIO | None) -> None:
        """Empty the index for a pass; it writes nothing to ``out``."""
        self.index.clear()

    def add(self, block: _Block) -> None:
        """Fill the index from a block's columns, in C: each key not holding
        a NULL gets the primary key of its rows, in row order."""
        columns, key_at, pk_at = block.columns, self.key_at, self.pk_at
        keys = _keys(columns, key_at)
        # a single-column key is held as its bare value, which is its
        # record_id: a 1-tuple per row would cost ~4 MB on Northwind 39x
        pks = columns[pk_at[0]] if len(pk_at) == 1 else _keys(columns, pk_at)
        if any(None in columns[p] for p in key_at):
            keep = list(map(not_, map(contains, keys, repeat(None))))
            keys, pks = compress(keys, keep), compress(pks, keep)
        # a new empty list per row, kept where the key is new
        deque(map(list.append, map(self.index.setdefault, keys, iter(list, None)),
                  pks), 0)

    def close(self) -> None:
        """End the pass: the index holds its slice's part."""

    def encode(self) -> dict[tuple, list]:
        """The slice's part, for ``marshal``: the index as it is."""
        return self.index

    def merge(self, parts: list[dict[tuple, list]], shifts: list[int]) -> None:
        """Join the later slices' ``parts`` onto this slice's, in slice order:
        a key's primary keys are concatenated, then sorted in primary key
        order and, for a composite key, ``#``-joined (``record_id``)."""
        index = self.index
        for part in parts:
            for key, pks in part.items():
                if (mine := index.get(key)) is None:
                    index[key] = pks
                else:
                    mine.extend(pks)
        for pks in index.values():
            pks.sort()  # as key tuples: (1, 9) before (1, 10)
            if len(self.pk_at) > 1:
                pks[:] = map(record_id, pks)


class _Texts:
    """A text index: typed key -> one entry (``_ENTRY``) in ``entries``,
    whose text, built once from the key's group of rows in ``order``, lies
    in ``spill``, an unnamed file, by ``docs``. Building may fail; the
    error is kept as the text and raised when the text is read, so a group
    that is never read never fails. A pass (``_TableFile.index_slice``)
    requires the ``order`` columns non-NULL; it groups the consecutive rows
    of one slice that hold a key (none with a NULL in it), a block at a
    time, and writes each group's text to the pass's writer. The slice ends
    where a group ends (``_TableFile.spans``), so it reads no row of
    another slice. ``unclustered`` is set when a key is met in a second
    group, which ends the grouping: the index is then built again from the
    file's lines clustered by the key (``_TableFile._cluster``)."""

    joined = ()

    def __init__(self, file: _TableFile, columns: tuple[str, ...],
                 order: tuple[str, ...], docs: _GroupDocs, level: int,
                 spill: BinaryIO):
        self.columns, self.order, self.required = columns, order, order
        self.key_at, self.order_at = file.positions(columns), file.positions(order)
        self.docs = docs
        self.level, self.spill = level, spill
        self.index: dict[tuple, int] = {}  # key -> entry number
        self.entries = array("q")
        self.unclustered = False

    def text(self, key: tuple) -> tuple[str, int, int, int, int] | None:
        """The text of ``key``'s group and its counters, as ``docs.text``
        gave them, None when no row holds ``key``; raises the error
        building the group raised."""
        if (p := self.index.get(key)) is None:
            return None
        offset, length = self.entries[p * _ENTRY:(p + 1) * _ENTRY]
        record = os.pread(self.spill.fileno(), abs(length), offset)
        text = record[_HEADER.size:].decode()
        if length < 0:
            raise MigrationError(text)
        return (text, *_HEADER.unpack_from(record))

    def start(self, out: BinaryIO) -> None:
        """Empty the index for a pass that appends its texts to ``out``."""
        self.index.clear()
        self.entries = array("q")
        # the pass's writer, the last key it met and its open group, as
        # pieces of blocks: (what ``_docs`` gives for the block, first,
        # end); None: passed over
        self.out, self.last, self.pieces = out, None, None

    def add(self, block: _Block) -> None:
        """Take a block: each run of one key in it goes on with the open
        group, or closes it and opens the next."""
        keys = _keys(block.columns, self.key_at)
        cuts = [0, *compress(range(1, len(keys)), map(ne, keys[1:], keys)),
                len(keys)]
        built = None
        for first, end in zip(cuts, cuts[1:]):
            if (key := keys[first]) != self.last:
                self._enter()
                self.last = key
                if None not in key and not self.unclustered:
                    self.pieces = []
            if self.pieces is not None:
                built = built or self._docs(block)
                self.pieces.append((built, first, end))

    def close(self) -> None:
        """End the pass: enter the open group, and drop the writer and the
        last key."""
        self._enter()
        self.out = self.last = None

    def encode(self) -> tuple[list[tuple], bytes, bool]:
        """The slice's part, for ``marshal``: its keys, its entries as
        ``array`` bytes and whether it met a key in a second group."""
        return list(self.index), self.entries.tobytes(), self.unclustered

    def merge(self, parts: list[tuple[list[tuple], bytes, bool]],
              shifts: list[int]) -> None:
        """Append the later slices' ``parts`` to this slice's, in slice
        order, each entry's offset moved by its slice's ``shifts`` entry
        (where its texts now lie in the spill); a key met again, here or in
        a part, marks the index unclustered."""
        for (keys, entries, unclustered), shift in zip(parts, shifts, strict=True):
            start = len(self.entries)
            self.entries.frombytes(entries)
            for j in range(start, len(self.entries), _ENTRY):
                self.entries[j] += shift
            before, base = len(self.index), start // _ENTRY
            self.index.update(zip(keys, range(base, base + len(keys))))
            self.unclustered = (self.unclustered or unclustered
                                or len(self.index) < before + len(keys))

    def _docs(self, block: _Block) -> tuple:
        """The documents of a block's rows, what building them counted (one
        value per row of the block), their order keys, and whether building
        the block failed: then the error building a row alone raised stands
        in place of each row that failed."""
        orders = _keys(block.columns, self.order_at)
        runs = list(self.docs.docs(block))
        if len(runs) == 1 and not isinstance(built := runs[0][2], MigrationError):
            return list(built[0]), built[1], orders, False
        docs, sums = [], {}
        for first, end, built in runs:
            if isinstance(built, MigrationError):
                docs.append(built)
                continue
            docs += built[0]
            for which, values in built[1]:
                column = sums.setdefault(which, [0] * len(block.numbers))
                column[first:end] = map(add, column[first:end], values)
        return docs, list(sums.items()), orders, True

    def _enter(self) -> None:
        """Build and enter the open group, if any, unless its key was met
        before: then mark the index unclustered."""
        pieces, self.pieces = self.pieces, None
        if not pieces:
            return
        if self.last in self.index:
            self.unclustered = True
            return
        try:
            text, *counters = self._text(pieces)
            sign = 1
        except MigrationError as exc:
            size = sum(end - first for _, first, end in pieces)
            text, sign, counters = str(exc), -1, (size, 0, 0, 0)
        record = _HEADER.pack(*counters) + text.encode()
        self.index[self.last] = len(self.entries) // _ENTRY
        self.entries.extend((self.out.tell(), sign * len(record)))
        self.out.write(record)

    def _text(self, pieces: list[tuple]) -> tuple[str, int, int, int, int]:
        """The open group's text and counters, joined from the documents
        of its rows sorted by their order keys. A row that failed holds its
        error, raised when its document is taken, so that the group fails
        with its first failing row in that order."""
        counts: dict[str, int] = {}
        made: list[str] = []
        orders: list[tuple] = []
        failed = False
        for (docs, counted, ordered, some_failed), first, end in pieces:
            made += docs[first:end]
            orders += ordered[first:end]
            _add(counts, counted, first, end)
            failed = failed or some_failed
        if self.order:
            made = list(map(made.__getitem__, sorted(range(len(made)),
                                                     key=orders.__getitem__)))
        return self.docs.text(len(made), map(_raised, made) if failed else made,
                              counts)


class _TableFile:
    """One CSV file: validation and row counting at open, by byte checks
    for a file whose quoted fields each lie within a line and by
    ``csv.reader`` for any other, the one
    reader of its rows after open, which parses and types them a block at
    a time, a column at a time (``blocks``, ``typed_block``), and the
    covering id and text indexes, planned on demand and built together,
    one pass per row slice and level."""

    def __init__(self, table: Table, path: Path):
        self.table = table
        self.path = path
        self.columns = [c.name for c in table.columns]
        converters, self._kernels, self.types = zip(*(_converter(c.datatype)
                                                      for c in table.columns))
        # only non-string cells need converting; "" is NULL in every column
        self._typed_columns = [(p, convert) for p, convert
                               in enumerate(converters) if convert is not str]
        self.row_count = self._validate_and_count()
        self._ids: dict[tuple[str, ...], _Ids] = {}
        self._texts: list[_Texts] = []
        # planned, not yet filled: index -> who planned it, in order
        self._unbuilt: dict[_Ids | _Texts, dict[str, None]] = {}
        # while a text index is built again: it, the data lines, the byte
        # offset of each in them, the row numbers clustered by its key and
        # the end of each group in those, after a 0
        self.clustered: tuple[_Texts, bytes, array, array, array] | None = None

    # -- reading -----------------------------------------------------------------

    def _vouched_count(self) -> int | None:
        """The data row count of a file this can vouch for with byte checks
        that run in C, or None on any doubt; it never raises. It vouches
        for a file whose header line is the columns joined by commas and
        whose lines hold no NUL and no carriage return but one before a
        line feed, are UTF-8, are not empty and each have one field per
        column; the last line may end the file without a line feed. A
        quote must open a quoted field that starts a line or follows a
        comma, holds no line break and no quote but doubled ones, and
        closes right before a comma or the line's end, which ``csv`` reads
        as one field. With a comma put before each line's first field, one
        leftmost pass drops every such field with the comma before it, and
        a quote left over is a doubt. (A pass per kind of field start would
        not do: dropping the fields the first finds can join what is left
        into a field the second takes.) It reads chunks of whole lines, and
        a chunk longer than the csv field size limit is a doubt, so no
        field can exceed it. A NUL is a doubt because ``csv`` before Python
        3.11 rejects it."""
        width = len(self.columns)
        header = ",".join(self.columns).encode()
        # each line is width - 1 commas then a line feed, or width commas
        # once a comma starts every line
        plain = b"," * (width - 1) + b"\n"
        limit = csv.field_size_limit()
        lines = 0
        try:
            with open(self.path, "rb") as handle:
                # a line cut short by the limit leaves a chunk longer than
                # it, a doubt, so no chunk is longer than _COUNT_CHUNK + limit
                chunk = handle.readline(limit + 1)  # the header, a line too
                if chunk not in (header + b"\n", header + b"\r\n"):
                    return None
                while chunk:
                    if b"\0" in chunk or len(chunk) > limit:
                        return None
                    if not chunk.isascii():
                        try:
                            chunk.decode()
                        except UnicodeDecodeError:
                            return None
                    if b"\r" in chunk:
                        chunk = chunk.replace(b"\r\n", b"\n")
                        if b"\r" in chunk:
                            return None
                    if not chunk.endswith(b"\n"):  # the last line, at the end
                        chunk += b"\n"
                    # an empty line has no comma, so width 1 looks for it
                    if width == 1 and (chunk.startswith(b"\n") or b"\n\n" in chunk):
                        return None
                    line = plain
                    if b'"' in chunk:
                        chunk = _QUOTED_FIELD.sub(
                            b",", b"," + chunk[:-1].replace(b"\n", b"\n,") + b"\n")
                        if b'"' in chunk:
                            return None
                        line = b"," + plain
                    separators = chunk.translate(None, _NOT_SEPARATOR)
                    n = len(separators) // len(line)
                    if separators != line * n:
                        return None
                    lines += n
                    chunk = handle.read(_COUNT_CHUNK) + handle.readline(limit)
        except OSError:  # reading again, csv.reader raises it
            return None
        return lines - 1

    def _validate_and_count(self) -> int:
        """The data row count, after checking the header, that each line
        holds one record with one field per column, and that lines end with
        a line feed; a file ``_vouched_count`` cannot vouch for is read with
        ``csv.reader`` in one pass, which names the first line or row at
        fault, in file order."""
        count = self._vouched_count()
        if count is not None:
            return count
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
                count = 0
                for count, row in enumerate(reader, 1):
                    if reader.line_num != count + 1:
                        raise SourceError(
                            f"{self.path.name} (row {count}): a quoted field holds "
                            f"a line break (lines {count + 1}-{reader.line_num}); "
                            "fields must not contain line breaks")
                    if len(row) != len(self.columns):
                        raise SourceError(
                            f"{self.path.name} (row {count}): expected "
                            f"{len(self.columns)} fields, found {len(row)}")
            except csv.Error as exc:
                raise SourceError(
                    f"{self.path.name} (line {reader.line_num}): {exc}") from exc
            except UnicodeDecodeError:  # found in a chunk: name its line
                raise _not_utf8(self.path) from None
            # csv also ends lines at a bare carriage return, but row slices
            # are cut at line feeds and their lines read as rows.
            seen = handle.newlines
            if "\r" in (seen if isinstance(seen, tuple) else (seen,)):
                raise SourceError(
                    f"{self.path.name}: a line ends with a bare carriage "
                    "return; lines must end with a line feed")
            return count

    def typed(self, row: list[str], n: int) -> tuple:
        """Raw data row ``n`` (0-based), one cell per column (checked at
        open), as typed values in column order, None for NULL; every
        non-string cell is converted, and the first that does not convert
        fails, naming file, row and column. ``typed_block`` gives its
        messages."""
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
                    ) -> Iterator[_Block]:
        """The rows of ``lines``, data rows ``numbers``, as those ``typed``
        gives, typed a column at a time: the lines are parsed and
        transposed, and each column goes through its type's kernel, which
        gives a block's columns. When a kernel cannot vouch for a cell, the
        rows are typed in halves (``_halves``): this gives the blocks of
        the rows before the first bad row, then raises the error ``typed``
        gives for that row, so a bad cell fails only when its row is
        reached."""
        cells = self._cells(lines)

        def columns(first: int, end: int) -> list[Sequence]:
            part = cells if end - first == len(numbers) else [
                column[first:end] for column in cells]
            return [kernel(column) for kernel, column in zip(self._kernels, part)]

        for first, end, values in _halves(len(numbers), columns,
                                          (ValueError, KeyError)):
            if isinstance(values, Exception):  # a doubted row: typed alone, it fails
                values = [(value,) for value in self.typed(
                    [column[first] for column in cells], numbers[first])]
            yield _Block(numbers[first:end], values)

    def _cells(self, lines: list[bytes]) -> list[Sequence[str]]:
        """The cells of ``lines``, one sequence per column. Lines with no
        quote are split at commas in one call, and each column is a slice of
        the cells; ``csv.reader`` parses the others. Every line holds one
        record with one field per column (checked at open), and an unquoted
        field holds no comma and no line break."""
        data = b"".join(lines)
        width = len(self.columns)
        if b'"' not in data:
            text = data.decode()
            if "\r" in text:  # only before a line feed (checked at open)
                text = text.replace("\r\n", "\n")
            cells = text.removesuffix("\n").replace("\n", ",").split(",")
            if len(cells) == len(lines) * width:
                return [cells[p::width] for p in range(width)]
        return list(zip(*csv.reader(map(bytes.decode, lines))))

    def blocks(self, handle: BinaryIO, offset: int, first: int,
               count: int) -> Iterator[_Block]:
        """The ``count`` data rows at byte ``offset`` of ``handle``, a
        binary handle on this file, numbered from ``first`` (a slice of
        ``spans``), as the blocks ``typed_block`` gives, after one seek;
        while the lines are held clustered, the ``count`` of those from
        position ``first`` on."""
        if self.clustered is None:
            handle.seek(offset)
            return self._blocks(handle, range(first, first + count))
        _, data, starts, numbers, _ = self.clustered
        numbers = numbers[first:first + count]
        ends = map(starts.__getitem__, map((1).__add__, numbers))
        return self._blocks(map(data.__getitem__, map(
            slice, map(starts.__getitem__, numbers), ends)), numbers)

    def _blocks(self, lines: Iterator[bytes],
                numbers: Sequence[int]) -> Iterator[_Block]:
        """Data rows ``numbers``, whose lines ``lines`` gives in that order,
        read and typed ``_BLOCK`` at a time (``typed_block``) as they are
        taken. A record is one line (checked at open), so lines pair with
        rows."""
        for start in range(0, len(numbers), _BLOCK):
            block = numbers[start:start + _BLOCK]
            yield from self.typed_block(list(islice(lines, len(block))), block)

    def spans(self, k: int) -> list[tuple[int, int, int]]:
        """The data rows cut into ``k`` contiguous slices of about equal
        size, as (byte offset, first row, row count); a slice may be empty.
        Each cut is the first line start at or after a byte ``k``-ile: a
        record is one line (checked at open), and a line feed never occurs
        inside a UTF-8 sequence. In a file with a text index, the cut then
        moves on to the first line that starts a group (``_group_end``),
        so that a slice holds each group of equal key cells whole. Rows
        before each cut are counted in bounded chunks. While the lines are
        held clustered, the slices are of those lines instead, at offset 0,
        each cut at the first group end at or after a row-count
        ``k``-ile."""
        if self.clustered is not None:
            ends = self.clustered[4]
            firsts = [0, *(ends[bisect_left(ends, ends[-1] * i // k)]
                           for i in range(1, k)), ends[-1]]
            return [(0, first, after - first)
                    for first, after in zip(firsts, firsts[1:])]
        with open(self.path, "rb") as handle:
            cuts = [len(handle.readline())]
            size = os.fstat(handle.fileno()).st_size
            for i in range(1, k):
                target = cuts[0] + (size - cuts[0]) * i // k
                if target > cuts[-1]:
                    handle.seek(target - 1)
                    handle.readline()
                    cuts.append(self._group_end(handle, cuts[0]) if self._texts
                                else handle.tell())
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

    def _group_end(self, handle: BinaryIO, header: int) -> int:
        """The byte offset of the first line at or after the line start
        ``handle`` is at whose key cells differ from those of the line
        before it for every text index of the file: the start itself when
        the line before ends its groups, else the end of the groups that
        line lies in. The line before is found by a backward scan to the
        line feed before it, which stops at byte ``header``, the end of the
        header. Key cells are compared as ``_cells`` parses them, untyped,
        so this never fails."""
        offset = handle.tell()
        start, feed = offset - 1, -1  # back from the line feed before it
        while feed < 0 and start > header:
            handle.seek(back := max(header, start - _COUNT_CHUNK))
            feed, start = handle.read(start - back).rfind(b"\n"), back
        handle.seek(start + feed + 1)
        # the line before, then a block of lines; each block after the
        # first carries the last line of the one before it
        lines = [handle.readline(), *islice(handle, _BLOCK)]
        while len(lines) > 1:
            cells = self._cells(lines)
            keys = list(zip(*(_keys(cells, t.key_at) for t in self._texts)))
            changed = map(all, map(partial(map, ne), keys[1:], keys))
            if (end := next(compress(range(1, len(keys)), changed), None)) is not None:
                return offset + sum(map(len, lines[1:end]))
            offset += sum(map(len, lines[1:]))
            lines = [lines[-1], *islice(handle, _BLOCK)]
        return offset

    def positions(self, columns: Iterable[str]) -> list[int]:
        """The position of each of ``columns`` in a row."""
        return [self.columns.index(c) for c in columns]

    # -- indexes -------------------------------------------------------------------

    def ids_on(self, columns: tuple[str, ...], plan_for: str) -> dict[tuple, list]:
        """Covering index: typed values of ``columns`` -> identifiers
        (``record_id``) of the matching rows, in primary key order (see
        ``_Ids``). The index is planned for ``plan_for``, which names what
        needs it: it stays empty until ``index_slice`` fills it together
        with the file's other indexes of its level (level 0)."""
        if self.table.primary_key() is None:
            raise SourceError(f"table {self.table.name!r} has no primary key")
        if (ids := self._ids.get(columns)) is None:
            ids = self._ids[columns] = _Ids(self, columns)
            self._unbuilt[ids] = {}
        if ids in self._unbuilt:
            self._unbuilt[ids][plan_for] = None
        return ids.index

    def texts_on(self, columns: tuple[str, ...], order: tuple[str, ...],
                 docs: _GroupDocs, level: int, spill: BinaryIO,
                 plan_for: str) -> _Texts:
        """Text index: typed values of ``columns`` -> the text ``docs``
        builds for the group of rows holding them, sorted by ``order``, kept
        in ``spill`` (see ``_Texts``). Rows with a NULL in ``columns`` are
        left out; a NULL in one of the ``order`` columns fails. It is
        planned as ``ids_on`` plans, at ``level``: the indexes that building
        its texts probes must be built at lower levels."""
        texts = _Texts(self, columns, order, docs, level, spill)
        self._texts.append(texts)
        self._unbuilt[texts] = {plan_for: None}
        return texts

    @property
    def level(self) -> int:
        """The lowest level of the indexes still unbuilt (0 if none)."""
        return min((index.level for index in self._unbuilt), default=0)

    def _planned(self) -> list[_Ids | _Texts]:
        """The indexes still unbuilt at the lowest level, in planning order,
        or the text index the lines are held clustered for: those the next
        ``index_slice`` fills."""
        if self.clustered is not None:
            return [self.clustered[0]]
        level = self.level
        return [index for index in self._unbuilt if index.level == level]

    @property
    def planned_for(self) -> str:
        """What the indexes the next ``index_slice`` fills were planned for."""
        return ", ".join(dict.fromkeys(name for index in self._planned()
                                       for name in self._unbuilt[index]))

    def index_slice(self, span: tuple[int, int, int], out: int | None = None) -> None:
        """Fill every planned index still unbuilt at the lowest level,
        emptied first, from the data rows of ``span`` (one of ``spans``)
        alone: the first slice's part of each index, or in a forked worker
        the partial indexes of its slice, which ``merge_indexes`` joins onto
        the first slice's. One pass numbers rows from the span's first,
        types each row once and checks the key columns every index requires
        (``_key_check``), a block at a time, then hands the block to each
        index (``add``). A block with a bad cell comes as the blocks before
        its row, then the row's error (``typed_block``), so the first bad
        row fails as typing and checking each row in turn would. Text
        indexes append their groups' texts through one writer, to the spill
        or to ``out`` (a worker's part file descriptor) when given. While
        the lines are held clustered, the pass reads them and fills the one
        text index they are clustered for. A failed pass names what the
        indexes were planned for."""
        planned = self._planned()
        check = self._key_check(
            tuple(dict.fromkeys(c for index in planned for c in index.required)),
            list(dict.fromkeys(c for index in planned for c in index.joined)))
        with open(self.path, "rb") as handle, ExitStack() as stack:
            try:
                writer = stack.enter_context(open(
                    self._texts[0].spill.fileno() if out is None else out, "ab",
                    closefd=False)) if self._texts else None
                for index in planned:
                    index.start(writer)
                for block in self.blocks(handle, *span):
                    check(block)
                    for index in planned:
                        index.add(block)
                for index in planned:
                    index.close()
            except SourceError as exc:
                raise SourceError(
                    f"while indexing for {self.planned_for}: {exc}") from exc

    def merge_indexes(self, later: list[bytes], shifts: list[int] = ()) -> None:
        """Finish every planned index that ``index_slice`` fills: each joins
        onto the first slice's part of it those of the later slices, as
        ``encode_slice`` encoded them, in slice order (``merge``), texts
        moved by the slice's ``shifts`` entry, so that it is the index one
        slice over the whole file gives. Lines held clustered are dropped. A
        text index whose key has more than one group, within a slice or
        across slices, stays planned unless it was built from clustered
        lines, and the lines are clustered by the key of the first such
        index (``_cluster``)."""
        planned = self._planned()
        slices = [marshal.loads(data) for data in later]
        for p, index in enumerate(planned):
            index.merge([parts[p] for parts in slices], shifts)
        held, self.clustered = self.clustered is not None, None
        for index in planned:  # a text index is clustered at most once
            if held or not index.unclustered:
                del self._unbuilt[index]
        if again := [index for index in self._planned() if index.unclustered]:
            self._cluster(again[0])

    def _cluster(self, texts: _Texts) -> None:
        """Hold the data lines with the byte offset of each in them, the
        row numbers sorted by the key of ``texts``, stably, those with a
        NULL in it left out, and the end of each group in them, for the
        next ``index_slice`` to build ``texts`` from: its groups are then
        runs, and ``spans`` cuts at their ends. One read gathers each key's
        row numbers, keys in the order of their first rows (a counting
        sort). It types only the key's columns, a block at a time: the
        first pass has typed and checked every row already."""
        with open(self.path, "rb") as handle:
            handle.readline()  # the header
            data = handle.read()
        starts = array("q", accumulate(map(len, io.BytesIO(data)), initial=0))
        groups: defaultdict[tuple, array] = defaultdict(partial(array, "q"))
        lines = io.BytesIO(data)
        for first in range(0, self.row_count, _BLOCK):
            cells = self._cells(list(islice(lines, _BLOCK)))
            keys = zip(*(self._kernels[p](cells[p]) for p in texts.key_at))
            deque(map(array.append, map(groups.__getitem__, keys),
                      range(first, min(first + _BLOCK, self.row_count))), 0)
        numbers, ends = array("q"), array("q", [0])
        for key, rows in groups.items():  # in the order of their first rows
            if None not in key:
                numbers.extend(rows)
                ends.append(len(numbers))
        self.clustered = (texts, data, starts, numbers, ends)
        texts.unclustered = False

    def encode_slice(self) -> bytes:
        """The planned indexes that ``index_slice`` fills, as it filled them
        from one slice, each as its ``encode`` gives it, in one flat
        ``marshal`` encoding."""
        return marshal.dumps([index.encode() for index in self._planned()])

    def _key_check(self, columns: tuple[str, ...], joined: list[str]
                   ) -> Callable[[_Block], None]:
        """Block check that fails on its first row holding a NULL in
        ``columns`` or ``#`` in a value of ``joined`` (text components of
        ``#``-joined identifiers, some of ``columns``), naming the row and,
        within it, the NULL first: the first NULL of each column, then a
        ``#`` before the first of them, found a column at a time."""
        required, texts = self.positions(columns), self.positions(joined)

        def check(block: _Block) -> None:
            values = block.columns
            # the first row with a NULL, and the first column holding it there
            end, j = min(((values[p].index(None), j) for j, p in enumerate(required)
                          if None in values[p]), default=(len(block.numbers), None))
            if hashed := [next(i for i, value in enumerate(values[p][:end])
                               if KEY_SEPARATOR in value) for p in texts
                          if KEY_SEPARATOR in "".join(values[p][:end])]:
                row = min(hashed)
                raise SourceError(
                    f"{self.path.name} (row {block.numbers[row] + 1}), "
                    + separator_message(joined, [values[p][row] for p in texts]))
            if j is not None:
                column = columns[j]
                raise SourceError(
                    f"{self.path.name} (row {block.numbers[end] + 1}), column "
                    f"{column!r}: NULL key value for {self.table.name}.{column}")

        return check


@record(frozen=True)
class _Link:
    """A related feature resolved against the schema: it reaches the rows of
    ``file`` whose ``index`` columns equal the current record's ``probe``
    columns, ordered by ``order`` when read as records."""

    type_name: str
    file: _TableFile
    probe: tuple[str, ...]
    index: tuple[str, ...]
    order: tuple[str, ...]


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
                     tuple(index), tuple(order))

    def file_for(self, table_name: str) -> _TableFile:
        return self._files[table_name]

    def indexed_files(self) -> list[_TableFile]:
        """The files with planned indexes still unbuilt, in schema order."""
        return [file for file in self._files.values() if file._unbuilt]

    def spill(self) -> BinaryIO:
        """The unnamed file that holds every text index's texts, made on
        first use in ``spill_dir`` (the system's temporary directory when
        None) and closed with the session."""
        if self._spill is None:
            self._spill = tempfile.TemporaryFile(dir=self.spill_dir)
        return self._spill

    def close(self) -> None:
        self.open = False
        self.live_records = 0
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
        reference's target (zero or one). One scan of the reached file
        reads them; like an index pass, it fails on a bad cell or a NULL
        order value in any row."""
        self.session._check_open()
        record = self.record()
        link = self.session.link(self.type_name, self.table, feature_name)
        file, probe = link.file, tuple(record[c] for c in link.probe)
        index_at, check = file.positions(link.index), file._key_check(link.order, [])
        group = []
        try:
            with open(file.path, "rb") as handle:
                for block in file.blocks(handle, *file.spans(1)[0]):
                    check(block)
                    if None not in probe:
                        group += compress(block, map(probe.__eq__,
                                                     _keys(block.columns, index_at)))
        except SourceError as exc:
            raise SourceError(f"while indexing for feature {self.type_name}."
                              f"{feature_name}: {exc}") from exc
        if link.order:
            group.sort(key=itemgetter(*file.positions(link.order)))
        records = [dict(zip(file.columns, row)) for row in group]
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
            for row in chain.from_iterable(file.blocks(handle, *file.spans(1)[0])):
                yield dict(zip(file.columns, row))

    return SourceCursor(session, name, table, records())
