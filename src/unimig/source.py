"""Streaming, model-independent access to a file-backed relational source.

A source dataset is a directory holding ``schema.sql`` plus one
``<table>.csv`` per table (UTF-8, header row naming the columns in table
order, empty field = NULL; fields must not contain line breaks). Opening a
source checks every file once: the header, the field count of each record,
that no record spans lines, and that every line ends with a line feed.

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
reference reads no row of the table it points at. Indexes can be planned
before they are used (``plan_for`` names what needs them): the session's
``build_indexes`` then fills every planned index of each file in one
streaming pass that types each row once, and fails, naming file, row and
column and what the indexes were planned for, on a bad cell, a NULL
primary key value (which a covering index would store), a text component of
a composite primary key holding ``#`` (two stored identifiers could
collide) or a NULL order value (which child groups are sorted by).

The session resolves pivot-model features (attributes, keys, references,
aggregates) to tables, columns and foreign keys by looking them up in the
forward trace on each call; the migrator does so once per collection, when
it compiles its executor over these files. Cursors serve the same rows as
features, so callers never mention tables or joins::

    cursor = read_entity_all(session, entity)
    while cursor.has_data():
        ... cursor_value(cursor, attr) ...
        cursor_advance(cursor)

The session counts the records read and the most held at once
(``peak_live_records``).
"""

from __future__ import annotations

import csv
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import islice
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
from unimig.uschema.model import Aggregate, Attribute, Key, Reference, SchemaType

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


class _TableFile:
    """One CSV file: validation and row counting at open, schema-aware
    parsing, and the run and covering id indexes, planned on demand and
    built together in one pass."""

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
                    raise SourceError(self._width_message(row, n))
        raise SourceError(f"{self.path.name}: records and lines disagree")

    def _width_message(self, row: list[str], n: int) -> str:
        return (f"{self.path.name} (row {n + 1}): expected {len(self.columns)} "
                f"fields, found {len(row)}")

    def typed(self, row: list[str], n: int) -> list:
        """Raw data row ``n`` (0-based) as typed values in column order, None
        for NULL; every non-string cell is converted."""
        if len(row) != len(self.columns):
            raise SourceError(self._width_message(row, n))
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

    def typed_rows(self) -> Iterator[tuple[int, list]]:
        """Every data row in file order, numbered and typed."""
        with open(self.path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            for n, row in enumerate(reader):
                yield n, self.typed(row, n)

    def getter(self, columns: Iterable[str]) -> Callable[[list], tuple]:
        """Function from a row to the tuple of its values in ``columns``."""
        positions = [self.columns.index(c) for c in columns]
        if len(positions) == 1:
            return lambda row, p=positions[0]: (row[p],)
        return itemgetter(*positions) if positions else lambda row: ()

    # -- indexes -------------------------------------------------------------------

    def runs_on(self, columns: tuple[str, ...], order: tuple[str, ...] = (),
                plan_for: str | None = None) -> _Runs:
        """Run index: typed values of ``columns`` -> the runs of consecutive
        rows holding them, as flat ``(byte offset, first row, row count)``
        triples in file order. A file clustered by ``columns`` has one run
        per key. Rows with a NULL in ``columns`` are left out; a NULL in one
        of the ``order`` columns, which groups are sorted by, fails. With
        ``plan_for``, which names what needs it, the index is only planned:
        it stays empty until ``build_indexes`` fills it together with the
        file's other indexes."""
        return self._index(self._runs, "runs", (columns, order), plan_for)

    def ids_on(self, columns: tuple[str, ...],
               plan_for: str | None = None) -> dict[tuple, list]:
        """Covering index: typed values of ``columns`` -> identifiers
        (``record_id``) of the matching rows, in primary key order. Rows
        with a NULL in ``columns`` are left out; a NULL primary key value
        fails. ``plan_for`` is as for ``runs_on``."""
        if self.table.primary_key() is None:
            raise SourceError(f"table {self.table.name!r} has no primary key")
        return self._index(self._id_indexes, "ids", columns, plan_for)

    def _index(self, indexes: dict, kind: str, key: tuple,
               plan_for: str | None) -> dict:
        index = indexes.get(key)
        if index is None:
            index = indexes[key] = {}
            self._unbuilt.append((kind, key))
        if plan_for is None:
            self.build_indexes()
        else:
            self._planned_for[plan_for] = None
        return index

    def build_indexes(self) -> None:
        """Fill every planned index that is still empty in one pass over the
        file, typing each row once and checking the key columns the indexes
        rely on: the primary key for covering indexes, the order columns
        for run indexes. A failed pass names what the indexes were planned
        for."""
        planned_for, self._planned_for = ", ".join(self._planned_for), {}
        if not self._unbuilt:
            return
        required: dict[str, None] = {}
        joined: list[str] = []  # text components of #-joined identifiers
        fills, finishes = [], []
        for kind, key in self._unbuilt:
            if kind == "ids":
                pk = self.table.primary_key().columns
                required.update(dict.fromkeys(pk))
                if len(pk) > 1:
                    joined = [c for c in pk
                              if self.types[self.columns.index(c)] is str]
                fill, finish = self._ids_fill(key)
                finishes.append(finish)
            else:
                required.update(dict.fromkeys(key[1]))
                fill = self._runs_fill(*key)
            fills.append(fill)
        if required:
            fills.insert(0, self._key_check(tuple(required), joined))
        with open(self.path, "rb") as handle:
            start = [len(handle.readline())]

            def lines() -> Iterator[str]:
                # a record is one line (checked at open), so csv asks for
                # the next line only once the current row is handled
                for line in handle:
                    yield line.decode("utf-8")
                    start[0] += len(line)

            try:
                for n, row in enumerate(csv.reader(lines())):
                    row = self.typed(row, n)
                    for fill in fills:
                        fill(row, n, start[0])
            except SourceError as exc:
                if planned_for:
                    raise SourceError(
                        f"while indexing for {planned_for}: {exc}") from exc
                raise
        for finish in finishes:
            finish()
        self._unbuilt.clear()

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

    def _ids_fill(self, columns: tuple[str, ...]) -> tuple[_Fill, Callable[[], None]]:
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

        def finish() -> None:
            for pks in groups.values():
                pks.sort()  # as key tuples: (1, 9) before (1, 10)
                if len(pk) > 1:
                    pks[:] = map(record_id, pks)

        return fill, finish

    def read(self, runs: Iterable[int]) -> list[tuple[int, list]]:
        """Numbered typed rows of ``runs`` (flat triples as ``runs_on``
        stores them): one seek per run and one line read per row, through
        one open handle that the session closes."""
        handle = self._handle = self._handle or open(self.path, "rb")
        out = []
        triples = iter(runs)
        for offset, first, count in zip(triples, triples, triples):
            handle.seek(offset)
            lines = map(bytes.decode, islice(handle, count))
            for n, row in enumerate(csv.reader(lines), first):
                out.append((n, self.typed(row, n)))
        return out

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@dataclass(frozen=True)
class _Link:
    """A related feature resolved against the schema: it reaches the rows of
    ``file`` whose ``index`` columns equal the current record's ``probe``
    columns, ordered by ``order`` when read as records."""

    role: str
    type_name: str
    file: _TableFile
    probe: tuple[str, ...]
    index: tuple[str, ...]
    order: tuple[str, ...]
    order_of: Callable[[list], tuple]

    def group(self, probe: tuple) -> list[tuple[int, list]]:
        """Numbered typed rows reached from a record whose probe columns
        hold ``probe`` (none if it holds a NULL), read through the run
        index and sorted by ``order``."""
        order_of, index = self.order_of, self.file.runs_on(self.index, self.order)
        rows = self.file.read(() if None in probe else index.get(probe, ()))
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
        return _Link(role, stored or reached.name, file, tuple(probe),
                     tuple(index), tuple(order), file.getter(order))

    def file_for(self, table_name: str) -> _TableFile:
        return self._files[table_name]

    def build_indexes(self) -> None:
        """Fill every planned index, one pass per file; a file with nothing
        planned is not read."""
        for file in self._files.values():
            file.build_indexes()

    def close(self) -> None:
        self.open = False
        self.live_records = 0
        for file in self._files.values():
            file.close()


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
    """Validate the dataset directory against ``schema`` and open a session."""
    root = Path(root)
    ddl_path = root / "schema.sql"
    if not ddl_path.exists():
        raise SourceError(f"missing {ddl_path}")
    from unimig.relational.ddl import parse_ddl

    on_disk = parse_ddl(ddl_path.read_text(encoding="utf-8"), name=schema.name)
    disk_shape = {t.name: [c.name for c in t.columns] for t in on_disk.tables}
    want_shape = {t.name: [c.name for c in t.columns] for t in schema.tables}
    if disk_shape != want_shape:
        raise SourceError(
            f"{ddl_path} disagrees with the expected schema "
            f"(tables {sorted(disk_shape)} vs {sorted(want_shape)})")

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

    def raw_value(self, column: str) -> object:
        record = self.record()
        if column not in record:
            raise SourceError(
                f"table {self.table.name!r} has no column {column!r}")
        return record[column]

    # -- feature access ----------------------------------------------------------

    def value(self, feature: Attribute | Key) -> object:
        if isinstance(feature, Attribute):
            return self.attr_value(feature.name)
        if isinstance(feature, Key):
            return self.key_value(feature.name)
        raise SourceError(f"cursor values exist for attributes and keys, "
                          f"not {type(feature).__name__}")

    def attr_value(self, name: str) -> object:
        self.session._check_open()
        record = self.record()
        return record[self.session.column_of(self.type_name, self.table, name)]

    def key_value(self, name: str) -> object:
        self.session._check_open()
        record = self.record()
        source = self.session._traced(f"us:{self.type_name}.{name}", "R4")
        if source[0] != self.table.name:
            raise SourceError(
                f"key {name!r} does not belong to {self.type_name!r}")
        rkey = self.table.key(source[1])
        values = tuple(record[c] for c in rkey.columns)
        return values[0] if len(values) == 1 else values

    def id_values(self) -> tuple:
        """Primary key values of the current record, in key column order."""
        record = self.record()
        pk = self.table.primary_key()
        if pk is None:
            raise SourceError(f"table {self.table.name!r} has no primary key")
        return tuple(record[c] for c in pk.columns)

    def related(self, feature: Reference | Aggregate) -> "SourceCursor":
        return self.related_by_name(feature.name)

    def _probe(self, feature_name: str) -> tuple[_Link, tuple]:
        """The resolved feature and the current record's join-key values."""
        self.session._check_open()
        record = self.record()
        link = self.session.link(self.type_name, self.table, feature_name)
        return link, tuple(record[c] for c in link.probe)

    def related_by_name(self, feature_name: str) -> "SourceCursor":
        """Cursor over the records a related feature reaches from the
        current record: aggregate children and relationship rows in key
        order, reverse references in primary key order, a forward
        reference's target (zero or one)."""
        link, probe = self._probe(feature_name)
        columns = link.file.columns
        records = [dict(zip(columns, row)) for _, row in link.group(probe)]
        self.session._records_born(len(records))
        return SourceCursor(self.session, link.type_name, link.file.table,
                            records, preloaded=len(records))

    def related_ids(self, feature_name: str) -> list:
        """Identifiers (``record_id``) of the rows a forward or reverse
        reference reaches from the current record, in primary key order,
        read from a covering index without parsing those rows."""
        link, probe = self._probe(feature_name)
        if link.role not in (REF_FORWARD, REF_REVERSE):
            raise SourceError(
                f"feature {self.type_name}.{feature_name} is not a reference")
        ids = () if None in probe else link.file.ids_on(link.index).get(probe, ())
        return list(ids)  # a NULL joins nothing


def read_entity_all(session: SourceSession, schema_type: SchemaType | str) -> SourceCursor:
    """Cursor over every stored instance of an entity or relationship type,
    in file order."""
    session._check_open()
    name = schema_type if isinstance(schema_type, str) else schema_type.name
    table = session.table_for(name)
    file = session.file_for(table.name)
    records = (dict(zip(file.columns, row)) for _, row in file.typed_rows())
    return SourceCursor(session, name, table, records)


def cursor_value(cursor: SourceCursor, feature: Attribute | Key) -> object:
    return cursor.value(feature)


def cursor_related(cursor: SourceCursor, feature: Reference | Aggregate) -> SourceCursor:
    return cursor.related(feature)


def cursor_advance(cursor: SourceCursor) -> bool:
    return cursor.advance()


def close(target: SourceSession | SourceCursor) -> None:
    """Idempotent close for sessions and cursors."""
    target.close()
