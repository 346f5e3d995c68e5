"""Streaming, model-independent access to a file-backed relational source.

A source dataset is a directory holding ``schema.sql`` plus one
``<table>.csv`` per table (UTF-8, header row naming the columns in table
order, empty field = NULL; fields must not contain line breaks). Cursors
expose pivot-model features — attributes, keys, references, aggregates —
and resolve them against concrete tables and foreign keys through the
trace recorded by the forward transformation, so callers never mention
tables or joins.

Iteration idiom::

    cursor = read_entity_all(session, entity)
    while cursor.has_data():
        ... cursor_value(cursor, attr) ...
        cursor_advance(cursor)

Opening a source checks every file once: the header, the field count of
each record, and that no record spans lines. Full-table cursors then
stream straight off the file. Each related feature is resolved once per
session to the file it reaches and the join columns of the lookup.

* Reference identifiers (``related_ids``) come from a covering index that
  maps typed join-key values to the identifiers of the matching rows, so
  a reference reads no row of the table it points at.
* Related records (``related``) go through a hash index from join-key
  values to row numbers; the rows are read by byte offset through one
  open handle per table, which the session closes. Only one parent record
  and one child batch are materialized at a time; the session counts live
  records (``peak_live_records``) to make that property testable.

Integers are range-checked against their declared SQL type as rows are
read; a value that does not convert names its file, row and column.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
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
        value = int(text)
        if low <= value <= high:
            return value
        raise SourceError(f"{value} is out of {base} range [{low}, {high}]")

    return convert


def _converter(datatype: SqlType) -> Callable[[str], object]:
    if datatype.base in _INT_RANGES:
        return _ranged_int(datatype.base)
    kind = rel_to_us_type(datatype).kind
    if kind in ("Double", "Decimal"):
        return float
    if kind == "Boolean":
        return _bool
    return str  # String, Date


class _TableFile:
    """One CSV file: validation and row counting at open, schema-aware
    parsing, and the offset, row-number and covering id indexes built on
    demand."""

    def __init__(self, session: "SourceSession", table: Table, path: Path):
        self.session = session
        self.table = table
        self.path = path
        self.columns = [c.name for c in table.columns]
        self.converters = [_converter(c.datatype) for c in table.columns]
        self.row_count = self._validate_and_count()
        self._offsets: list[int] | None = None
        self._indexes: dict[tuple[str, ...], dict[tuple, list[int]]] = {}
        self._id_indexes: dict[tuple[str, ...], dict[tuple, list]] = {}
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

    def _rows(self) -> Iterator[tuple[int, list[str]]]:
        """Numbered raw records, each checked for its field count."""
        width = len(self.columns)
        with open(self.path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            for n, row in enumerate(reader):
                if len(row) != width:
                    raise SourceError(self._width_message(row, n))
                yield n, row

    def _cell_error(self, row: list[str], n: int, exc: Exception) -> SourceError:
        for name, convert, cell in zip(self.columns, self.converters, row):
            if cell != "":
                try:
                    convert(cell)
                except (ValueError, SourceError) as err:
                    return SourceError(
                        f"{self.path.name} (row {n + 1}), column {name!r}: {err}")
        return SourceError(f"{self.path.name} (row {n + 1}): {exc}")

    def parse(self, row: list[str], n: int) -> dict[str, object]:
        """Typed record of data row ``n`` (0-based)."""
        if len(row) != len(self.columns):
            raise SourceError(self._width_message(row, n))
        try:
            record = {name: None if cell == "" else convert(cell)
                      for name, convert, cell
                      in zip(self.columns, self.converters, row)}
        except (ValueError, SourceError) as exc:
            raise self._cell_error(row, n, exc) from exc
        self.session._record_born()
        return record

    def stream(self) -> Iterable[dict[str, object]]:
        for n, row in self._rows():
            yield self.parse(row, n)

    def _typed(self, columns: tuple[str, ...] | list[str]
               ) -> Callable[[list[str]], tuple]:
        """Function from a raw row to the typed values of ``columns``."""
        picks = [(self.columns.index(c), self.converters[self.columns.index(c)])
                 for c in columns]
        return lambda row: tuple(None if row[p] == "" else convert(row[p])
                                 for p, convert in picks)

    # -- indexes -------------------------------------------------------------------

    def offsets(self) -> list[int]:
        if self._offsets is None:
            out: list[int] = []
            with open(self.path, "rb") as handle:
                pos = len(handle.readline())
                for line in handle:
                    out.append(pos)
                    pos += len(line)
            if len(out) != self.row_count:
                raise SourceError(
                    f"{self.path.name}: {len(out)} lines for {self.row_count} "
                    "records; lines must end with a line feed")
            self._offsets = out
        return self._offsets

    def index_on(self, columns: tuple[str, ...]) -> dict[tuple, list[int]]:
        """Hash index: typed values of ``columns`` -> row numbers."""
        index = self._indexes.get(columns)
        if index is None:
            key_of = self._typed(columns)
            index = {}
            for n, row in self._rows():
                try:
                    key = key_of(row)
                except (ValueError, SourceError) as exc:
                    raise self._cell_error(row, n, exc) from exc
                index.setdefault(key, []).append(n)
            self._indexes[columns] = index
        return index

    def ids_on(self, columns: tuple[str, ...]) -> dict[tuple, list]:
        """Covering index: typed values of ``columns`` -> identifiers
        (``record_id``) of the matching rows, in primary key order. Rows
        with a NULL in ``columns`` are left out."""
        index = self._id_indexes.get(columns)
        if index is None:
            pk = self.table.primary_key()
            if pk is None:
                raise SourceError(f"table {self.table.name!r} has no primary key")
            key_of, pk_of = self._typed(columns), self._typed(pk.columns)
            groups: dict[tuple, list] = {}
            for n, row in self._rows():
                try:
                    key, pk_values = key_of(row), pk_of(row)
                except (ValueError, SourceError) as exc:
                    raise self._cell_error(row, n, exc) from exc
                if None not in key:
                    groups.setdefault(key, []).append(pk_values)
            for pks in groups.values():
                pks.sort()  # as key tuples: (1, 9) before (1, 10)
                pks[:] = map(record_id, pks)
            index = self._id_indexes[columns] = groups
        return index

    # -- random access -------------------------------------------------------------

    def fetch(self, row_numbers: list[int]) -> list[dict[str, object]]:
        if not row_numbers:
            return []
        offsets = self.offsets()
        if self._handle is None:
            self._handle = open(self.path, "rb")
        handle = self._handle
        lines = []
        for n in row_numbers:
            handle.seek(offsets[n])
            lines.append(handle.readline().decode("utf-8"))
        return [self.parse(row, n)
                for n, row in zip(row_numbers, csv.reader(lines))]

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
        self._type_to_table: dict[str, str] = {}
        self._table_to_type: dict[str, str] = {}
        self._attr_to_column: dict[tuple[str, str], tuple[str, str]] = {}
        self._key_to_rkey: dict[tuple[str, str], tuple[str, str]] = {}
        self._feature_links: dict[tuple[str, str], tuple[str, str | None, str]] = {}
        self._links: dict[tuple[str, str], _Link] = {}
        self._sides: dict[tuple[str, str], list[str]] = {}
        self._scan_trace()

    # -- bookkeeping ---------------------------------------------------------

    def _record_born(self) -> None:
        self.live_records += 1
        self.records_read += 1
        if self.live_records > self.peak_live_records:
            self.peak_live_records = self.live_records

    def _records_released(self, n: int) -> None:
        self.live_records = max(0, self.live_records - n)

    def _check_open(self) -> None:
        if not self.open:
            raise SourceError("source session is closed")

    # -- trace resolution ------------------------------------------------------

    def _scan_trace(self) -> None:
        for link in self.t1.links:
            src = id_segments(link.sources[0])
            tgt = id_segments(link.targets[0])
            if link.rule == "R2":
                self._type_to_table[tgt[0]] = src[0]
                self._table_to_type[src[0]] = tgt[0]
            elif link.rule == "R3":
                self._attr_to_column[(tgt[0], tgt[1])] = (src[0], src[1])
            elif link.rule == "R4":
                self._key_to_rkey[(tgt[0], tgt[1])] = (src[0], src[1])
            elif link.rule in ("R5", "R6") and link.role in (
                    AGGREGATE_CHILD, REL_TYPE_SIDE):
                table, fk = id_segments(link.sources[0])[0], None
                if len(link.sources) > 1:
                    fk = id_segments(link.sources[1])[1]
                self._feature_links[(tgt[0], tgt[1])] = (table, fk, link.role)
            elif link.rule in ("R7.1", "R7.2") and link.role in (
                    REF_FORWARD, REF_REVERSE):
                table, fk = src[0], src[1]
                self._feature_links[(tgt[0], tgt[1])] = (table, fk, link.role)

    def table_for(self, type_name: str) -> Table:
        table_name = self._type_to_table.get(type_name)
        if table_name is None:
            raise SourceError(f"no table traces to schema type {type_name!r}")
        return self.schema.table(table_name)

    def side_columns(self, owner_type: str, ref_name: str) -> list[str]:
        """Columns of the foreign key behind one side of a relationship type,
        i.e. where an associative row stores that side's identifier."""
        columns = self._sides.get((owner_type, ref_name))
        if columns is None:
            hit = self._feature_links.get((owner_type, ref_name))
            if hit is None or hit[2] != REL_TYPE_SIDE:
                raise SourceError(
                    f"{owner_type}.{ref_name} is not a relationship side")
            table_name, fk_name, _ = hit
            fk = _fk(self.schema.table(table_name), fk_name)
            columns = self._sides[(owner_type, ref_name)] = list(fk.columns)
        return columns

    def link(self, type_name: str, table: Table, feature_name: str) -> _Link:
        """Feature ``feature_name`` of ``type_name`` (stored in ``table``)
        resolved to the rows it reaches; computed once per session."""
        link = self._links.get((type_name, feature_name))
        if link is None:
            link = self._links[(type_name, feature_name)] = self._resolve(
                type_name, table, feature_name)
        return link

    def _resolve(self, type_name: str, table: Table, feature_name: str) -> _Link:
        hit = self._feature_links.get((type_name, feature_name))
        if hit is None:
            raise SourceError(
                f"feature {type_name}.{feature_name} carries no data-access "
                "role in the trace")
        table_name, fk_name, role = hit
        holder = self.schema.table(table_name)
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
        return _Link(role, self._table_to_type.get(reached.name, reached.name),
                     self._files[reached.name], tuple(probe), tuple(index),
                     tuple(order))

    def file_for(self, table_name: str) -> _TableFile:
        return self._files[table_name]

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
        session._files[table.name] = _TableFile(session, table, path)
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
        self.position = -1
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
            self.position += 1
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
        hit = self.session._attr_to_column.get((self.type_name, name))
        if hit is None or hit[0] != self.table.name:
            raise SourceError(
                f"attribute {name!r} does not belong to {self.type_name!r} "
                "(or is reference-owned)")
        return record[hit[1]]

    def key_value(self, name: str) -> object:
        self.session._check_open()
        record = self.record()
        hit = self.session._key_to_rkey.get((self.type_name, name))
        if hit is None or hit[0] != self.table.name:
            raise SourceError(
                f"key {name!r} does not belong to {self.type_name!r}")
        rkey = self.table.key(hit[1])
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

    def _probe(self, feature_name: str) -> tuple[_Link, tuple | None]:
        """The resolved feature and the current record's join-key values,
        or None when one of them is NULL (a NULL joins nothing)."""
        self.session._check_open()
        record = self.record()
        link = self.session.link(self.type_name, self.table, feature_name)
        probe = tuple(record[c] for c in link.probe)
        return link, None if None in probe else probe

    def related_by_name(self, feature_name: str) -> "SourceCursor":
        """Cursor over the records a related feature reaches from the
        current record: aggregate children and relationship rows in key
        order, reverse references in primary key order, a forward
        reference's target (zero or one)."""
        link, probe = self._probe(feature_name)
        rows = [] if probe is None else link.file.index_on(link.index).get(probe, [])
        records = link.file.fetch(rows)
        if link.order:
            records.sort(key=lambda r: tuple(r[c] for c in link.order))
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
        if probe is None:
            return []
        return list(link.file.ids_on(link.index).get(probe, ()))


def read_entity_all(session: SourceSession, schema_type: SchemaType | str) -> SourceCursor:
    """Cursor over every stored instance of an entity or relationship type,
    in file order."""
    session._check_open()
    name = schema_type if isinstance(schema_type, str) else schema_type.name
    table = session.table_for(name)
    return SourceCursor(session, name, table, session.file_for(table.name).stream())


def cursor_value(cursor: SourceCursor, feature: Attribute | Key) -> object:
    return cursor.value(feature)


def cursor_related(cursor: SourceCursor, feature: Reference | Aggregate) -> SourceCursor:
    return cursor.related(feature)


def cursor_advance(cursor: SourceCursor) -> bool:
    return cursor.advance()


def close(target: SourceSession | SourceCursor) -> None:
    """Idempotent close for sessions and cursors."""
    target.close()
