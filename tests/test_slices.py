"""Row slices: ``_TableFile.spans`` cuts a file's data rows into contiguous
slices, and ``migrate`` writes slice ``i`` of every collection in process
``i``. The output, the report's counters and every failure must be what
one process writes, whatever the number of slices."""

from __future__ import annotations

import csv
import json
import os
import shutil
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from util import FIXTURES

import unimig.migrator
from unimig.errors import MigrationError, SourceError
from unimig.migrator import migrate
from unimig.relational.ddl import parse_ddl
from unimig.source import SourceSession, _TableFile, open_source
from unimig.transforms import rel_to_uschema, uschema_to_document


@pytest.fixture(autouse=True)
def no_worker_left():
    yield
    # every forked worker was reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# --- spans -----------------------------------------------------------------------

_TABLE = parse_ddl("CREATE TABLE t (id INT PRIMARY KEY, s VARCHAR(99));").table("t")
# commas and quotes that csv quotes, and multi-byte UTF-8 sequences
_TEXT = st.text(st.sampled_from(list("ab ,\"'") + ["é", "中", "\U0001f600"]),
                max_size=12)


def _table_file(root: Path, texts: list[str], line_end: str = "\n",
                last_line_end: bool = True) -> _TableFile:
    path = root / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle, lineterminator=line_end)
        out.writerow(["id", "s"])
        out.writerows([n, text] for n, text in enumerate(texts))
    if not last_line_end:
        path.write_bytes(path.read_bytes()[:-len(line_end)])
    return _TableFile(_TABLE, path)


def _check_spans(file: _TableFile, k: int) -> list:
    spans = file.spans(k)
    assert len(spans) == k
    # the byte offset of each data row, then the file's size
    with open(file.path, "rb") as handle:
        starts = [len(handle.readline())]
        for line in handle:
            starts.append(starts[-1] + len(line))
    rows = []
    for offset, first, count in spans:
        assert first == len(rows)  # contiguous: the rows before it, counted
        assert offset == starts[first]  # the start of its first row
        rows += file.typed_rows((offset, first, count))
        assert len(rows) == first + count
    assert rows == list(file.typed_rows())  # each row once, in order
    assert len(rows) == file.row_count
    return spans


@settings(max_examples=200, deadline=None)
@given(st.lists(_TEXT, max_size=10), st.sampled_from([1, 2, 3, 5]),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
@example([], 2, "\n", True)
@example(["a"], 5, "\n", True)
@example(["a", "b", "c"], 2, "\n", False)
def test_spans_cover_every_row_once_in_order(tmp_path_factory, texts, k,
                                             line_end, last_line_end):
    root = tmp_path_factory.mktemp("t")
    _check_spans(_table_file(root, texts, line_end, last_line_end), k)


def test_cut_on_a_line_start(tmp_path):
    # "id,s\n" then two rows of 4 bytes: the midpoint is the second row's start
    file = _table_file(tmp_path, ["a", "b"])
    assert _check_spans(file, 2) == [(5, 0, 1), (9, 1, 1)]


def test_cut_inside_a_multibyte_character(tmp_path):
    # the midpoint falls inside the first row's 4-byte characters
    file = _table_file(tmp_path, ["\U0001f600" * 6, "é,中"])
    spans = _check_spans(file, 2)
    assert spans[1][1] == 1
    assert [row for _, row in file.typed_rows(spans[1])] == [[1, "é,中"]]


def test_more_slices_than_rows(tmp_path):
    spans = _check_spans(_table_file(tmp_path, ["x"]), 5)
    assert sum(count > 0 for _, _, count in spans) == 1


# --- the same output from any number of slices ------------------------------------

def _counters(value):
    """A manifest without its timings."""
    if isinstance(value, dict):
        return {key: _counters(v) for key, v in value.items()
                if key not in ("elapsedMs", "throughputRowsPerS")}
    return value


def _migrate(root: Path, out: Path, k: int,
             monkeypatch) -> tuple[SourceSession, str | None]:
    """Migrate ``root`` in ``k`` slices: the session it read, and the
    error, if any."""
    monkeypatch.setattr(unimig.migrator, "_cpus", lambda: k)
    schema = parse_ddl((root / "schema.sql").read_text())
    step1 = rel_to_uschema(schema)
    step2 = uschema_to_document(step1.target)
    session = open_source(root, schema, step1.trace)
    try:
        migrate(step2.target, step2.trace, session, out)
    except MigrationError as exc:
        return session, str(exc)
    return session, None


def _run(root: Path, out: Path, k: int, monkeypatch) -> tuple[dict, str | None]:
    """Migrate ``root`` in ``k`` slices: every output file's bytes (the
    manifest without its timings) and the error, if any."""
    error = _migrate(root, out, k, monkeypatch)[1]
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            files[path.name] = _counters(json.loads(path.read_text()))
        else:
            files[path.name] = path.read_bytes()
    return files, error


def _sparse_mini(root: Path) -> Path:
    """mini_data with an empty and a one-row table, and a file whose last
    line lacks its line feed."""
    shutil.copytree(FIXTURES / "music_streaming" / "mini_data", root)
    for name, keep in (("musical_style", 0), ("song_style", 1)):
        path = root / f"{name}.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1 + keep]) + "\n")
    path = root / "listening.csv"
    path.write_text(path.read_text().rstrip("\n"))
    return root


@pytest.mark.parametrize("dataset", ["mini", "sparse", "northwind"])
def test_output_identical_for_any_slice_count(tmp_path, monkeypatch, dataset):
    root = {"mini": FIXTURES / "music_streaming" / "mini_data",
            "northwind": FIXTURES / "northwind" / "data_1x"}.get(dataset)
    root = root or _sparse_mini(tmp_path / "sparse")
    serial, error = _run(root, tmp_path / "out1", 1, monkeypatch)
    assert error is None and "manifest.json" in serial
    for k in (2, 3):
        assert _run(root, tmp_path / f"out{k}", k, monkeypatch) == (serial, None)


def test_one_slice_forks_nothing(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    _, error = _run(FIXTURES / "music_streaming" / "mini_data",
                    tmp_path / "out", 1, monkeypatch)
    assert error is None


def test_one_slice_while_other_threads_run(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert unimig.migrator._cpus() == 1
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()
    assert unimig.migrator._cpus() == 3


# --- failures end as the serial run ends -----------------------------------------

# a embeds its b rows; nothing indexes a or c, so a bad cell there fails
# only when its collection is written
_DDL = ("CREATE TABLE a (id INT PRIMARY KEY, v INT);"
        "CREATE TABLE b (id INT PRIMARY KEY, a_id INT, note VARCHAR(20),"
        " FOREIGN KEY (a_id) REFERENCES a (id));"
        "CREATE TABLE c (id INT PRIMARY KEY, w VARCHAR(20));")


def _dataset(root: Path, bad: dict[tuple[str, int], str]) -> Path:
    """12 rows of a and c, 24 of b; ``bad`` replaces the line of a row
    (1-based) of a table."""
    root.mkdir()
    (root / "schema.sql").write_text(_DDL)
    rows = {"a": ["id,v"] + [f"{n},{n * 10}" for n in range(1, 13)],
            "b": ["id,a_id,note"] + [f"{n},{n % 12 + 1},n{n}"
                                     for n in range(1, 25)],
            "c": ["id,w"] + [f"{n},\"wé,{n}\"" for n in range(1, 13)]}
    for (table, row), line in bad.items():
        rows[table][row] = line
    for table, lines in rows.items():
        (root / f"{table}.csv").write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")
    return root


@pytest.mark.parametrize("bad,message", [
    # the second slice of the first collection
    ({("a", 9): "9,x"},
     "while migrating collection 'a': a.csv (row 9), column 'v': invalid "
     "literal for int() with base 10: 'x'"),
    # the second slice of a later collection
    ({("c", 9): "q,w"},
     "while migrating collection 'c': c.csv (row 9), column 'id': invalid "
     "literal for int() with base 10: 'q'"),
    # a NULL key in a worker's slice of a later collection
    ({("c", 10): ",w"},
     "while migrating collection 'c': c.csv (row 10), column 'id': NULL key "
     "value for c.id"),
    # the parent fails later in schema order than a worker
    ({("a", 11): "11,x", ("c", 2): "z,w"},
     "while migrating collection 'a': a.csv (row 11), column 'v': invalid "
     "literal for int() with base 10: 'x'"),
    # both slices of one collection fail: the lower slice is the serial error
    ({("c", 3): "y,w", ("c", 11): ",w"},
     "while migrating collection 'c': c.csv (row 3), column 'id': invalid "
     "literal for int() with base 10: 'y'"),
], ids=["first-collection", "later-collection", "null-key", "parent-later",
        "lowest-slice"])
def test_failure_ends_as_serial_run(tmp_path, monkeypatch, bad, message):
    root = _dataset(tmp_path / "data", bad)
    serial = _run(root, tmp_path / "out1", 1, monkeypatch)
    assert serial[1] == message
    kept = {"a": [], "c": ["a.jsonl", "b.jsonl"]}[message.split("'")[1]]
    assert list(serial[0]) == kept
    for k in (2, 3):
        assert _run(root, tmp_path / f"out{k}", k, monkeypatch) == serial


def test_worker_that_dies_is_named(tmp_path, monkeypatch):
    write_slice = unimig.migrator._write_slice

    def dying(source, c, i, out):
        if i == 1 and c.name == "b":
            os._exit(3)
        write_slice(source, c, i, out)

    monkeypatch.setattr(unimig.migrator, "_write_slice", dying)
    files, error = _run(_dataset(tmp_path / "data", {}), tmp_path / "out", 2,
                        monkeypatch)
    assert error == ("while migrating collection 'b': the worker writing row "
                     "slice 1 ended without reporting it (exit status 3)")
    assert list(files) == ["a.jsonl"]


def test_interrupted_parent_reaps_its_workers(tmp_path, monkeypatch):
    write_slice = unimig.migrator._write_slice

    def interrupted(source, c, i, out):
        if i == 1:
            time.sleep(60)  # killed long before
        if c.name == "b":
            raise KeyboardInterrupt
        write_slice(source, c, i, out)

    monkeypatch.setattr(unimig.migrator, "_write_slice", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run(_dataset(tmp_path / "data", {}), tmp_path / "out", 2, monkeypatch)
    assert time.monotonic() - started < 30
    # no part file: the parent's own files alone
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "a.jsonl", "b.jsonl"]


# --- the index pass in slices -----------------------------------------------------

def _indexes(session: SourceSession) -> dict:
    """Every built index of the session: run triples as lists."""
    built = {}
    for name, file in session._files.items():
        for key, runs in file._runs.items():
            built[name, "runs", key] = {k: list(t) for k, t in runs.items()}
        for key, ids in file._id_indexes.items():
            built[name, "ids", key] = ids
    return built


def _straddling(root: Path) -> Path:
    """parent 2's 16 child rows hold the byte midpoint of child.csv, so
    its run straddles the cut of 2 slices (and of 3)."""
    root.mkdir()
    (root / "schema.sql").write_text(
        "CREATE TABLE parent (id INT PRIMARY KEY);"
        "CREATE TABLE child (parent_id INT, pos INT, PRIMARY KEY (parent_id, pos),"
        " FOREIGN KEY (parent_id) REFERENCES parent (id));")
    (root / "parent.csv").write_text("id\n1\n2\n3\n")
    children = [1, 1] + [2] * 16 + [3, 3]
    (root / "child.csv").write_text("parent_id,pos\n" + "".join(
        f"{parent},{n}\n" for n, parent in enumerate(children)))
    return root


@pytest.mark.parametrize("dataset", ["mini", "sparse", "northwind", "straddling"])
def test_indexes_identical_for_any_slice_count(tmp_path, monkeypatch, dataset):
    root = {"mini": FIXTURES / "music_streaming" / "mini_data",
            "northwind": FIXTURES / "northwind" / "data_1x"}.get(dataset)
    if root is None:
        root = (_sparse_mini if dataset == "sparse" else _straddling)(
            tmp_path / dataset)
    session, error = _migrate(root, tmp_path / "out1", 1, monkeypatch)
    serial = _indexes(session)
    assert error is None and serial
    for k in (2, 3):
        session, error = _migrate(root, tmp_path / f"out{k}", k, monkeypatch)
        assert error is None and _indexes(session) == serial
        if dataset == "straddling":
            child = session.file_for("child")
            assert any(2 < first < 18 for _, first, _ in child.spans(k))
    if dataset == "straddling":
        # one run per parent, the straddling one a single triple
        assert serial["child", "runs", (("parent_id",), ("pos",))] == {
            (1,): [14, 0, 2], (2,): [22, 2, 16], (3,): [94, 18, 2]}


# b is embedded in a (a run index on b.a_id, ordered by pos); a's rows
# reference their c rows, whose composite text key is #-joined (a covering
# index on c.a_id)
_INDEXED_DDL = (
    "CREATE TABLE a (id INT PRIMARY KEY, v INT);"
    "CREATE TABLE b (a_id INT, pos INT, note VARCHAR(20), PRIMARY KEY (a_id, pos),"
    " FOREIGN KEY (a_id) REFERENCES a (id));"
    "CREATE TABLE c (x VARCHAR(9), y VARCHAR(9), a_id INT, PRIMARY KEY (x, y),"
    " FOREIGN KEY (a_id) REFERENCES a (id));")


def _indexed_dataset(root: Path, bad: dict[tuple[str, int], str]) -> Path:
    """12 rows of a and c, 24 of b; ``bad`` replaces the line of a row
    (1-based) of a table."""
    root.mkdir()
    (root / "schema.sql").write_text(_INDEXED_DDL)
    rows = {"a": ["id,v"] + [f"{n},{n * 10}" for n in range(1, 13)],
            "b": ["a_id,pos,note"] + [f"{(n + 1) // 2},{n % 2},n{n}"
                                      for n in range(1, 25)],
            "c": ["x,y,a_id"] + [f"x{n},y{n},{n}" for n in range(1, 13)]}
    for (table, row), line in bad.items():
        rows[table][row] = line
    for table, lines in rows.items():
        (root / f"{table}.csv").write_text("\n".join(lines) + "\n")
    return root


def test_indexed_dataset_plans_both_index_kinds(tmp_path, monkeypatch):
    session, error = _migrate(_indexed_dataset(tmp_path / "data", {}),
                              tmp_path / "out", 2, monkeypatch)
    assert error is None
    assert list(_indexes(session)) == [
        ("b", "runs", (("a_id",), ("pos",))), ("c", "ids", ("a_id",))]
    assert session.file_for("c")._id_indexes["a_id",][(3,)] == ["x3#y3"]


_INDEXING = "while indexing for collection 'a': "


@pytest.mark.parametrize("bad,message", [
    ({("b", 20): "10,q,n20"},
     "b.csv (row 20), column 'pos': invalid literal for int() with base 10: "
     "'q'"),
    ({("b", 20): "10,,n20"},
     "b.csv (row 20), column 'pos': NULL key value for b.pos"),
    ({("c", 10): ",y10,10"},
     "c.csv (row 10), column 'x': NULL key value for c.x"),
    ({("c", 10): "x#10,y10,10"},
     "c.csv (row 10), column 'x': key value 'x#10' holds the identifier "
     "separator '#'"),
    # this process fails on a later file than a worker does
    ({("b", 20): "10,q,n20", ("c", 2): ",y2,2"},
     "b.csv (row 20), column 'pos': invalid literal for int() with base 10: "
     "'q'"),
], ids=["bad-cell", "null-order", "null-primary-key", "separator",
        "parent-later-file"])
def test_index_failure_ends_as_serial_run(tmp_path, monkeypatch, bad, message):
    root = _indexed_dataset(tmp_path / "data", bad)
    serial = _run(root, tmp_path / "out1", 1, monkeypatch)
    assert serial == ({}, _INDEXING + message)  # before any output
    for k in (2, 3):
        session = _migrate(root, tmp_path / f"out{k}", k, monkeypatch)[0]
        # the serial failure lies in a worker's slice, the later file's
        # failure in this process's
        in_worker = [session.file_for(table).spans(k)[1][1] < row
                     for table, row in bad]
        assert in_worker == [True, False][:len(bad)]
        assert _run(root, tmp_path / f"out{k}b", k, monkeypatch) == serial


def test_each_slice_runs_on_its_own_cpu(tmp_path, monkeypatch):
    allowed = sorted(os.sched_getaffinity(0))
    index_slice = _TableFile.index_slice
    seen = []  # this process's CPUs while it indexes slice 0

    def where(self, span):
        cpus = sorted(os.sched_getaffinity(0))
        if span[1]:
            raise SourceError(f"slice from row {span[1]} on {cpus}")
        seen.append(cpus)
        return index_slice(self, span)

    monkeypatch.setattr(_TableFile, "index_slice", where)
    error = _run(_indexed_dataset(tmp_path / "data", {}), tmp_path / "out", 2,
                 monkeypatch)[1]
    assert error.endswith(f"on {[allowed[1 % len(allowed)]]}")
    assert seen == [allowed[:1]] * 2  # slice 0 of b and of c
    assert sorted(os.sched_getaffinity(0)) == allowed  # restored


def test_index_worker_that_dies_is_named(tmp_path, monkeypatch):
    index_slice = _TableFile.index_slice

    def dying(self, span):
        if span[1] and self.table.name == "c":
            os._exit(3)
        return index_slice(self, span)

    monkeypatch.setattr(_TableFile, "index_slice", dying)
    files, error = _run(_indexed_dataset(tmp_path / "data", {}),
                        tmp_path / "out", 2, monkeypatch)
    assert error == (_INDEXING + "the worker indexing row slice 1 ended "
                     "without reporting it (exit status 3)")
    assert files == {}


def test_interrupted_parent_reaps_its_index_workers(tmp_path, monkeypatch):
    index_slice = _TableFile.index_slice

    def interrupted(self, span):
        if span[1]:
            time.sleep(60)  # killed long before
        raise KeyboardInterrupt

    monkeypatch.setattr(_TableFile, "index_slice", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run(_indexed_dataset(tmp_path / "data", {}), tmp_path / "out", 2,
             monkeypatch)
    assert time.monotonic() - started < 30
    assert list((tmp_path / "out").iterdir()) == []  # no part file
