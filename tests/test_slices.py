"""Row slices: ``_TableFile.spans`` cuts a file's data rows into contiguous
slices, and ``migrate`` writes slice ``i`` of every collection in process
``i``. The output, the report's counters and every failure must be what
one process writes, whatever the number of slices."""

from __future__ import annotations

import csv
import json
import os
import random
import shutil
import tempfile
import threading
import time
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from util import FIXTURES

import unimig.migrator
import unimig.source
from unimig.errors import MigrationError, SourceError
from unimig.migrator import migrate
from unimig.relational.ddl import parse_ddl
from unimig.source import _ENTRY, SourceSession, _GroupDocs, _TableFile, open_source
from unimig.transforms.rel_to_us import rel_to_uschema
from unimig.transforms.us_to_doc import uschema_to_document
from unimig.uschema.model import Aggregate


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


def _line_starts(file: _TableFile) -> list[int]:
    """The byte offset of each data row, then the file's size."""
    with open(file.path, "rb") as handle:
        starts = [len(handle.readline())]
        for line in handle:
            starts.append(starts[-1] + len(line))
    return starts


def _read(file: _TableFile, span: tuple[int, int, int] | None = None) -> list:
    """The numbered typed rows of ``span``, or of the whole file, through
    the reader."""
    with open(file.path, "rb") as handle:
        return [pair for block in file.blocks(handle, *(span or file.spans(1)[0]))
                for pair in zip(block.numbers, block)]


def _check_group_cuts(file: _TableFile, k: int) -> None:
    """With a text index planned on ``s``, the slices of ``file`` still
    cover every row once, in order, each cut is the first group start at or
    after the first line start at or after its byte ``k``-ile (or the cut
    before it, when that lies further on), and when ``s`` clusters the
    file, no key lies in two slices."""
    with tempfile.TemporaryFile() as spill:
        file.texts_on(("s",), ("id",), _GROUP_DOCS, 0, spill, "a test")
        spans = _check_spans(file, k)
    keys = [row[1] for _, row in _read(file)]
    starts = _line_starts(file)
    # where a row's s differs from the row before it, and the file's end
    group_starts = [start for start, key, before in zip(starts[1:], keys[1:], keys)
                    if key != before] + starts[-1:]
    cut = starts[0]
    for i, (offset, _, _) in enumerate(spans[1:], 1):
        if (target := starts[0] + (starts[-1] - starts[0]) * i // k) > cut:
            line = min(start for start in starts if start >= target)
            cut = min(start for start in group_starts if start >= line)
        assert offset == cut
    runs = [key for key, _ in groupby(keys) if key is not None]
    if len(runs) == len(set(runs)):  # clustered by s
        owner = {}
        slices = [i for i, (_, _, count) in enumerate(spans) for _ in range(count)]
        for key, i in zip(keys, slices):
            assert key is None or owner.setdefault(key, i) == i


def _check_spans(file: _TableFile, k: int) -> list:
    spans = file.spans(k)
    assert len(spans) == k
    starts = _line_starts(file)
    rows = []
    for offset, first, count in spans:
        assert first == len(rows)  # contiguous: the rows before it, counted
        assert offset == starts[first]  # the start of its first row
        rows += _read(file, (offset, first, count))
        assert len(rows) == first + count
    assert rows == _read(file)  # each row once, in order
    assert len(rows) == file.row_count
    return spans


def _text_of(group: list) -> tuple:
    """A group's numbered rows as text, and its row count."""
    return repr(group), len(group), 0, 0, 0


#: Builds each group as ``_text_of`` does, from its rows' documents: each
#: row's number and values as text, a block in one run
_GROUP_DOCS = _GroupDocs(
    lambda block: iter([(0, len(block.numbers),
                         (map(repr, zip(block.numbers, block)), []))]),
    lambda size, docs, counts: ("[" + ", ".join(docs) + "]", size, 0, 0, 0))


def _text_indexes(file: _TableFile, k: int,
                  keys: list[tuple[str, ...]]) -> tuple[list[dict], int]:
    """A covering index on ``s`` then each key's text in a text index on
    each of ``keys`` (columns), ordered by ``id``, all planned on the one
    file and built in ``k`` slices as ``migrate`` builds them: a worker per
    later slice, which appends its texts to a part file of its own and
    inherits any clustered lines, then the first slice, then the join;
    again over clustered lines for an index whose key does not cluster the
    file. Also the number of passes over the file."""
    spill = tempfile.TemporaryFile()
    indexes = [file.texts_on(key, ("id",), _GROUP_DOCS, 0, spill, "a test")
               for key in keys]
    ids = file.ids_on(("s",), "a test")
    passes = 0
    while file._unbuilt:
        passes += 1
        spans = file.spans(k)
        later, shifts = [], []
        for span in spans[1:]:
            worker = _TableFile(file.table, file.path)
            with tempfile.TemporaryFile() as part:
                mine = [worker.texts_on(key, ("id",), _GROUP_DOCS, 0, part,
                                        "a test") for key in keys]
                worker.ids_on(("s",), "a test")
                if file.clustered is not None:
                    worker.clustered = (
                        mine[indexes.index(file.clustered[0])],
                        *file.clustered[1:])
                worker.index_slice(span)
                later.append(worker.encode_slice())
                shifts.append(os.lseek(spill.fileno(), 0, os.SEEK_END))
                os.write(spill.fileno(), os.pread(
                    part.fileno(), os.fstat(part.fileno()).st_size, 0))
        file.index_slice(spans[0])
        file.merge_indexes(later, shifts)
    assert file.clustered is None  # the clustered lines are dropped
    built = [ids] + [{key: texts.text(key) for key in texts.index}
                     for texts in indexes]
    spill.close()
    return built, passes


def _ids(file: _TableFile) -> dict:
    """Each ``s`` value's ``id``s, in file order (``id`` order), NULLs left
    out."""
    ids = {}
    for _, (n, s, *_) in _read(file):
        if s is not None:
            ids.setdefault((s,), []).append(n)
    return ids


def _groups(file: _TableFile, columns: tuple[str, ...]) -> dict:
    """Each key's text as ``_text_of`` gives it for the rows holding the
    key in ``columns``, in file order (``id`` order), NULL keys left out."""
    positions, groups = file.positions(columns), {}
    for n, row in _read(file):
        if None not in (key := tuple(row[p] for p in positions)):
            groups.setdefault(key, []).append((n, row))
    return {key: _text_of(group) for key, group in groups.items()}


def _check_texts(file: _TableFile, k: int) -> None:
    """A text index on column ``s`` built in ``k`` slices must be what one
    slice gives: one text per non-NULL key, of its rows in order, each
    with its number in the file, whether the file is clustered by ``s`` or
    not; so must a covering index on ``s`` built in the same passes."""
    built = _text_indexes(file, k, [("s",)])[0]
    assert built == _text_indexes(_TableFile(file.table, file.path), 1,
                                  [("s",)])[0]
    assert built == [_ids(file), _groups(file, ("s",))]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_file_clustered_once_per_unclustered_text_index(tmp_path, k):
    # neither s nor u clusters the file: each of their indexes is built
    # again from the lines clustered by its key, in one more pass each
    path = tmp_path / "t.csv"
    path.write_text("id,s,u\n" + "".join(
        f"{n},{'ab'[n % 2]},{'xyz'[n % 3]}\n" for n in range(12)))
    file = _TableFile(parse_ddl("CREATE TABLE t (id INT PRIMARY KEY,"
                                " s VARCHAR(9), u VARCHAR(9));").table("t"),
                      path)
    built, passes = _text_indexes(file, k, [("s",), ("u",)])
    assert passes == 3
    assert built == [_ids(file), _groups(file, ("s",)), _groups(file, ("u",))]


@settings(max_examples=200, deadline=None)
@given(st.lists(_TEXT, max_size=10), st.sampled_from([1, 2, 3, 5]),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
@example([], 2, "\n", True)
@example(["a"], 5, "\n", True)
@example(["a", "b", "c"], 2, "\n", False)
@example(["a", "a", "é", "é", "é", "", "a"], 3, "\r\n", False)  # not clustered
@example(["b", "a", "a", "a", "c", "a", "b", "a"], 2, "\n", True)  # cut in a group
@example(["a", "b", "b", "b", "b", "b", "c"], 2, "\n", True)  # clustered, cut in b
@example(["x", 'q"é,', 'q"é,', 'q"é,', 'q"é,', "", "", "y"], 3, "\r\n", False)
def test_spans_cover_every_row_once_in_order(tmp_path_factory, texts, k,
                                             line_end, last_line_end):
    root = tmp_path_factory.mktemp("t")
    file = _table_file(root, texts, line_end, last_line_end)
    _check_spans(file, k)
    _check_group_cuts(_TableFile(file.table, file.path), k)
    _check_texts(file, k)


@pytest.mark.parametrize("texts", [
    ["a", "b", "b", "b", "b", "b", "c"],
    ["b", "a", "a", "a", "c", "a", "b", "a"],
    ["x" * 9, "y" * 9, "y", "y", "z" * 20, "z" * 20],
])
def test_group_cuts_read_back_over_several_chunks(tmp_path, monkeypatch, texts):
    # the line before a cut is found in chunks of 3 bytes, most lines
    # longer than one
    monkeypatch.setattr(unimig.source, "_COUNT_CHUNK", 3)
    file = _table_file(tmp_path, texts)
    for k in (2, 3, 5):
        _check_group_cuts(_TableFile(file.table, file.path), k)


def test_cut_on_a_line_start(tmp_path):
    # "id,s\n" then two rows of 4 bytes: the midpoint is the second row's start
    file = _table_file(tmp_path, ["a", "b"])
    assert _check_spans(file, 2) == [(5, 0, 1), (9, 1, 1)]


def test_cut_inside_a_multibyte_character(tmp_path):
    # the midpoint falls inside the first row's 4-byte characters
    file = _table_file(tmp_path, ["\U0001f600" * 6, "é,中"])
    spans = _check_spans(file, 2)
    assert spans[1][1] == 1
    assert [(n, list(row)) for n, row in _read(file, spans[1])] == [
        (1, [1, "é,中"])]


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


def _migrate(root: Path, out: Path, k: int, monkeypatch,
             edit=None) -> tuple[SourceSession, str | None]:
    """Migrate ``root`` in ``k`` slices, after ``edit`` changed the pivot
    model: the session it read, and the error, if any."""
    monkeypatch.setattr(unimig.migrator, "_cpus", lambda: k)
    schema = parse_ddl((root / "schema.sql").read_text())
    step1 = rel_to_uschema(schema)
    if edit is not None:
        edit(step1.target)
    step2 = uschema_to_document(step1.target)
    session = open_source(root, schema, step1.trace)
    try:
        migrate(step2.target, step2.trace, session, out)
    except MigrationError as exc:
        return session, str(exc)
    return session, None


def _run(root: Path, out: Path, k: int, monkeypatch,
         edit=None) -> tuple[dict, str | None]:
    """Migrate ``root`` in ``k`` slices: every output file's bytes (the
    manifest without its timings) and the error, if any."""
    error = _migrate(root, out, k, monkeypatch, edit)[1]
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


def _respelled(root: Path) -> Path:
    """``_straddling`` with parent 2's child rows spelling its id ``2``,
    ``02`` and ``+2`` in turn: the cells of each row differ from those of
    the row before, so a slice's cut inside the group does not move past
    it, and the group lies in two slices."""
    _straddling(root)
    path = root / "child.csv"
    header, *lines = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(
        ["2", "02", "+2"][n % 3] + line[1:] if line.startswith("2,") else line
        for n, line in enumerate(lines)))
    return root


def _shuffled(root: Path) -> Path:
    """``_straddling`` with child.csv's rows in a fixed random order: a
    parent's children lie in several runs, within a slice and across."""
    _straddling(root)
    path = root / "child.csv"
    header, *lines = path.read_text().splitlines(keepends=True)
    random.Random(3).shuffle(lines)
    path.write_text(header + "".join(lines))
    return root


# parent embeds its child rows, whose derived key joins a text component
_ORPHANS_DDL = (
    "CREATE TABLE parent (id INT PRIMARY KEY);"
    "CREATE TABLE child (parent_id INT, a VARCHAR(9), b VARCHAR(9),"
    " w VARCHAR(9), PRIMARY KEY (parent_id, a, b),"
    " FOREIGN KEY (parent_id) REFERENCES parent (id));")


def _orphans(root: Path) -> Path:
    """Child rows of parents 8 and 9, which do not exist, among those of
    parents 1 to 3: one holds a NULL, one a NULL and '#' in a text
    component of the key its document would carry."""
    root.mkdir()
    (root / "schema.sql").write_text(_ORPHANS_DDL)
    (root / "parent.csv").write_text("id\n1\n2\n3\n")
    (root / "child.csv").write_text(
        "parent_id,a,b,w\n1,x,1,p\n1,y,1,\n8,v,1,\n2,z,1,s\n9,q#r,1,\n"
        "9,t,1,u\n3,x,2,\n")
    return root


@pytest.mark.parametrize("dataset", ["mini", "sparse", "northwind", "straddling",
                                     "shuffled", "orphans", "respelled"])
def test_output_identical_for_any_slice_count(tmp_path, monkeypatch, dataset):
    root = {"mini": FIXTURES / "music_streaming" / "mini_data",
            "northwind": FIXTURES / "northwind" / "data_1x"}.get(dataset)
    if root is None:
        root = {"sparse": _sparse_mini, "straddling": _straddling,
                "shuffled": _shuffled, "orphans": _orphans,
                "respelled": _respelled}[dataset](tmp_path / dataset)
    serial, error = _run(root, tmp_path / "out1", 1, monkeypatch)
    assert error is None and "manifest.json" in serial
    for k in (2, 3):
        assert _run(root, tmp_path / f"out{k}", k, monkeypatch) == (serial, None)
    if dataset == "respelled":
        # a cut splits parent 2's group, which is built again from the
        # lines clustered by parent: the same text as for one spelling
        child = _TableFile(parse_ddl((root / "schema.sql").read_text()).table(
            "child"), root / "child.csv")
        with tempfile.TemporaryFile() as spill:
            child.texts_on(("parent_id",), ("pos",), _GROUP_DOCS, 0, spill, "a test")
            assert all(any(2 < first < 18 for _, first, _ in child.spans(k))
                       for k in (2, 3))
        straddling = _run(_straddling(tmp_path / "straddling"),
                          tmp_path / "straddling-out", 1, monkeypatch)
        assert serial == straddling[0]
    if dataset == "orphans":
        # the orphans are neither embedded nor counted, and the '#' in
        # one's key fails nothing
        assert serial["parent.jsonl"] == (
            b'{"id":1,"childs":[{"a":"x","b":"1","w":"p","_id":"1#x#1"},'
            b'{"a":"y","b":"1","_id":"1#y#1"}]}\n'
            b'{"id":2,"childs":[{"a":"z","b":"1","w":"s","_id":"2#z#1"}]}\n'
            b'{"id":3,"childs":[{"a":"x","b":"2","_id":"3#x#2"}]}\n')
        counts = serial["manifest.json"]["report"]["perEntity"]["parent"]
        assert (counts["rowsRead"], counts["nullsOmitted"]) == (7, 2)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([None, 1, 2, 3, 4, 5]), _TEXT),
                max_size=14),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
@example([(2, "a")] * 6 + [(1, "b")], "\n", True)  # a group across cuts
@example([(1, "a"), (2, "b"), (1, "c")], "\n", False)  # not clustered
def test_groups_identical_for_any_slice_count(tmp_path_factory, children,
                                              line_end, last_line_end):
    # parents 1 to 4 embed their child rows, in pos order; 5 is an orphan,
    # and a NULL parent_id joins nothing
    root = tmp_path_factory.mktemp("groups")
    (root / "schema.sql").write_text(
        "CREATE TABLE parent (id INT PRIMARY KEY);"
        "CREATE TABLE child (parent_id INT, pos INT, s VARCHAR(99),"
        " PRIMARY KEY (parent_id, pos),"
        " FOREIGN KEY (parent_id) REFERENCES parent (id));")
    (root / "parent.csv").write_text("id\n1\n2\n3\n4\n")
    with open(root / "child.csv", "w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle, lineterminator=line_end)
        out.writerow(["parent_id", "pos", "s"])
        # pos descends, so that every group of several rows is sorted
        out.writerows([parent, len(children) - n, text]
                      for n, (parent, text) in enumerate(children))
    if not last_line_end:
        path = root / "child.csv"
        path.write_bytes(path.read_bytes()[:-len(line_end)])
    runs = []
    for k in (1, 2, 3):
        with pytest.MonkeyPatch.context() as patch:
            runs.append(_run(root, root / f"out{k}", k, patch))
    assert runs[1:] == runs[:1] * 2
    files, error = runs[0]
    assert error is None
    expected = {p: sorted((len(children) - n, text)
                          for n, (parent, text) in enumerate(children)
                          if parent == p) for p in range(1, 5)}
    got = {doc["id"]: [(c["pos"], c.get("s", "")) for c in doc["childs"]]
           for doc in map(json.loads, files["parent.jsonl"].splitlines())}
    assert got == expected


def _scattered(root: Path, rows: list[list[str]]) -> Path:
    """The ``_orphans`` schema with child rows ``rows``, for parents 1 to
    3 and for parent 9, which does not exist."""
    root.mkdir(exist_ok=True)
    (root / "schema.sql").write_text(_ORPHANS_DDL)
    (root / "parent.csv").write_text("id\n1\n2\n3\n")
    (root / "child.csv").write_text("parent_id,a,b,w\n" + "".join(
        ",".join(row) + "\n" for row in rows))
    return root


def _scattered_rows() -> tuple[list[list[str]], list[int]]:
    """2, 16 and 2 child rows of parents 1 to 3 and 2 of parent 9, in a
    fixed random order (as ``_shuffled``), so that each parent's rows lie
    in several runs; and their row numbers (0-based) in the order the
    file is clustered in: a stable sort by parent, each ranked by its
    first row."""
    parents = [1] * 2 + [2] * 16 + [3] * 2 + [9] * 2
    rows = [[str(parent), f"x{n}", "1", "w"] for n, parent in enumerate(parents)]
    random.Random(3).shuffle(rows)
    ranks: dict[str, int] = {}
    for row in rows:
        ranks.setdefault(row[0], len(ranks))
    return rows, sorted(range(len(rows)), key=lambda n: ranks[rows[n][0]])


@pytest.mark.parametrize("where", ["group", "orphan", "cut-2", "cut-3"])
def test_separator_in_scattered_group_fails_as_serial_run(tmp_path, monkeypatch,
                                                          where):
    # a '#' in a text component of a child's derived key, on a row of a
    # parent's scattered group, of an orphan's, or on the row of parent
    # 2's group at the row-count k-ile of the clustered lines for 2 slices,
    # or at the second for 3: the cut moves on to the group's end, so one
    # slice builds that group whole
    rows, clustered = _scattered_rows()
    if where.startswith("cut"):
        k = int(where[-1])
        n = clustered[len(clustered) * (k - 1) // k]
        assert rows[n][0] == rows[clustered[clustered.index(n) - 1]][0] == "2"
    else:
        parent = {"group": "2", "orphan": "9"}[where]
        n = next(n for n, row in enumerate(rows) if row[0] == parent)
        assert any(row[0] != parent for row in rows[n:]) and [
            row[0] for row in rows[n:]].count(parent) > 1  # scattered
    rows[n][1] = "q#r"
    root = _scattered(tmp_path / "data", rows)
    serial = _run(root, tmp_path / "out1", 1, monkeypatch)
    if where == "orphan":
        assert serial[1] is None
        good = _run(_scattered(tmp_path / "good", _scattered_rows()[0]),
                    tmp_path / "good-out", 1, monkeypatch)
        assert serial == good  # the orphans are neither embedded nor counted
    else:
        assert serial == ({}, (
            f"while migrating collection 'parent': child.csv (row {n + 1}), "
            "column 'a': key value 'q#r' holds the identifier separator '#'"))
    for k in (2, 3):
        assert _run(root, tmp_path / f"out{k}", k, monkeypatch) == serial


def _one_object(pivot) -> None:
    """Make the pivot model's one aggregate embed at most one object."""
    (aggregate,) = [f for e in pivot.entities for f in e.features
                    if isinstance(f, Aggregate)]
    aggregate.upper_bound = 1


@pytest.mark.parametrize("parent", [2, 9])
def test_one_object_aggregate_over_scattered_rows(tmp_path, monkeypatch,
                                                  parent):
    # two child rows of one parent, apart: parent 2's fail its document,
    # an orphan's fail nothing
    root = tmp_path / "data"
    root.mkdir()
    (root / "schema.sql").write_text(
        "CREATE TABLE parent (id INT PRIMARY KEY, v INT);"
        "CREATE TABLE child (parent_id INT, n INT, w VARCHAR(5),"
        " PRIMARY KEY (parent_id, n),"
        " FOREIGN KEY (parent_id) REFERENCES parent (id));")
    (root / "parent.csv").write_text("id,v\n1,10\n2,20\n3,30\n")
    (root / "child.csv").write_text(
        f"parent_id,n,w\n1,1,a\n{parent},2,b\n3,1,c\n{parent},1,d\n2,3,e\n"
        if parent == 9 else
        f"parent_id,n,w\n1,1,a\n{parent},2,b\n3,1,c\n{parent},1,d\n")
    serial = _run(root, tmp_path / "out1", 1, monkeypatch, _one_object)
    if parent == 2:
        assert serial == ({}, "while migrating collection 'parent': "
                          "parent.csv (row 2), 2 child rows for one-object "
                          "aggregate parent.childs")
    else:
        assert serial[1] is None
        assert serial[0]["parent.jsonl"] == (
            b'{"id":1,"v":10,"childs":{"n":1,"w":"a"}}\n'
            b'{"id":2,"v":20,"childs":{"n":3,"w":"e"}}\n'
            b'{"id":3,"v":30,"childs":{"n":1,"w":"c"}}\n')
    for k in (2, 3):
        assert _run(root, tmp_path / f"out{k}", k, monkeypatch,
                    _one_object) == serial


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
    """Every built index of the session: a text index as its record length
    per key (its spill offsets depend on the order in which slices were
    appended)."""
    built = {}
    for name, file in session._files.items():
        for key, ids in file._ids.items():
            built[name, "ids", key] = ids.index
        for texts in file._texts:
            lengths = texts.entries[1::_ENTRY]
            built[name, "texts", (texts.columns, texts.order)] = {
                k: lengths[p] for k, p in texts.index.items()}
    return built


def _children(root: Path, children: list[tuple[int, int]]) -> Path:
    """Parents 1 to the highest of ``children``, the (parent, pos) of each
    child row, in that order."""
    root.mkdir()
    (root / "schema.sql").write_text(
        "CREATE TABLE parent (id INT PRIMARY KEY);"
        "CREATE TABLE child (parent_id INT, pos INT, PRIMARY KEY (parent_id, pos),"
        " FOREIGN KEY (parent_id) REFERENCES parent (id));")
    (root / "parent.csv").write_text("id\n" + "".join(
        f"{n}\n" for n in range(1, max(children)[0] + 1)))
    (root / "child.csv").write_text("parent_id,pos\n" + "".join(
        f"{parent},{pos}\n" for parent, pos in children))
    return root


def _straddling(root: Path) -> Path:
    """parent 2's 16 child rows hold the byte midpoint of child.csv, so
    its run straddles the byte cut of 2 slices (and both of 3)."""
    return _children(root, [(parent, n) for n, parent in
                            enumerate([1, 1] + [2] * 16 + [3, 3])])


def _one_big_group(root: Path) -> Path:
    """20 one-row child groups, then parent 21's 16 rows, which lie in the
    last slice of 2 and in the second of 3."""
    return _children(root, [(n, 1) for n in range(1, 21)]
                     + [(21, n) for n in range(16)])


@pytest.mark.parametrize("dataset", ["mini", "sparse", "northwind", "straddling",
                                     "shuffled", "big-group"])
def test_indexes_identical_for_any_slice_count(tmp_path, monkeypatch, dataset):
    root = {"mini": FIXTURES / "music_streaming" / "mini_data",
            "northwind": FIXTURES / "northwind" / "data_1x"}.get(dataset)
    if root is None:
        root = {"sparse": _sparse_mini, "straddling": _straddling,
                "shuffled": _shuffled, "big-group": _one_big_group}[dataset](
            tmp_path / dataset)
    session, error = _migrate(root, tmp_path / "out1", 1, monkeypatch)
    serial, peak = _indexes(session), session.peak_live_records
    assert error is None and serial
    if dataset == "big-group":
        assert (peak, session.records_read) == (16, 21 + 36)
    for k in (2, 3):
        session, error = _migrate(root, tmp_path / f"out{k}", k, monkeypatch)
        assert error is None and _indexes(session) == serial
        # a worker's largest child group counts too
        assert session.peak_live_records == peak
        if dataset == "big-group":
            # the largest group is built in a worker; the line start after
            # the byte cut of 2 is parent 21's first row, and that after
            # the first cut of 3 is parent 15's: each starts a group, and
            # the cut stays there
            assert session.file_for("child").spans(k) == {
                2: [(14, 0, 20), (105, 20, 16)],
                3: [(14, 0, 14), (75, 14, 22), (191, 36, 0)]}[k]
        if dataset == "straddling":
            child = session.file_for("child")
            # a byte cut falls inside parent 2's rows 2 to 17, and each cut
            # moves on to the end of the group
            assert any(2 < first < 18 for _, first, _ in
                       _TableFile(child.table, child.path).spans(k))
            assert {first for _, first, _ in child.spans(k)} <= {0, 2, 18, 20}
    if dataset in ("straddling", "shuffled"):
        # one text per parent, the straddling one built whole, and the
        # shuffled file's built from its lines clustered by parent: a
        # 32-byte header, then '[{"pos":0},{"pos":1}]', ...
        # '[{"pos":18},{"pos":19}]'
        assert serial["child", "texts", (("parent_id",), ("pos",))] == {
            (1,): 32 + 21, (2,): 32 + 169, (3,): 32 + 23}


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
        ("b", "texts", (("a_id",), ("pos",))), ("c", "ids", ("a_id",))]
    assert session.file_for("c")._ids["a_id",].index[(3,)] == ["x3#y3"]


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


def test_null_key_before_a_bad_cell_of_the_same_block(tmp_path, monkeypatch):
    # rows 5 and 10 are typed in one block: its bad cell splits the block,
    # and the rows before it come first, so the index pass checks row 5's
    # key before row 10 is typed
    root = _indexed_dataset(tmp_path / "data", {("c", 5): ",y5,5",
                                                ("c", 10): "x10,y10,q"})
    serial = _run(root, tmp_path / "out1", 1, monkeypatch)
    assert serial == ({}, _INDEXING + "c.csv (row 5), column 'x': NULL key "
                      "value for c.x")
    for k in (2, 3):
        assert _run(root, tmp_path / f"out{k}", k, monkeypatch) == serial


_WRITING = "while migrating collection 't': t.csv "
_SEPARATOR = "column 'a': key value 'k#{:02d}' holds the identifier separator '#'"
_NOT_INT = "column 'v': invalid literal for int() with base 10: '1x{:02d}'"


@pytest.mark.parametrize("faults,failing", [
    ({5: "a", 9: "v"}, (5, _SEPARATOR)),
    ({5: "v", 9: "a"}, (5, _NOT_INT)),
    ({7: "av"}, (7, _NOT_INT)),
    ({256: "a", 257: "v"}, (256, _SEPARATOR)),
    ({256: "v", 257: "a"}, (256, _NOT_INT)),
    ({150: "a", 151: "v"}, (150, _SEPARATOR)),
    ({150: "v", 151: "a"}, (150, _NOT_INT)),
], ids=["key-then-cell", "cell-then-key", "one-row", "key-then-cell-at-256",
        "cell-then-key-at-256", "key-then-cell-at-cut", "cell-then-key-at-cut"])
def test_writes_fail_at_the_first_bad_row_typing_first(tmp_path, monkeypatch,
                                                       faults, failing):
    # t is written without an index pass: a "#" in its derived key's text
    # component fails when the document is built, a bad cell when its row
    # is typed. The first faulty row fails, and a row with both faults
    # fails on its cell, whatever the blocks (rows 256 and 257 lie in two)
    # and slices (the cut of 2 lies between rows 150 and 151)
    root = tmp_path / "data"
    root.mkdir()
    ddl = "CREATE TABLE t (a VARCHAR(9), b INT, v INT, PRIMARY KEY (a, b));"
    (root / "schema.sql").write_text(ddl)
    lines = ["a,b,v"]
    for row in range(1, 301):
        # every line as long as the others, so the cut of 2 is at row 151
        fault = faults.get(row, "")
        a = ("k#" if "a" in fault else "kk") + f"{row % 100:02d}"
        v = f"1x{row % 100:02d}" if "v" in fault else str(1000 + row)
        lines.append(f"{a},{1000 + row},{v}")
    (root / "t.csv").write_text("\n".join(lines) + "\n")
    assert _TableFile(parse_ddl(ddl).table("t"), root / "t.csv").spans(2)[1][1] == 150
    row, message = failing
    expected = ({}, _WRITING + f"(row {row}), " + message.format(row % 100))
    for k in (1, 2, 3):
        assert _run(root, tmp_path / f"out{k}", k, monkeypatch) == expected


@pytest.mark.parametrize("owner", [2, 3], ids=["embedded", "orphan"])
def test_group_of_one_failing_row(tmp_path, monkeypatch, owner):
    # the last child row, a block of its own in slice 1 of 2 or 3, fails
    # to build: its group fails where a parent embeds it, and nothing
    # fails where none does
    root = tmp_path / "data"
    root.mkdir()
    (root / "schema.sql").write_text(
        "CREATE TABLE parent (id INT PRIMARY KEY);"
        "CREATE TABLE child (pid INT, tag VARCHAR(9), n INT, PRIMARY KEY (pid, tag, n),"
        " FOREIGN KEY (pid) REFERENCES parent (id));")
    (root / "parent.csv").write_text("id\n1\n2\n")
    (root / "child.csv").write_text(f"pid,tag,n\n1,x,1\n1,y,2\n{owner},x#y,1\n")
    serial = _run(root, tmp_path / "out1", 1, monkeypatch)
    if owner == 2:
        assert serial == ({}, "while migrating collection 'parent': child.csv "
                          "(row 3), column 'tag': key value 'x#y' holds the "
                          "identifier separator '#'")
    else:
        assert serial[0]["parent.jsonl"] == (
            b'{"id":1,"childs":[{"tag":"x","n":1,"_id":"1#x#1"},'
            b'{"tag":"y","n":2,"_id":"1#y#2"}]}\n{"id":2,"childs":[]}\n')
    for k in (2, 3):
        assert _run(root, tmp_path / f"out{k}", k, monkeypatch) == serial


def test_each_slice_runs_on_its_own_cpu(tmp_path, monkeypatch):
    allowed = sorted(os.sched_getaffinity(0))
    index_slice = _TableFile.index_slice
    seen = []  # this process's CPUs while it indexes slice 0

    def where(self, span, *out):
        cpus = sorted(os.sched_getaffinity(0))
        if span[1]:
            raise SourceError(f"slice from row {span[1]} on {cpus}")
        seen.append(cpus)
        return index_slice(self, span, *out)

    monkeypatch.setattr(_TableFile, "index_slice", where)
    error = _run(_indexed_dataset(tmp_path / "data", {}), tmp_path / "out", 2,
                 monkeypatch)[1]
    assert error.endswith(f"on {[allowed[1 % len(allowed)]]}")
    assert seen == [allowed[:1]] * 2  # slice 0 of b and of c
    assert sorted(os.sched_getaffinity(0)) == allowed  # restored


def test_index_worker_that_dies_is_named(tmp_path, monkeypatch):
    index_slice = _TableFile.index_slice

    def dying(self, span, *out):
        if span[1] and self.table.name == "c":
            os._exit(3)
        return index_slice(self, span, *out)

    monkeypatch.setattr(_TableFile, "index_slice", dying)
    files, error = _run(_indexed_dataset(tmp_path / "data", {}),
                        tmp_path / "out", 2, monkeypatch)
    assert error == (_INDEXING + "the worker indexing row slice 1 ended "
                     "without reporting it (exit status 3)")
    assert files == {}


def test_interrupted_parent_reaps_its_index_workers(tmp_path, monkeypatch):
    index_slice = _TableFile.index_slice

    def interrupted(self, span, *out):
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
