"""Documents built a block at a time, a column at a time, against the same
rows built one by one, and clean data against the differential oracle.

``_Builder.documents`` builds a block of typed rows from its columns, and
each text index builds the child groups of a block from the documents of
its rows (``_GroupDocs``); when building a block fails, its halves are
built in turn, down to single rows (``_halves``), so the block fails with
its first failing row, and a group with its first in sorted order.
Whatever the data and the number of row slices, the output bytes, every
counter and the first error (its message and row) must be those of
building every row alone, as a block of one row, in one slice; on clean
data the documents and counters must be those
``test_oracle.Oracle`` rebuilds from plain ``csv``, sharing no code with
the column functions."""

from __future__ import annotations

import csv
import hashlib
import json
import random
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_oracle import Oracle
from test_output_digests import MINI, NORTHWIND_1X
from util import FIXTURES

import unimig.migrator
import unimig.source
from unimig.cli import dispatch
from unimig.document.model import DocType
from unimig.errors import MigrationError
from unimig.migrator import _BadKey, _id_of, _index_levels, compile_plan, migrate
from unimig.relational.ddl import parse_ddl
from unimig.source import _Block, _TableFile, open_source
from unimig.transforms.rel_to_us import rel_to_uschema
from unimig.transforms.us_to_doc import uschema_to_document
from unimig.uschema.model import Aggregate

# Every kind of step: fields of each SQL type (parent), a verbatim key
# (target, tag), a derived key with a text component (parent, parent_tag),
# a forward reference that may be NULL or dangle (kids.id), a reverse
# reference (target.parents), the two sides of a relationship, one of them
# composite (parent_tag), an embedded array (kids, with nested counters)
# and one-object aggregates (pets, and toys within kids).
_DDL = """
CREATE TABLE target (id INT PRIMARY KEY, v INT);
CREATE TABLE parent (a VARCHAR(9), b INT, small SMALLINT, i INT, big BIGINT,
  r REAL, x DOUBLE, dec DECIMAL(9,2), flag BOOLEAN, s VARCHAR(9), day DATE,
  t_id INT, PRIMARY KEY (a, b), FOREIGN KEY (t_id) REFERENCES target (id));
CREATE TABLE kid (pa VARCHAR(9), pb INT, n INT, note VARCHAR(9), t_id INT,
  PRIMARY KEY (pa, pb, n), FOREIGN KEY (pa, pb) REFERENCES parent (a, b),
  FOREIGN KEY (t_id) REFERENCES target (id));
CREATE TABLE toy (pa VARCHAR(9), pb INT, n INT, m INT, w VARCHAR(9),
  PRIMARY KEY (pa, pb, n, m), FOREIGN KEY (pa, pb, n) REFERENCES kid (pa, pb, n));
CREATE TABLE pet (pa VARCHAR(9), pb INT, n INT, w VARCHAR(9),
  PRIMARY KEY (pa, pb, n), FOREIGN KEY (pa, pb) REFERENCES parent (a, b));
CREATE TABLE tag (id INT PRIMARY KEY, name VARCHAR(9));
CREATE TABLE parent_tag (pa VARCHAR(9), pb INT, tag_id INT,
  PRIMARY KEY (pa, pb, tag_id), FOREIGN KEY (pa, pb) REFERENCES parent (a, b),
  FOREIGN KEY (tag_id) REFERENCES tag (id));
"""
_SCHEMA = parse_ddl(_DDL)
_STEP1 = rel_to_uschema(_SCHEMA)
# one-object aggregates, as an evolved pivot model may have
for _aggregate in [f for e in _STEP1.target.entities for f in e.features
                   if isinstance(f, Aggregate) and f.name in ("pets", "toys")]:
    _aggregate.upper_bound = 1
_STEP2 = uschema_to_document(_STEP1.target)
# an INT column read into a DOUBLE property
_STEP2.target.document("parent").property("i").type = DocType("DOUBLE")

_TEXTS = ["a", "b c", "x,y", 'q"t', "Zoë", "#", "", "1"]
#: cells that are NULL, hold the identifier separator, or do not type
_DIRT = ["", "x#y", "1-2", "1_0"]


#: a key column and the cell a few of its cells become, or the table of a
#: one-object aggregate of which a few parents have two children
_DIRTY = [(column, cell) for column in ("kid.n", "tag.id", "parent_tag.pa",
                                        "parent_tag.tag_id") for cell in _DIRT] \
    + [("toy", None), ("pet", None)]


def _dataset(root: Path, size: int, seed: int,
             dirty: tuple[str, str | None] | None, shuffled: bool) -> None:
    """``size`` parents, each with up to three kids, each kid with up to
    one toy, and up to one pet; ``size`` tags and parent_tag rows. NULLs
    are left out or counted; dangling references counted. One column or
    aggregate may be ``dirty`` (see ``_DIRTY``)."""
    rng = random.Random(seed)
    where, bad = dirty or (None, None)

    def cell(column: str, clean: object) -> object:
        return bad if column == where and rng.random() < 0.01 else clean

    def several(table: str) -> int:
        return 2 if table == where and rng.random() < 0.01 else rng.choice([0, 1])

    rows: dict[str, list[list]] = {table.name: [] for table in _SCHEMA.tables}
    rows["target"] = [[1, 10], [2, ""], [3, 30]]
    for j in range(size):
        a = rng.choice("pqr")
        rows["parent"].append([
            a, j, rng.choice([-32768, 0, 7, 32767, ""]),
            rng.randint(-2**31, 2**31 - 1), rng.choice([-2**63, 2**63 - 1, 5, ""]),
            rng.choice(["1.5", "-0.0", "1e-7", ""]), rng.choice(["3", "1e16", "-0.125"]),
            rng.choice(["12.50", "-1", ""]), rng.choice(["true", "f", "YES", " no", ""]),
            rng.choice(_TEXTS), "2025-01-02", rng.choice([1, 2, 3, 9, ""])])
        for n in range(rng.choice([0, 1, 1, 2, 3])):
            rows["kid"].append([a, j, cell("kid.n", n), rng.choice(_TEXTS),
                                rng.choice([1, 2, 3, 3, 9, ""])])
            rows["toy"] += [[a, j, n, m, rng.choice(_TEXTS)]
                            for m in range(several("toy"))]
        rows["pet"] += [[a, j, n, rng.choice(_TEXTS)] for n in range(several("pet"))]
        rows["tag"].append([cell("tag.id", j), rng.choice(_TEXTS)])
        rows["parent_tag"].append([cell("parent_tag.pa", a), j,
                                    cell("parent_tag.tag_id", j)])
    if shuffled:
        rng.shuffle(rows["kid"])
    _write(root, rows)


def _write(root: Path, rows: dict[str, list[list]]) -> None:
    """A dataset of ``_DDL`` at ``root`` holding ``rows`` by table; a table
    not in ``rows`` is empty."""
    root.mkdir()
    (root / "schema.sql").write_text(_DDL, encoding="utf-8")
    for table in _SCHEMA.tables:
        with open(root / f"{table.name}.csv", "w", newline="",
                  encoding="utf-8") as handle:
            out = csv.writer(handle, lineterminator="\n")
            out.writerow([c.name for c in table.columns])
            out.writerows(rows.get(table.name, []))


def _migrated(root: Path, out: Path) -> tuple:
    """The output bytes of each collection written, the manifest's
    counters, the error, if any, and the session's record counts."""
    session = open_source(root, _SCHEMA, _STEP1.trace)
    error = counters = None
    try:
        report = migrate(_STEP2.target, _STEP2.trace, session, out)
        counters = report.to_dict()["perEntity"]
        for stats in counters.values():
            del stats["elapsedMs"]
    except MigrationError as exc:
        error = str(exc)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
             if p.suffix == ".jsonl"}
    return files, counters, error, (session.records_read,
                                    session.peak_live_records)


def _row_runs(builder, block):
    """``_Builder.runs`` building every row of a block alone, as a block
    of one row through the compiled function: a run per row, of its
    documents or of the error it fails with, a ``_BadKey`` named by file
    and row."""
    for i, n in enumerate(block.numbers):
        try:
            built = builder.block(_Block((n,), [column[i:i + 1]
                                                for column in block.columns]))
        except _BadKey as exc:
            built = MigrationError(f"{builder.name} (row {n + 1}), {exc}")
        except MigrationError as exc:
            built = exc
        yield i, i + 1, built


def _row_by_row(builder, block, stats):
    """``_Builder.documents`` building every row of a block alone
    (``_row_runs``), failing with the first row that fails."""
    for _, _, built in _row_runs(builder, block):
        if isinstance(built, MigrationError):
            raise built
        docs, counted = built
        for which, values in counted:
            setattr(stats, which, getattr(stats, which) + sum(values))
        yield from docs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 255, 256, 257]), st.integers(0, 2**32 - 1),
       st.sampled_from([None, *_DIRTY]), st.booleans(), st.sampled_from([1, 2, 3]))
@example(257, 0, None, False, 2)
@example(256, 1, ("tag.id", ""), True, 3)  # a NULL verbatim key
@example(255, 7, ("parent_tag.pa", ""), False, 2)  # a NULL derived key
@example(257, 2, ("parent_tag.pa", "x#y"), False, 3)  # "#" in a derived key
@example(257, 3, ("kid.n", "1-2"), True, 2)  # a bad cell in a scattered group
def test_blocks_built_as_rows_are(size, seed, dirty, shuffled, k):
    # blocks of 1, 255, 256 and 256 + 1 rows: files of ``size`` rows, in
    # ``k`` row slices against every row built alone in one
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "data"
        _dataset(root, size, seed, dirty, shuffled)
        with mock.patch.object(unimig.migrator, "_cpus", return_value=k):
            by_blocks = _migrated(root, Path(tmp) / "blocks")
        with mock.patch.object(unimig.migrator, "_cpus", return_value=1), \
                mock.patch.object(unimig.migrator._Builder, "documents",
                                  _row_by_row), \
                mock.patch.object(unimig.migrator._Builder, "runs", _row_runs):
            by_rows = _migrated(root, Path(tmp) / "rows")
        files, counters, error, counts = by_blocks
        assert (files, counters, error) == by_rows[:3]
        if error is None:
            # a failed run's counts are the report's partial ones, which
            # depend on where its blocks and slices end
            assert counts == by_rows[3]
        if dirty is None:
            assert error is None  # clean data migrates
            oracle = Oracle(_SCHEMA, _STEP1.trace, _STEP2.trace, root)
            for te in _STEP2.target.documents:
                oracle.nulls = oracle.dangling = 0
                lines = files[f"{te.name}.jsonl"].decode().splitlines()
                assert list(map(json.loads, lines)) == oracle.collection(te), te.name
                assert (counters[te.name]["nullsOmitted"],
                        counters[te.name]["danglingRefs"]) == (
                    oracle.nulls, oracle.dangling), te.name


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("source,digests", [
    (FIXTURES / "music_streaming" / "mini_data", MINI),
    (FIXTURES / "northwind" / "data_1x", NORTHWIND_1X)], ids=["mini", "northwind"])
def test_clean_blocks_never_built_row_by_row(tmp_path, monkeypatch, source,
                                             digests, k):
    # every block of these datasets, in every slice, is typed and built
    # whole, a column at a time: with any split of a block failing, they
    # still migrate to their pinned bytes in any number of slices
    def unsplit(size, build, fails):
        try:
            built = build(0, size)
        except fails as exc:
            pytest.fail(f"a block of {size} rows split: {exc!r}")
        yield 0, size, built

    monkeypatch.setattr(unimig.source, "_halves", unsplit)
    monkeypatch.setattr(unimig.migrator, "_halves", unsplit)
    monkeypatch.setattr(unimig.migrator, "_cpus", lambda: k)
    out = tmp_path / "out"
    assert dispatch(["migrate", "--source", str(source), "--out", str(out)]) == 0
    got = {p.name: _digest(p.read_bytes()) for p in sorted(out.iterdir())
           if p.name != "manifest.json"}
    assert got == digests


# --- one small block through the column functions, against hand-written
# expectations (the test above compares two builds through them)

#: A parent row with no NULL.
_PARENT = ["p", 0, 1, 2, 3, "1.5", "3", "12.50", "true", "s", "2025-01-02", 1]


def _first_block_built(root: Path, collection: str, tmp: Path) -> tuple:
    """What the compiled function of ``collection`` gives for the first
    block of its file, indexes built in one slice: the documents, parsed,
    and each counter summed; a ``_BadKey`` is raised as it is."""
    session = open_source(root, _SCHEMA, _STEP1.trace)
    try:
        file, build = compile_plan(session, _STEP2.trace,
                                   _STEP2.target.document(collection))
        _index_levels(session, {f: f.spans(1) for f in session.indexed_files()},
                      1, tmp)
        with open(file.path, "rb") as handle:
            block = next(file.blocks(handle, *file.spans(1)[0]))
        docs, counted = build.block(block)
        counts = Counter()
        for name, values in counted:
            counts[name] += sum(values)
        return list(map(json.loads, docs)), counts
    finally:
        session.close()


def test_null_and_dangling_probes_counted_once(tmp_path):
    # kids' forward reference to target: a NULL probe is one NULL left
    # out, a probe with no target one dangling reference, neither twice
    _write(tmp_path / "data", {
        "target": [[1, 10]], "parent": [_PARENT],
        "kid": [["p", 0, 0, "a", ""], ["p", 0, 1, "b", 9], ["p", 0, 2, "c", 1]]})
    docs, counts = _first_block_built(tmp_path / "data", "parent", tmp_path)
    assert docs[0]["kids"] == [{"n": 0, "note": "a"}, {"n": 1, "note": "b"},
                               {"n": 2, "note": "c", "id": 1}]
    assert (counts["nulls_omitted"], counts["dangling_refs"]) == (1, 1)


@pytest.mark.parametrize("other", [["p", 0, 1], ["p", 0, ""]],
                         ids=["no-null", "null"])
def test_hash_in_text_key_component_fails(tmp_path, other):
    # a derived key's text component holding "#" fails, in a block with a
    # NULL key value or without; a block without one joins its components
    _write(tmp_path / "data", {"parent_tag": [other, ["x#y", 1, 2]]})
    file = _TableFile(_SCHEMA.table("parent_tag"),
                      tmp_path / "data" / "parent_tag.csv")
    ids_of = _id_of(file, ["pa", "pb", "tag_id"], text=True)[1]
    with open(file.path, "rb") as handle:
        columns = next(file.blocks(handle, *file.spans(1)[0])).columns
    with pytest.raises(_BadKey, match=r"^column 'pa': key value 'x#y' holds "
                                      r"the identifier separator '#'$"):
        ids_of(columns, [])
    assert ids_of([column[:1] for column in columns], []) == (
        ["p#0#1"] if other[2] else [None])


def test_two_children_of_one_object_aggregate_fail(tmp_path):
    # pets is a one-object aggregate: a parent with two pets fails
    _write(tmp_path / "data", {"parent": [_PARENT],
                               "pet": [["p", 0, 0, "w"], ["p", 0, 1, "v"]]})
    with pytest.raises(_BadKey, match=r"^2 child rows for one-object "
                                      r"aggregate parent\.pets$"):
        _first_block_built(tmp_path / "data", "parent", tmp_path)
