from __future__ import annotations

import builtins
import csv
import io
import json
import shutil
import time
from pathlib import Path

import pytest

from util import FIXTURES

import unimig.migrator
import unimig.source
import unimig.trace
from unimig.errors import MigrationError
from unimig.migrator import (EntityStats, _index_levels, compile_plan, migrate,
                             write_batch)
from unimig.relational.ddl import parse_ddl
from unimig.source import open_source
from unimig.transforms.rel_to_us import rel_to_uschema
from unimig.transforms.us_to_doc import uschema_to_document
from unimig.uschema.model import Aggregate


@pytest.fixture(scope="module")
def mini(mini_root):
    schema = parse_ddl((mini_root / "schema.sql").read_text())
    step1 = rel_to_uschema(schema)
    step2 = uschema_to_document(step1.target)
    return {"root": mini_root, "schema": schema,
            "step1": step1, "step2": step2}


def run_migration(mini, out: Path):
    session = open_source(mini["root"], mini["schema"], mini["step1"].trace)
    report = migrate(mini["step2"].target, mini["step2"].trace, session, out)
    return report, session


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


EXPECTED_U001 = {
    "user_id": "u001",
    "name": "Alice",
    "is_premium": True,
    "register_date": "2025-02-25 14:09:30",
    "playlists": [
        {"playlist_id": "p001", "name": "indi90s",
         "creation_date": "2026-08-26 18:20:00",
         "playlist_songs": [
             {"position_idx": 1, "song_id": "s002"},
             {"position_idx": 2, "song_id": "s007"},
         ]},
        {"playlist_id": "p002", "name": "moviesOST",
         "creation_date": "2025-05-20 19:50:00",
         "playlist_songs": [
             {"position_idx": 1, "song_id": "s054"},
         ]},
    ],
    "most_recent_songs": [
        {"position_idx": 1, "song_id": "s007"},
        {"position_idx": 2, "song_id": "s002"},
    ],
}


EXPECTED_U002 = {
    "user_id": "u002",
    "name": "Bob",
    "is_premium": False,
    "register_date": "2025-03-01 10:00:00",
    "playlists": [],
    "most_recent_songs": [{"position_idx": 1, "song_id": "s054"}],
}


def test_user_document_matches_expected_shape(mini, tmp_path):
    report, _ = run_migration(mini, tmp_path / "out")
    docs = read_jsonl(tmp_path / "out" / "app_user.jsonl")
    assert docs == [EXPECTED_U001, EXPECTED_U002]


def test_transform_instance_directly(mini, tmp_path):
    # the first block of source rows through the executor compiled for its
    # collection, without writing any file
    session = open_source(mini["root"], mini["schema"], mini["step1"].trace)
    te = mini["step2"].target.document("app_user")
    file, build = compile_plan(session, mini["step2"].trace, te)
    # the text indexes of the embedded children, in one slice
    _index_levels(session, {f: f.spans(1) for f in session.indexed_files()},
                  1, tmp_path)
    with open(file.path, "rb") as handle:
        block = next(file.blocks(handle, *file.spans(1)[0]))
    docs = build.documents(block, EntityStats())
    assert json.loads(next(docs)) == EXPECTED_U001
    session.close()


def test_listening_documents(mini, tmp_path):
    run_migration(mini, tmp_path / "out")
    docs = read_jsonl(tmp_path / "out" / "listening.jsonl")
    assert docs[0] == {"listening_id": "u001#s007", "user_id": "u001",
                       "song_id": "s007", "plays_count": 7,
                       "status": "completed"}
    # the NULL status row only carries key + mandatory fields
    assert docs[2] == {"listening_id": "u002#s054", "user_id": "u002",
                       "song_id": "s054", "plays_count": 1}


def test_conservation_on_mini(mini, tmp_path):
    report, _ = run_migration(mini, tmp_path / "out")
    per = {name: s.docs_written for name, s in report.per_entity.items()}
    assert per == {"app_user": 2, "song": 3, "musical_style": 2,
                   "listening": 3, "song_style": 4}
    users = read_jsonl(tmp_path / "out" / "app_user.jsonl")
    assert sum(len(u.get("playlists", [])) for u in users) == 2
    assert sum(len(p["playlist_songs"]) for u in users
               for p in u.get("playlists", [])) == 3
    assert sum(len(u.get("most_recent_songs", [])) for u in users) == 3


def test_keys_present_and_unique(mini, tmp_path):
    run_migration(mini, tmp_path / "out")
    for te in mini["step2"].target.documents:
        key = te.key_field().name
        docs = read_jsonl(tmp_path / "out" / f"{te.name}.jsonl")
        keys = [d[key] for d in docs]
        assert all(k is not None for k in keys)
        assert len(set(keys)) == len(keys)


def test_report_totals_are_sums(mini, tmp_path):
    started = time.monotonic()
    report, _ = run_migration(mini, tmp_path / "out")
    wall_ms = (time.monotonic() - started) * 1000.0
    assert report.total_docs == sum(
        s.docs_written for s in report.per_entity.values())
    assert report.total_rows == sum(
        s.rows_read for s in report.per_entity.values())
    # collections are written in overlapping slices, so the total is the
    # wall time of the whole migrate, the one index pass included
    assert report.index_ms <= report.total_elapsed_ms <= wall_ms
    assert report.throughput_rows_per_s > 0


def test_manifest_counts_each_source_row_once(mini, tmp_path):
    report, _ = run_migration(mini, tmp_path / "out")
    csv_rows = 0
    for path in mini["root"].glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as handle:
            csv_rows += sum(1 for _ in csv.reader(handle)) - 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["report"]["totals"]["rows"] == report.total_rows == csv_rows


def test_manifest_written(mini, tmp_path):
    run_migration(mini, tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["collections"]["listening"] == 3
    assert manifest["config"] == {"mode": "FILES", "nullPolicy": "OMIT"}


def test_write_batch_contract():
    handle = io.StringIO()
    assert write_batch(handle, []) == 0
    assert handle.getvalue() == ""
    lines = ['{"a":1,"b":[1,2]}', '{"name":"Zoë","tag":"ñ"}', "{}"]
    assert write_batch(handle, lines) == 3
    written = handle.getvalue()
    assert written == "".join(line + "\n" for line in lines)
    assert [json.loads(line) for line in written.splitlines()] == [
        {"a": 1, "b": [1, 2]}, {"name": "Zoë", "tag": "ñ"}, {}]


def test_empty_tables_give_empty_collections(mini, tmp_path):
    root = tmp_path / "empty"
    root.mkdir()
    shutil.copy(mini["root"] / "schema.sql", root)
    for path in mini["root"].glob("*.csv"):
        header = path.read_text().splitlines()[0]
        (root / path.name).write_text(header + "\n")
    session = open_source(root, mini["schema"], mini["step1"].trace)
    out = tmp_path / "out"
    report = migrate(mini["step2"].target, mini["step2"].trace, session, out)
    names = [te.name for te in mini["step2"].target.documents]
    for name in names:
        assert (out / f"{name}.jsonl").read_bytes() == b""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["collections"] == dict.fromkeys(names, 0)
    assert manifest["report"]["totals"]["docs"] == report.total_docs == 0
    assert manifest["report"]["totals"]["rows"] == 0


def test_partial_output_removed_on_failure(mini, tmp_path):
    broken_root = tmp_path / "broken"
    shutil.copytree(mini["root"], broken_root)
    lines = (broken_root / "listening.csv").read_text().splitlines()
    # a value that only reading the row rejects: plays_count beyond INT
    lines[2] = "u001,s002,3000000000,paused"
    (broken_root / "listening.csv").write_text("\n".join(lines) + "\n")
    session = open_source(broken_root, mini["schema"], mini["step1"].trace)
    out = tmp_path / "out"
    with pytest.raises(MigrationError, match="listening"):
        migrate(mini["step2"].target, mini["step2"].trace, session, out)
    assert not (out / "listening.jsonl").exists()
    assert (out / "app_user.jsonl").exists()  # earlier collection completed
    assert session.open is False  # closed even on error


@pytest.mark.parametrize("table,row,line,message", [
    # a composite key is derived from its components
    ("listening", 1, ",s007,7,completed",
     r"listening\.csv \(row 1\), columns \['user_id', 'song_id'\]: NULL key "
     r"value for listening\.listening_id"),
    ("song", 1, ",Creep,3.59,Radiohead,120",
     r"song\.csv \(row 1\), column 'song_id': NULL key value for "
     r"song\.song_id"),
    # an embedded child, in a run of rows that starts after the first row
    ("most_recent_song", 3, "u002,,s054",
     r"most_recent_song\.csv \(row 3\), column 'position_idx': NULL key "
     r"value for most_recent_song\.position_idx"),
    # an embedded child with a sibling: the NULL order value is named
    # before the group is sorted
    ("most_recent_song", 1, "u001,,s007",
     r"most_recent_song\.csv \(row 1\), column 'position_idx': NULL key "
     r"value for most_recent_song\.position_idx"),
], ids=["derived", "attribute", "embedded", "embedded-sibling"])
def test_null_key_value_names_file_and_row(mini, tmp_path, table, row, line,
                                           message):
    broken_root = tmp_path / "broken"
    shutil.copytree(mini["root"], broken_root)
    lines = (broken_root / f"{table}.csv").read_text().splitlines()
    lines[row] = line
    (broken_root / f"{table}.csv").write_text("\n".join(lines) + "\n")
    session = open_source(broken_root, mini["schema"], mini["step1"].trace)
    out = tmp_path / "out"
    with pytest.raises(MigrationError, match=message):
        migrate(mini["step2"].target, mini["step2"].trace, session, out)
    assert not (out / f"{table}.jsonl").exists()


def test_bad_cell_of_nested_child_names_child_file(mini, tmp_path):
    broken_root = tmp_path / "broken"
    shutil.copytree(mini["root"], broken_root)
    lines = (broken_root / "playlist_song.csv").read_text().splitlines()
    lines[3] = "p002,u001,3000000000,s054"  # beyond INT, two levels down
    (broken_root / "playlist_song.csv").write_text("\n".join(lines) + "\n")
    session = open_source(broken_root, mini["schema"], mini["step1"].trace)
    out = tmp_path / "out"
    with pytest.raises(MigrationError,
                       match=r"'app_user': playlist_song\.csv \(row 3\), "
                             r"column 'position_idx': 3000000000 is out of INT"):
        migrate(mini["step2"].target, mini["step2"].trace, session, out)
    assert not (out / "app_user.jsonl").exists()


def test_family_memory_stays_bounded(mini, tmp_path):
    report, session = run_migration(mini, tmp_path / "out")
    assert session.peak_live_records <= 16


def test_clustered_child_rows_typed_once(mini, tmp_path, monkeypatch):
    # each child row is typed in the pass that builds its group's text,
    # which the parent's document then copies; the group is not read again
    typed_block = unimig.source._TableFile.typed_block
    seen = []

    def counted(self, lines, numbers):
        seen.extend((self.path.name, n) for n in numbers)
        return typed_block(self, lines, numbers)

    monkeypatch.setattr(unimig.source._TableFile, "typed_block", counted)
    monkeypatch.setattr(unimig.migrator, "_cpus", lambda: 1)  # one slice
    report, session = run_migration(mini, tmp_path / "out")
    assert report.per_entity["app_user"].rows_read == 2 + 2 + 3 + 3
    for name in ("playlist.csv", "playlist_song.csv", "most_recent_song.csv"):
        rows = [n for file, n in seen if file == name]
        assert sorted(rows) == list(range(session.file_for(
            name.removesuffix(".csv")).row_count))


def test_target_holds_only_collections_and_manifest(mini, tmp_path,
                                                    monkeypatch):
    # the group texts are spilled to a file with no directory entry
    write_collections = unimig.migrator._write_collections
    spills = []

    def before_writes(source, collections, k, target_dir):
        spills.append((source._spill, sorted(target_dir.iterdir())))
        write_collections(source, collections, k, target_dir)

    monkeypatch.setattr(unimig.migrator, "_write_collections", before_writes)
    out = tmp_path / "out"
    run_migration(mini, out)
    [(spill, listed)] = spills
    assert spill is not None and listed == []
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{te.name}.jsonl" for te in mini["step2"].target.documents]
        + ["manifest.json"])


def test_flat_collections_index_in_one_phase(tmp_path, monkeypatch):
    # Northwind embeds nothing: its id indexes are all of level 0, built in
    # one phase, and no spill file is made
    build_indexes = unimig.migrator._build_indexes
    phases = []

    def counted(source, files, *args):
        phases.append(len(files))
        build_indexes(source, files, *args)

    monkeypatch.setattr(unimig.migrator, "_build_indexes", counted)
    root = FIXTURES / "northwind" / "data_1x"
    schema = parse_ddl((root / "schema.sql").read_text())
    step1 = rel_to_uschema(schema)
    step2 = uschema_to_document(step1.target)
    session = open_source(root, schema, step1.trace)
    migrate(step2.target, step2.trace, session, tmp_path / "out")
    assert len(phases) == 1 and phases[0] > 1
    assert session._spill is None


def test_index_levels_fail_deepest_first(mini, tmp_path):
    # playlist's texts embed playlist_song's, whose references read song's
    # id index: song (level 0) is indexed before playlist (level 2), so its
    # failure is the one reported, although playlist comes first in schema
    # order
    broken_root = tmp_path / "broken"
    shutil.copytree(mini["root"], broken_root)
    for table, row, line in (("playlist", 1, ",u001,indi90s,2026-08-26"),
                             ("song", 2, "s007,Lucky,x,Radiohead,77")):
        lines = (broken_root / f"{table}.csv").read_text().splitlines()
        lines[row] = line
        (broken_root / f"{table}.csv").write_text("\n".join(lines) + "\n")
    session = open_source(broken_root, mini["schema"], mini["step1"].trace)
    with pytest.raises(MigrationError,
                       match=r"^while indexing for collection 'app_user': "
                             r"song\.csv \(row 2\), column 'duration'"):
        migrate(mini["step2"].target, mini["step2"].trace, session,
                tmp_path / "out")
    assert not list((tmp_path / "out").iterdir())


def test_s_scale_memory_bound(s_migration):
    # one parent record plus one child batch at a time, never a whole table
    assert s_migration["peak"] <= 64


def migrate_tiny(tmp_path, ddl: str, files: dict[str, str],
                 adapt=lambda pivot: None) -> dict:
    """Migrate a dataset given as DDL text and CSV texts, after ``adapt``
    has edited the pivot model; documents by collection."""
    schema = parse_ddl(ddl)
    step1 = rel_to_uschema(schema)
    adapt(step1.target)
    step2 = uschema_to_document(step1.target)
    root = tmp_path / "tiny"
    root.mkdir()
    (root / "schema.sql").write_text(ddl)
    for name, text in files.items():
        (root / f"{name}.csv").write_text(text)
    session = open_source(root, schema, step1.trace)
    migrate(step2.target, step2.trace, session, tmp_path / "out")
    return {te.name: read_jsonl(tmp_path / "out" / f"{te.name}.jsonl")
            for te in step2.target.documents}


def test_null_and_dangling_forward_references_omitted(tmp_path):
    docs = migrate_tiny(
        tmp_path,
        "CREATE TABLE target (id INT PRIMARY KEY, v INT);"
        "CREATE TABLE holder (id INT PRIMARY KEY, t_id INT, UNIQUE (t_id),"
        "  FOREIGN KEY (t_id) REFERENCES target (id));",
        {"target": "id,v\n1,10\n", "holder": "id,t_id\n1,\n2,1\n3,99\n"})
    # the reference to target is named id_1: holder already has an id field
    assert docs["holder"] == [{"id": 1}, {"id": 2, "id_1": 1}, {"id": 3}]


def test_dropped_values_are_counted(tmp_path):
    docs = migrate_tiny(
        tmp_path,
        "CREATE TABLE target (id INT PRIMARY KEY, v INT);"
        "CREATE TABLE holder (id INT PRIMARY KEY, t_id INT, note VARCHAR(9),"
        "  UNIQUE (t_id), FOREIGN KEY (t_id) REFERENCES target (id));",
        {"target": "id,v\n1,\n2,20\n",
         "holder": "id,t_id,note\n1,,\n2,1,x\n3,99,\n"})
    assert docs["holder"] == [{"id": 1}, {"id": 2, "id_1": 1, "note": "x"},
                              {"id": 3}]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    counts = {name: (entry["nullsOmitted"], entry["danglingRefs"])
              for name, entry in manifest["report"]["perEntity"].items()}
    # target: one NULL v; holder: a NULL t_id, two NULL notes, and 99
    # points at no target row
    assert counts == {"target": (1, 0), "holder": (3, 1)}


def test_typed_cell_checked_when_not_emitted(tmp_path):
    # holder.t_id is only probed: the document stores the target's id
    with pytest.raises(MigrationError, match=r"holder\.csv \(row 2\), column "
                                             r"'t_id': invalid literal"):
        migrate_tiny(
            tmp_path,
            "CREATE TABLE target (id INT PRIMARY KEY);"
            "CREATE TABLE holder (id INT PRIMARY KEY, t_id INT, UNIQUE (t_id),"
            "  FOREIGN KEY (t_id) REFERENCES target (id));",
            {"target": "id\n1\n", "holder": "id,t_id\n1,1\n2,x\n"})


def test_reverse_ids_follow_composite_key_tuple_order(tmp_path):
    docs = migrate_tiny(
        tmp_path,
        "CREATE TABLE parent (id INT PRIMARY KEY);"
        "CREATE TABLE child (a INT, b INT, parent_id INT, PRIMARY KEY (a, b),"
        "  FOREIGN KEY (parent_id) REFERENCES parent (id));",
        {"parent": "id\n1\n2\n",
         "child": "a,b,parent_id\n1,10,1\n1,9,1\n2,1,1\n3,3,\n"})
    # (1, 9) < (1, 10) as key tuples, although "1#10" < "1#9" as text
    assert docs["parent"] == [{"id": 1, "childs": ["1#9", "1#10", "2#1"]},
                              {"id": 2, "childs": []}]


@pytest.mark.parametrize("sql_type", ["REAL", "DOUBLE", "DECIMAL(9,2)"])
@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity", "1e999"])
def test_non_finite_float_names_file_row_and_column(tmp_path, sql_type, cell):
    # json.dumps would write NaN or Infinity, which strict JSON rejects
    with pytest.raises(MigrationError,
                       match=rf"t\.csv \(row 2\), column 'x': '{cell}' is not "
                             r"a finite number"):
        migrate_tiny(tmp_path,
                     f"CREATE TABLE t (id INT PRIMARY KEY, x {sql_type}, y INT);",
                     {"t": f"id,x,y\n1,1.5,3\n2,{cell},4\n"})
    assert not (tmp_path / "out" / "t.jsonl").exists()


_CHILD_OF_PARENT = (
    "CREATE TABLE parent (id INT PRIMARY KEY);"
    "CREATE TABLE child ({key}, parent_id INT,"
    "  FOREIGN KEY (parent_id) REFERENCES parent (id));")


@pytest.mark.parametrize("key,rows,row,column", [
    # a composite key sorted with a NULL component among its siblings
    ("a INT, b INT, PRIMARY KEY (a, b)", "a,b,parent_id\n1,,1\n1,9,1\n",
     1, "b"),
    # a composite key that would be written as "None#3"
    ("a INT, b INT, PRIMARY KEY (a, b)", "a,b,parent_id\n1,9,1\n,3,2\n",
     2, "a"),
    # a single-column key that would be written as null
    ("id INT PRIMARY KEY", "id,parent_id\n4,1\n,1\n", 2, "id"),
], ids=["composite-sorted", "composite-text", "single"])
def test_null_key_in_covering_index_names_row(tmp_path, key, rows, row, column):
    # parent.childs reads child's identifiers from the covering index,
    # which is built before any collection is written
    with pytest.raises(MigrationError,
                       match=rf"while indexing for collection 'parent': child\.csv \(row "
                             rf"{row}\), column '{column}': NULL key value for "
                             rf"child\.{column}"):
        migrate_tiny(tmp_path, _CHILD_OF_PARENT.format(key=key),
                     {"parent": "id\n1\n2\n", "child": rows})
    assert not list((tmp_path / "out").iterdir())


def test_null_order_value_of_later_collection_fails_before_output(tmp_path):
    # only q, the second collection, embeds item ordered by pos; p comes
    # first and needs no index, yet nothing is written
    with pytest.raises(MigrationError,
                       match=r"while indexing for collection 'q': item\.csv \(row 1\), "
                             r"column 'pos': NULL key value for item\.pos"):
        migrate_tiny(
            tmp_path,
            "CREATE TABLE p (id INT PRIMARY KEY);"
            "CREATE TABLE q (id INT PRIMARY KEY);"
            "CREATE TABLE item (q_id INT, pos INT, p_id INT,"
            "  PRIMARY KEY (q_id, pos), FOREIGN KEY (q_id) REFERENCES q (id),"
            "  FOREIGN KEY (p_id) REFERENCES p (id));",
            {"p": "id\n1\n", "q": "id\n1\n", "item": "q_id,pos,p_id\n1,,1\n1,1,1\n"})
    assert not list((tmp_path / "out").iterdir())


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize("fails", [False, True])
def test_table_handles_closed_after_migrate(mini, tmp_path, monkeypatch, fails):
    root = mini["root"]
    if fails:
        root = tmp_path / "broken"
        shutil.copytree(mini["root"], root)
        lines = (root / "listening.csv").read_text().splitlines()
        lines[2] = "u001,s002,3000000000,paused"
        (root / "listening.csv").write_text("\n".join(lines) + "\n")
    opened = []

    def spy(*args, **kwargs):
        handle = builtins.open(*args, **kwargs)
        opened.append(handle)
        return handle

    monkeypatch.setattr(unimig.source, "open", spy, raising=False)
    monkeypatch.setattr(unimig.migrator, "open", spy, raising=False)
    session = open_source(root, mini["schema"], mini["step1"].trace)
    try:
        migrate(mini["step2"].target, mini["step2"].trace, session,
                tmp_path / "out")
    except MigrationError:
        assert fails
    else:
        assert not fails
    assert any(h.mode == "rb" for h in opened)  # rows were read
    assert any(h.mode == "w" for h in opened)  # an output handle was used
    assert all(h.closed for h in opened)


def _break(store, element: str, rule: str, action: str):
    """Unsealed copy of ``store`` without the ``rule`` link that has
    ``element`` among its targets, or with that link's rule renamed."""
    broken = store.copy()
    hit = next(i for i, link in enumerate(broken.links)
               if element in link.targets and link.rule == rule)
    if action == "drop":
        broken.remove_links({hit})
    else:
        broken.links[hit].rule = rule + "-renamed"
    return broken


@pytest.mark.parametrize("trace,element,rule,action,collection,message", [
    ("t2", "doc:song", "R2", "drop", "song",
     "collection 'song' has no pivot origin in the trace"),
    ("t2", "doc:song.title", "R3", "drop", "song",
     "property doc:song.title has no trace origin"),
    ("t2", "doc:song.title", "R3", "rename", "song",
     "field doc:song.title lacks an attribute origin"),
    ("t2", "doc:app_user.playlists/playlist_songs.song_id", "R5", "rename",
     "app_user", "reference doc:app_user.playlists/playlist_songs.song_id "
     "lacks a trace origin"),
    ("t2", "doc:app_user.most_recent_songs", "R6", "rename", "app_user",
     "embedded doc:app_user.most_recent_songs lacks an aggregate origin"),
    ("t1", "us:song", "R2", "drop", "song",
     "no table traces to schema type 'song'"),
    ("t1", "us:song.title", "R3", "drop", "song",
     "attribute 'title' does not belong to 'song' (or is reference-owned)"),
    ("t1", "us:app_user.most_recent_songs", "R5", "drop", "app_user",
     "feature app_user.most_recent_songs carries no data-access role in "
     "the trace"),
    ("t1", "us:playlist_song.song", "R7.1", "drop", "app_user",
     "feature playlist_song.song carries no data-access role in the trace"),
    ("t1", "us:song.listening_user", "R6", "drop", "listening",
     "song.listening_user is not a relationship side"),
], ids=["collection-origin", "field", "field-r3", "reference", "embedded",
        "type-r2", "attribute-r3", "aggregate-role", "reference-role",
        "side-role"])
def test_unresolvable_trace_fails_before_output(mini, tmp_path, trace, element,
                                                rule, action, collection,
                                                message):
    t1, t2 = mini["step1"].trace, mini["step2"].trace
    if trace == "t1":
        t1 = _break(t1, element, rule, action)
    else:
        t2 = _break(t2, element, rule, action)
    session = open_source(mini["root"], mini["schema"], t1)
    out = tmp_path / "out"
    with pytest.raises(MigrationError) as failure:
        migrate(mini["step2"].target, t2, session, out)
    assert str(failure.value) == (
        f"while migrating collection {collection!r}: {message}")
    assert not list(out.glob("*.jsonl"))


def _repeated(mini, root: Path) -> Path:
    """A copy of mini_data with every CSV row repeated 5 times."""
    shutil.copytree(mini["root"], root)
    for path in root.glob("*.csv"):
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + rows * 5) + "\n")
    return root


def test_traces_resolved_per_collection_not_per_row(mini, tmp_path,
                                                    monkeypatch):
    repeated = _repeated(mini, tmp_path / "repeated")
    lookup = unimig.trace.TraceStore.lookup
    counts = []

    def counted(self, element_id, direction):
        counts[-1] += 1
        return lookup(self, element_id, direction)

    monkeypatch.setattr(unimig.trace.TraceStore, "lookup", counted)
    for n, root in enumerate([mini["root"], repeated]):
        counts.append(0)
        session = open_source(root, mini["schema"], mini["step1"].trace)
        report = migrate(mini["step2"].target, mini["step2"].trace, session,
                         tmp_path / f"out{n}")
        assert report.total_docs == 14 * 5 ** n
    assert counts[0] == counts[1] > 0


def test_indexes_built_per_file_not_per_row(mini, tmp_path, monkeypatch):
    # embedded groups read the index planned at compile time
    repeated = _repeated(mini, tmp_path / "repeated")
    index_slice = unimig.source._TableFile.index_slice
    counts = []  # index passes by file, one dict per dataset

    def counted(self, span, *out):
        counts[-1][self.path.name] = counts[-1].get(self.path.name, 0) + 1
        return index_slice(self, span, *out)

    monkeypatch.setattr(unimig.source._TableFile, "index_slice", counted)
    monkeypatch.setattr(unimig.migrator, "_cpus", lambda: 1)  # one slice
    for n, root in enumerate([mini["root"], repeated]):
        counts.append({})
        session = open_source(root, mini["schema"], mini["step1"].trace)
        migrate(mini["step2"].target, mini["step2"].trace, session,
                tmp_path / f"out{n}")
    assert counts[0] and set(counts[0].values()) == {1}  # one pass per file
    # repeated, a child file whose rows hold several keys is not clustered
    # by them: one more pass builds its texts from its lines clustered by
    # the key (playlist.csv's rows all hold one user)
    assert counts[1] == counts[0] | {"playlist_song.csv": 2,
                                     "most_recent_song.csv": 2}


@pytest.mark.parametrize("sql_type,cell,value", [
    # int() and float() take these; an SQL loader does not
    ("INT", "1_000", None),
    ("REAL", "2_5.5", None),
    ("SMALLINT", " 7 ", None),
    ("BIGINT", "３", None),  # a fullwidth 3
    ("INT", "7\t", None),
    ("DOUBLE", " 1.5", None),
    ("DECIMAL(9,2)", "٣.5", None),  # an Arabic-Indic 3
    # and what both read alike
    ("INT", "-5", -5),
    ("INT", "+5", 5),
    ("BIGINT", "007", 7),
    ("REAL", "-5", -5.0),
    ("REAL", "+5", 5.0),
    ("REAL", "1e5", 100000.0),
    ("DOUBLE", ".5", 0.5),
    ("DECIMAL(9,2)", "5.", 5.0),
    ("REAL", "-2.5E-3", -0.0025),
])
def test_numeric_cells_read_as_sql_loaders_read_them(tmp_path, sql_type, cell,
                                                    value):
    ddl = f"CREATE TABLE t (id INT PRIMARY KEY, x {sql_type});"
    files = {"t": f'id,x\n1,1\n2,"{cell}"\n'}
    if value is None:
        with pytest.raises(MigrationError,
                           match=r"t\.csv \(row 2\), column 'x': "):
            migrate_tiny(tmp_path, ddl, files)
        assert not (tmp_path / "out" / "t.jsonl").exists()
    else:
        docs = migrate_tiny(tmp_path, ddl, files)
        assert docs["t"][1] == {"id": 2, "x": value}
        assert type(docs["t"][1]["x"]) is type(value)


def test_separator_in_derived_key_component_fails(tmp_path):
    # "a#b" + "c" and "a" + "b#c" would both be written as "a#b#c"
    with pytest.raises(MigrationError,
                       match=r"^while migrating collection 'c': c\.csv \(row 1\), "
                             r"column 'a': key value 'a#b' holds the identifier "
                             r"separator '#'$"):
        migrate_tiny(tmp_path,
                     "CREATE TABLE c (a VARCHAR(10), b VARCHAR(10), v INT,"
                     "  PRIMARY KEY (a, b));",
                     {"c": "a,b,v\na#b,c,1\na,b#c,2\n"})
    assert not (tmp_path / "out" / "c.jsonl").exists()


def test_separator_in_embedded_child_derived_key_fails(tmp_path):
    # children are built in key order, so ('x', 'y#z') in row 3 fails
    # before ('x#y', 'z') in row 2
    with pytest.raises(MigrationError,
                       match=r"^while migrating collection 'parent': child\.csv "
                             r"\(row 3\), column 'b': key value 'y#z' holds the "
                             r"identifier separator '#'$"):
        migrate_tiny(tmp_path,
                     "CREATE TABLE parent (id INT PRIMARY KEY, v INT);"
                     "CREATE TABLE child (parent_id INT, a VARCHAR(5),"
                     "  b VARCHAR(5), w VARCHAR(5), PRIMARY KEY (parent_id, a, b),"
                     "  FOREIGN KEY (parent_id) REFERENCES parent (id));",
                     {"parent": "id,v\n1,10\n2,20\n",
                      "child": "parent_id,a,b,w\n1,x,y,p\n2,x#y,z,q\n2,x,y#z,r\n"})
    assert not (tmp_path / "out" / "parent.jsonl").exists()


def test_separator_in_relationship_side_component_fails(tmp_path):
    ddl = ("CREATE TABLE p (a VARCHAR(9), b VARCHAR(9), PRIMARY KEY (a, b));"
           "CREATE TABLE q (id INT PRIMARY KEY);"
           "CREATE TABLE pq (a VARCHAR(9), b VARCHAR(9), q_id INT,"
           "  PRIMARY KEY (a, b, q_id), FOREIGN KEY (a, b) REFERENCES p (a, b),"
           "  FOREIGN KEY (q_id) REFERENCES q (id));")
    schema = parse_ddl(ddl)
    step1 = rel_to_uschema(schema)
    step2 = uschema_to_document(step1.target)
    pq = step2.target.document("pq")
    # the derived key, first, covers the side's columns too: move it last
    # so that the side reference is the first to join them
    key = pq.key_field()
    pq.properties.remove(key)
    pq.properties.append(key)
    root = tmp_path / "tiny"
    root.mkdir()
    (root / "schema.sql").write_text(ddl)
    for name, text in {"p": "a,b\nx,y\n", "q": "id\n1\n",
                       "pq": "a,b,q_id\nx,y,1\nx#y,z,1\n"}.items():
        (root / f"{name}.csv").write_text(text)
    session = open_source(root, schema, step1.trace)
    out = tmp_path / "out"
    with pytest.raises(MigrationError,
                       match=rf"^while migrating collection 'pq': pq\.csv \(row 2\), "
                             r"column 'a': key value 'x#y' holds the identifier "
                             r"separator '#'$"):
        migrate(step2.target, step2.trace, session, out)
    assert not (out / "pq.jsonl").exists()


def test_separator_in_covering_index_key_fails_before_output(tmp_path):
    # parent.childs reads the #-joined identifiers of child rows from a
    # covering index, which the index pass fills before any output
    with pytest.raises(MigrationError,
                       match=r"^while indexing for collection 'parent': child\.csv "
                             r"\(row 2\), column 'b': key value '9#1' holds the "
                             r"identifier separator '#'$"):
        migrate_tiny(tmp_path,
                     _CHILD_OF_PARENT.format(
                         key="a VARCHAR(5), b VARCHAR(5), PRIMARY KEY (a, b)"),
                     {"parent": "id\n1\n",
                      "child": "a,b,parent_id\n1,9,1\n1,9#1,1\n"})
    assert not list((tmp_path / "out").iterdir())


_ONE_OBJECT_DDL = (
    "CREATE TABLE parent (id INT PRIMARY KEY, v INT);"
    "CREATE TABLE child (parent_id INT, n INT, w VARCHAR(5),"
    "  PRIMARY KEY (parent_id, n),"
    "  FOREIGN KEY (parent_id) REFERENCES parent (id));")


def _one_object(pivot):
    # aggregates derived from DDL are 0..*; a 0..1 one embeds an object
    (aggregate,) = [f for e in pivot.entities for f in e.features
                    if isinstance(f, Aggregate)]
    aggregate.upper_bound = 1


def test_one_object_aggregate_embeds_a_single_child(tmp_path):
    docs = migrate_tiny(
        tmp_path, _ONE_OBJECT_DDL,
        {"parent": "id,v\n1,10\n2,20\n", "child": "parent_id,n,w\n1,7,x\n"},
        _one_object)
    assert docs["parent"] == [
        {"id": 1, "v": 10, "childs": {"n": 7, "w": "x"}}, {"id": 2, "v": 20}]


def test_one_object_aggregate_over_several_children_fails(tmp_path):
    with pytest.raises(MigrationError) as failure:
        migrate_tiny(tmp_path, _ONE_OBJECT_DDL,
                     {"parent": "id,v\n1,10\n2,20\n",
                      "child": "parent_id,n,w\n1,9,z\n1,7,x\n1,8,y\n"},
                     _one_object)
    assert str(failure.value) == (
        "while migrating collection 'parent': parent.csv (row 1), 3 child "
        "rows for one-object aggregate parent.childs")
    assert not list((tmp_path / "out").iterdir())
