from __future__ import annotations

import builtins
import csv
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

import unimig.source
from unimig.errors import MigrationError
from unimig.migrator import (
    MigrationConfig,
    migrate,
    transform_instance,
    write_batch,
)
from unimig.relational.ddl import parse_ddl
from unimig.source import open_source, read_entity_all
from unimig.transforms import rel_to_uschema, uschema_to_document


@pytest.fixture(scope="module")
def mini(mini_root):
    schema = parse_ddl((mini_root / "schema.sql").read_text())
    step1 = rel_to_uschema(schema)
    step2 = uschema_to_document(step1.target)
    return {"root": mini_root, "schema": schema,
            "step1": step1, "step2": step2}


def run_migration(mini, out: Path, batch_size: int = 1000):
    session = open_source(mini["root"], mini["schema"], mini["step1"].trace)
    report = migrate(mini["step2"].target, mini["step1"].trace,
                     mini["step2"].trace, session, out,
                     MigrationConfig(batch_size=batch_size))
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


def test_user_document_matches_expected_shape(mini, tmp_path):
    report, _ = run_migration(mini, tmp_path / "out")
    docs = read_jsonl(tmp_path / "out" / "app_user.jsonl")
    assert docs[0] == EXPECTED_U001


def test_listening_documents(mini, tmp_path):
    run_migration(mini, tmp_path / "out")
    docs = read_jsonl(tmp_path / "out" / "listening.jsonl")
    assert docs[0] == {"listening_id": "u001#s007", "user_id": "u001",
                       "song_id": "s007", "plays_count": 7,
                       "status": "completed"}
    # the NULL status row only carries key + mandatory fields
    assert docs[2] == {"listening_id": "u002#s054", "user_id": "u002",
                       "song_id": "s054", "plays_count": 1}


def test_transform_instance_directly(mini):
    session = open_source(mini["root"], mini["schema"], mini["step1"].trace)
    te = mini["step2"].target.document("app_user")
    cursor = read_entity_all(session, "app_user")
    doc = transform_instance(mini["step2"].trace, cursor, te)
    assert doc == EXPECTED_U001
    session.close()


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


def test_batch_size_does_not_change_content(mini, tmp_path):
    run_migration(mini, tmp_path / "one", batch_size=1)
    run_migration(mini, tmp_path / "big", batch_size=1000)
    for name in ("app_user", "listening", "song", "song_style"):
        one = read_jsonl(tmp_path / "one" / f"{name}.jsonl")
        big = read_jsonl(tmp_path / "big" / f"{name}.jsonl")
        assert Counter(map(json.dumps, one)) == Counter(map(json.dumps, big))


def test_report_totals_are_sums(mini, tmp_path):
    report, _ = run_migration(mini, tmp_path / "out")
    assert report.total_docs == sum(
        s.docs_written for s in report.per_entity.values())
    assert report.total_rows == sum(
        s.rows_read for s in report.per_entity.values())
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
    assert manifest["config"] == {"batchSize": 1000, "mode": "FILES",
                                  "nullPolicy": "OMIT"}


def test_write_batch_contract(tmp_path):
    config = MigrationConfig(batch_size=1000)
    assert write_batch(tmp_path, "c", [], config) == 0
    assert (tmp_path / "c.jsonl").read_text() == ""
    assert write_batch(tmp_path, "c", [{"a": 1}] * 1000, config) == 1000
    assert write_batch(tmp_path, "c", [{"a": 2}] * 500, config) == 500
    assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 1500
    with pytest.raises(MigrationError, match="exceeds"):
        write_batch(tmp_path, "c", [{}] * 1001, config)


def test_batching_arithmetic(mini, tmp_path):
    # 3 listening rows with batch 2 -> two appends (2 + 1)
    report, _ = run_migration(mini, tmp_path / "out", batch_size=2)
    assert report.per_entity["listening"].docs_written == 3


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
        migrate(mini["step2"].target, mini["step1"].trace, mini["step2"].trace,
                session, out, MigrationConfig())
    assert not (out / "listening.jsonl").exists()
    assert (out / "app_user.jsonl").exists()  # earlier collection completed
    assert session.open is False  # closed even on error


def test_invalid_config_rejected():
    with pytest.raises(MigrationError):
        MigrationConfig(batch_size=0)


def test_family_memory_stays_bounded(mini, tmp_path):
    report, session = run_migration(mini, tmp_path / "out")
    assert session.peak_live_records <= 16


def test_s_scale_memory_bound(s_migration):
    # one parent record plus one child batch at a time, never a whole table
    assert s_migration["peak"] <= 64


def migrate_tiny(tmp_path, ddl: str, files: dict[str, str]) -> dict:
    """Migrate a dataset given as DDL text and CSV texts; documents by
    collection."""
    schema = parse_ddl(ddl)
    step1 = rel_to_uschema(schema)
    step2 = uschema_to_document(step1.target)
    root = tmp_path / "tiny"
    root.mkdir()
    (root / "schema.sql").write_text(ddl)
    for name, text in files.items():
        (root / f"{name}.csv").write_text(text)
    session = open_source(root, schema, step1.trace)
    migrate(step2.target, step1.trace, step2.trace, session, tmp_path / "out")
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
    session = open_source(root, mini["schema"], mini["step1"].trace)
    try:
        migrate(mini["step2"].target, mini["step1"].trace, mini["step2"].trace,
                session, tmp_path / "out")
    except MigrationError:
        assert fails
    else:
        assert not fails
    assert any(h.mode == "rb" for h in opened)  # a fetch handle was used
    assert all(h.closed for h in opened)
