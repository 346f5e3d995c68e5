from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from util import FIXTURES

import unimig
from unimig.cli import dispatch, load_model

MUSIC_SQL = str(FIXTURES / "music_streaming" / "schema.sql")


def test_inject_writes_model_file(tmp_path):
    out = tmp_path / "rel.model.json"
    assert dispatch(["inject", MUSIC_SQL, "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "relational"
    assert data["model"]["name"] == "music_streaming"


def test_inject_emit_ddl_round_trip(tmp_path, music_schema):
    model = tmp_path / "rel.model.json"
    ddl = tmp_path / "schema.sql"
    assert dispatch(["inject", MUSIC_SQL, "-o", str(model)]) == 0
    assert dispatch(["emit-ddl", str(model), "-o", str(ddl)]) == 0
    assert load_model(str(ddl)) == music_schema


def test_transform_chain_and_diff(tmp_path):
    us = tmp_path / "m.us.json"
    doc = tmp_path / "m.docschema.json"
    t1 = tmp_path / "t1.trace.json"
    t2 = tmp_path / "t2.trace.json"
    assert dispatch(["transform", "--from", "rel", "--to", "us",
                     MUSIC_SQL, "-o", str(us), "--trace", str(t1)]) == 0
    assert dispatch(["transform", "--from", "us", "--to", "doc",
                     str(us), "-o", str(doc), "--trace", str(t2)]) == 0
    expected = str(FIXTURES / "music_streaming" / "expected.docschema.json")
    assert dispatch(["diff", str(doc), expected]) == 0


def test_transform_unsupported_pair(tmp_path, capsys):
    code = dispatch(["transform", "--from", "doc", "--to", "rel", MUSIC_SQL])
    assert code == 1
    assert "no transformation" in capsys.readouterr().err


def test_emit_athena(tmp_path):
    us = tmp_path / "m.us.json"
    athena = tmp_path / "m.athena"
    dispatch(["transform", "--from", "rel", "--to", "us", MUSIC_SQL,
              "-o", str(us)])
    assert dispatch(["emit-athena", str(us), "-o", str(athena)]) == 0
    assert "playlists: Aggr<playlist>" in athena.read_text()


def test_evolve_script(tmp_path):
    model = str(FIXTURES / "music_streaming" / "model.athena")
    script = str(FIXTURES / "music_streaming" / "evolve.orion")
    out = tmp_path / "evolved.us.json"
    assert dispatch(["evolve", model, "--script", script,
                     "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    names = [e["name"] for e in data["model"]["entities"]]
    assert "AppUser" in names and "User" not in names


def test_roundtrip_markdown_report(tmp_path):
    out = tmp_path / "report.md"
    assert dispatch(["roundtrip", MUSIC_SQL, "--report", "md",
                     "-o", str(out)]) == 0
    assert "| Entities | 1.00 | 1.00 | 1.00 |" in out.read_text()


def test_migrate_mini_dataset(tmp_path, capsys):
    source = str(FIXTURES / "music_streaming" / "mini_data")
    out = tmp_path / "migrated"
    assert dispatch(["migrate", "--source", source, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["collections"] == {
        "app_user": 2, "song": 3, "musical_style": 2,
        "listening": 3, "song_style": 4}
    assert (out / "t1.trace.json").exists()
    assert (out / "target.docschema.json").exists()


def test_migrate_rejects_connection_urls(tmp_path, capsys):
    code = dispatch(["migrate", "--source", "x", "--out", "y",
                     "--source-url", "postgres://db"])
    assert code == 1
    assert "not" in capsys.readouterr().err


def test_generate_dataset_requires_valid_scale(capsys):
    assert dispatch(["generate-dataset", "--scale", "XXL", "--out", "/tmp/x"]) == 2


def test_unknown_flag_is_usage_error():
    assert dispatch(["inject", "--frobnicate"]) == 2


def test_unknown_command_is_usage_error():
    assert dispatch(["explode"]) == 2


def test_domain_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.sql"
    bad.write_text("CREATE TABLE a (x WOBBLE);")
    assert dispatch(["inject", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert dispatch(["inject", "/nonexistent/schema.sql"]) == 1


def test_migrate_rejects_out_of_range_smallint(tmp_path, capsys, northwind_schema):
    # Northwind declares order_id SMALLINT, which ends at 32767
    source = tmp_path / "northwind"
    source.mkdir()
    shutil.copy(FIXTURES / "northwind" / "schema.sql", source / "schema.sql")
    for table in northwind_schema.tables:
        columns = [c.name for c in table.columns]
        text = ",".join(columns) + "\n"
        if table.name == "orders":
            text += ",".join("40000" if c == "order_id" else "" for c in columns)
            text += "\n"
        (source / f"{table.name}.csv").write_text(text)
    code = dispatch(["migrate", "--source", str(source),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert ("orders.csv (row 1), column 'order_id': 40000 is out of "
            "SMALLINT range") in capsys.readouterr().err


def test_cli_import_loads_no_numeric_packages():
    src = str(Path(unimig.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, unimig.cli; print(sorted({m.split('.')[0] for m in "
             "sys.modules} & {'numpy', 'scipy'}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
