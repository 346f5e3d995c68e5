from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_python_m_unimig_runs_the_cli(tmp_path):
    src = str(Path(unimig.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "unimig", "inject", MUSIC_SQL],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    data = json.loads(done.stdout)
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


def test_migrate_parses_the_ddl_once(tmp_path, monkeypatch, capsys):
    import unimig.cli
    import unimig.relational.ddl

    calls = []

    def counted(parse):
        def parse_ddl(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)
        return parse_ddl

    for module in (unimig.cli, unimig.relational.ddl):
        monkeypatch.setattr(module, "parse_ddl", counted(module.parse_ddl))
    source = str(FIXTURES / "music_streaming" / "mini_data")
    assert dispatch(["migrate", "--source", source,
                     "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


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
    probe = "import sys, unimig.cli; print(*sys.modules)"
    loaded = set(subprocess.run([sys.executable, "-c", probe], env=env,
                                check=True, capture_output=True,
                                text=True).stdout.split())
    assert not {m.split(".")[0] for m in loaded} & {"numpy", "scipy"}
    # modules only other verbs use: those verbs import them themselves
    assert not loaded & {
        "unimig.compare", "unimig.evolution", "unimig.datagen",
        "unimig.uschema.athena", "unimig.transforms.doc_to_us",
        "unimig.transforms.us_to_rel", "logging"}


def test_traced_benchmark_launcher_runs_a_migration(tmp_path):
    # the benchmark's traced mode wraps migrator and cursor functions by
    # name; a renamed or broken one would fail its --trace 1 runs
    src = str(Path(unimig.__file__).resolve().parents[1])
    launcher = Path(src).parent / "bench" / "launch.py"
    mini = FIXTURES / "music_streaming" / "mini_data"
    stamps = tmp_path / "stamps.json"
    done = subprocess.run(
        [sys.executable, str(launcher), "trace", str(stamps), "--", "migrate",
         "--source", str(mini), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(stamps.read_text())
    calls = {name: counts[0] for name, counts in result["layers"].items()}
    assert calls["compile_plan"] >= 1 and calls["write_batch"] >= 1
    assert {"advance", "compile_plan", "read_entity_all", "related_by_name",
            "write_batch", "open_source", "parse_ddl"} <= calls.keys()
    rows = sum(len(path.read_text().splitlines()) - 1
               for path in mini.glob("*.csv"))
    assert result["records_read"] == rows == 22
    assert result["peak_live_records"] >= 1
    # every traced sample reads the count of saved trace links
    assert result["trace_links"] > 0


def _fails_without_traceback(argv: list[str], capsys) -> str:
    """The error line of a command that exits with code 1."""
    code = dispatch(argv)
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("name,line,where", [
    ("song.csv", 2, "row 2"),
    ("song.csv", 0, "header row"),
    ("schema.sql", 3, "line 4"),
])
def test_migrate_reports_non_utf8_input(tmp_path, capsys, name, line, where):
    source = tmp_path / "data"
    shutil.copytree(FIXTURES / "music_streaming" / "mini_data", source)
    path = source / name
    lines = path.read_bytes().split(b"\n")
    lines[line] = lines[line].replace(b"e", b"\xff", 1)
    path.write_bytes(b"\n".join(lines))
    err = _fails_without_traceback(
        ["migrate", "--source", str(source), "--out", str(tmp_path / "out")],
        capsys)
    assert err == f"error: {name} ({where}): not UTF-8: invalid start byte 0xff\n"


def test_migrate_into_an_existing_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    err = _fails_without_traceback(
        ["migrate", "--source", str(FIXTURES / "music_streaming" / "mini_data"),
         "--out", str(out)], capsys)
    assert "File exists" in err


def test_emit_ddl_of_a_directory(tmp_path, capsys):
    err = _fails_without_traceback(["emit-ddl", str(tmp_path)], capsys)
    assert "Is a directory" in err


@pytest.mark.parametrize("bad,argv", [
    ("bad.sql", ["inject", "{bad}"]),
    ("bad.sql", ["diff", "{bad}", "{bad}"]),
    ("bad.orion", ["evolve", "{model}", "--script", "{bad}"]),
    ("bad.json", ["evolve", "{model}", "--script", "{script}",
                  "--trace", "{bad}"]),
], ids=["inject", "diff", "evolve-script", "evolve-trace"])
def test_model_files_report_non_utf8_input(tmp_path, capsys, bad, argv):
    path = tmp_path / bad
    path.write_bytes(b"CREATE TABLE a (x INT);\n-- \xff\n")
    names = {"bad": str(path),
             "model": str(FIXTURES / "music_streaming" / "model.athena"),
             "script": str(FIXTURES / "music_streaming" / "evolve.orion")}
    err = _fails_without_traceback([a.format(**names) for a in argv], capsys)
    assert err == f"error: {bad} (line 2): not UTF-8: invalid start byte 0xff\n"


@pytest.mark.parametrize("text,argv,message", [
    ("{not json", ["emit-ddl", "{bad}"],
     "line 1, column 2: malformed JSON: Expecting property name enclosed in "
     "double quotes"),
    ('{"kind": "relational", "model": {"tables": []}}', ["emit-ddl", "{bad}"],
     "missing or malformed field in relational model JSON: 'name'"),
    ('{"kind": "relational", "model": {"name": "m", "tables": [{"name": "t", '
     '"columns": [{"name": "a", "type": "INT"}], '
     '"keys": [{"name": "pk", "columns": ["a"]}]}]}}', ["emit-ddl", "{bad}"],
     "missing or malformed field in relational model JSON: 'isPk'"),
    ('{"kind": "uschema", "model": []}', ["emit-athena", "{bad}"],
     "malformed pivot model JSON: 'list' object has no attribute 'get'"),
    ('{"version": 1, "links": [1]}',
     ["evolve", "{model}", "--script", "{script}", "--trace", "{bad}"],
     "malformed trace link: 'int' object is not subscriptable"),
    ('{"name": "x", "documents": [1]}', ["diff", "{bad}", "{bad}"],
     "malformed document schema JSON: 'int' object has no attribute 'get'"),
    ('{"name": "x", "documents": 5}', ["diff", "{bad}", "{bad}"],
     "malformed document schema JSON: 'int' object is not iterable"),
    ('{"name": "x", "documents": [{"name": "a", "properties": [1]}]}',
     ["diff", "{bad}", "{bad}"],
     "malformed document schema JSON: 'int' object has no attribute 'get'"),
    ('{"name": "x", "documents": [{"name": ["a"], "properties": []}]}',
     ["diff", "{bad}", "{bad}"], "document type without a name"),
    # well-formed JSON of an invalid model fails where it is loaded
    ('{"kind": "relational", "model": {"name": "m", "tables": [{"name": "t", '
     '"columns": [{"name": "q", "type": "INT"}], "fkeys": [{"name": "f", '
     '"columns": ["q"], "refTable": "zz", "refColumns": ["q"]}]}]}}',
     ["emit-ddl", "{bad}"],
     "invalid relational schema: foreign key t.f references unknown table "
     "'zz'"),
    ('{"kind": "relational", "model": {"name": "m", "tables": [{"name": "t", '
     '"columns": [{"name": "c", "type": "INT"}, {"name": "c", "type": "INT"}]}]}}',
     ["emit-ddl", "{bad}"], "invalid relational schema: duplicate column t.c"),
    ('{"kind": "uschema", "model": {"name": "m", "entities": [{"name": "E", '
     '"features": [{"kind": "reference", "name": "r", "refsTo": "Nope"}]}]}}',
     ["emit-athena", "{bad}"],
     "invalid pivot model: [error] reference resolution at E.r: refsTo names "
     "unknown entity type 'Nope'"),
    ('{"name": "x", "documents": [{"name": "a", "properties": [{"kind": '
     '"reference", "name": "r", "target": "nope", "type": "STRING"}]}]}',
     ["diff", "{bad}", "{bad}"],
     "invalid document schema: reference a.r targets unknown document type "
     "'nope'"),
    ('{"kind": "relational"}', ["emit-ddl", "{bad}"],
     'relational model JSON has no "model" key'),
    ('{"kind": "uschema"}', ["emit-athena", "{bad}"],
     'pivot model JSON has no "model" key'),
], ids=["syntax", "relational-name", "relational-is-pk", "uschema-list",
        "trace-link", "docschema-document", "docschema-documents",
        "docschema-property", "docschema-document-name",
        "relational-dangling-key", "relational-duplicate-column",
        "uschema-reference", "docschema-reference", "relational-no-model",
        "uschema-no-model"])
def test_malformed_json_inputs_report_an_error(tmp_path, capsys, text, argv,
                                               message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    names = {"bad": str(bad),
             "model": str(FIXTURES / "music_streaming" / "model.athena"),
             "script": str(FIXTURES / "music_streaming" / "evolve.orion")}
    err = _fails_without_traceback([a.format(**names) for a in argv], capsys)
    assert err == f"error: {message}\n"
