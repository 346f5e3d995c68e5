"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Tolerances are pinned here; nothing is deferred to calibration.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS/FAIL lines immediately).
"""

from __future__ import annotations

import copy
import json
import random
import time
from pathlib import Path

import pytest

from util import FIXTURES, doc_universe, random_schema, random_table, scan_csv, us_universe

from unimig.cli import dispatch
from unimig.compare import diff_models, run_roundtrip
from unimig.datagen import ScaleSpec, generate_dataset
from unimig.document.schema_json import parse_docschema, print_docschema
from unimig.errors import EvolutionError
from unimig.evolution import DeleteFeature, apply_changes, parse_orion
from unimig.migrator import migrate
from unimig.relational.ddl import parse_ddl, print_ddl
from unimig.relational.model import fk_in_pk, is_mn, is_weak
from unimig.source import open_source
from unimig.trace import attach, compose, load_trace, save_trace
from unimig.transforms.rel_to_us import rel_to_uschema
from unimig.transforms.us_to_doc import uschema_to_document
from unimig.uschema.athena import parse_athena, print_athena
from unimig.uschema.model import Aggregate, USDataType


@pytest.fixture()
def check(capfd):
    """Print one PASS/FAIL line per criterion on the real stdout, then
    assert."""

    def _check(criterion: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[{status}] criterion {criterion}: {detail}", flush=True)
        assert ok, f"criterion {criterion} failed: {detail}"

    return _check


MUSIC_SQL = FIXTURES / "music_streaming" / "schema.sql"
NORTHWIND_SQL = FIXTURES / "northwind" / "schema.sql"
EXPECTED_DOC = FIXTURES / "music_streaming" / "expected.docschema.json"


# --- 1. running-example schema transform ---------------------------------------

def test_criterion_1_running_example_transform(tmp_path, check):
    us_path = tmp_path / "music.us.json"
    doc_path_ = tmp_path / "music.docschema.json"
    started = time.monotonic()
    assert dispatch(["transform", "--from", "rel", "--to", "us",
                     str(MUSIC_SQL), "-o", str(us_path)]) == 0
    assert dispatch(["transform", "--from", "us", "--to", "doc",
                     str(us_path), "-o", str(doc_path_)]) == 0
    elapsed = time.monotonic() - started

    from unimig.uschema.model import model_from_dict

    model = model_from_dict(json.loads(us_path.read_text())["model"])
    roots = {e.name for e in model.entities if e.root}
    non_roots = {e.name for e in model.entities if not e.root}
    rels = {r.name for r in model.relationships}
    user = model.entity("app_user")
    album = model.entity("album")
    structure_ok = (
        roots == {"app_user", "song", "album", "musical_style"}
        and non_roots == {"playlist", "playlist_song", "most_recent_song"}
        and rels == {"listening", "song_style"}
        and isinstance(user.feature("playlists"), Aggregate)
        and album.feature("songs").attributes == ["song_id_song"]
    )
    generated = parse_docschema(doc_path_.read_text())
    expected = parse_docschema(EXPECTED_DOC.read_text())
    differences = diff_models(generated, expected)
    check(1, structure_ok and differences == [] and elapsed < 1.0,
          f"pivot structure + empty document diff in {elapsed:.2f}s "
          f"({len(differences)} differences)")


# --- 2. round-trip entity preservation -------------------------------------------

@pytest.mark.parametrize("name,path", [
    ("music_streaming", MUSIC_SQL),
    ("northwind", NORTHWIND_SQL),
])
def test_criterion_2_roundtrip_preservation(name, path, check):
    schema = parse_ddl(path.read_text())
    started = time.monotonic()
    result = run_roundtrip(schema)
    elapsed = time.monotonic() - started
    report = result.report
    entities = report["Entities"]
    ok = (
        (entities.precision, entities.recall, entities.f1) == (1.0, 1.0, 1.0)
        and report["Attributes"].f1 >= 0.90
        and report["ForeignKeys"].f1 >= 0.85
        and report["PrimaryKeys"].recall < 1.0
        and report["DataTypes"].f1 < 1.0
        and elapsed < 5.0
    )
    check(2, ok,
          f"{name}: entities P/R/F1=1.00, attributes F1="
          f"{report['Attributes'].f1:.2f}, fkeys F1={report['ForeignKeys'].f1:.2f}, "
          f"pk recall={report['PrimaryKeys'].recall:.2f}, datatypes F1="
          f"{report['DataTypes'].f1:.2f}, {elapsed:.2f}s")


# --- 3. data conservation at S scale ---------------------------------------------

def _count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def test_criterion_3_conservation_and_throughput(s_dataset, s_migration,
                                                 tmp_path_factory, check):
    out = s_migration["out"]
    report = s_migration["report"]

    users = [json.loads(line)
             for line in (out / "app_user.jsonl").read_text().splitlines()]
    embedded_playlists = sum(len(u.get("playlists", [])) for u in users)
    embedded_playlist_songs = sum(
        len(p.get("playlist_songs", []))
        for u in users for p in u.get("playlists", []))
    embedded_recents = sum(len(u.get("most_recent_songs", [])) for u in users)

    counts_ok = (
        len(users) == 1_000
        and _count_lines(out / "listening.jsonl") == 50_000
        and _count_lines(out / "song.jsonl") == 5_000
        and embedded_playlists == 10_000
        and embedded_playlist_songs == 200_000
        and embedded_recents == 10_000
    )
    s_elapsed = report.total_elapsed_ms / 1000.0
    runtime_ok = s_elapsed < 600.0

    # throughput stability against the next scale up
    m_dir = tmp_path_factory.mktemp("m_scale")
    generate_dataset(ScaleSpec("M", 42), m_dir / "data")
    schema = parse_ddl((m_dir / "data" / "schema.sql").read_text())
    step1 = rel_to_uschema(schema)
    step2 = uschema_to_document(step1.target)
    session = open_source(m_dir / "data", schema, step1.trace)
    m_report = migrate(step2.target, step2.trace, session, m_dir / "out")
    tp_s = report.throughput_rows_per_s
    tp_m = m_report.throughput_rows_per_s
    throughput_ok = 0.5 * tp_s <= tp_m <= 1.5 * tp_s

    # which phase moved when the ratio leaves its bound: index pass or writes
    phases = "; ".join(
        f"{scale} index {r.index_ms:.0f} ms, write "
        f"{r.total_elapsed_ms - r.index_ms:.0f} ms"
        for scale, r in (("S", report), ("M", m_report)))
    check(3, counts_ok and runtime_ok and throughput_ok,
          f"S counts exact (users=1000, listening=50000, song=5000, "
          f"playlists=10000, playlist_songs=200000, recents=10000) in "
          f"{s_elapsed:.1f}s; throughput S={tp_s:.0f} vs M={tp_m:.0f} rows/s "
          f"({phases})")


# --- 4. instance oracle ------------------------------------------------------------

def test_criterion_4_instance_oracle(s_dataset, s_migration, check):
    out = s_migration["out"]
    rng = random.Random(42)

    users = {}
    for line in (out / "app_user.jsonl").read_text().splitlines():
        doc = json.loads(line)
        users[doc["user_id"]] = doc

    playlists_by_user: dict[str, list[dict]] = {}
    for row in scan_csv(s_dataset / "playlist.csv"):
        playlists_by_user.setdefault(row["user_id"], []).append(row)
    songs_by_playlist: dict[tuple[str, str], list[dict]] = {}
    for row in scan_csv(s_dataset / "playlist_song.csv"):
        key = (row["user_id"], row["playlist_id"])
        songs_by_playlist.setdefault(key, []).append(row)

    mismatches = 0
    for user_id in rng.sample(sorted(users), 100):
        doc = users[user_id]
        expected_playlists = {
            (r["playlist_id"], r["name"], r["creation_date"])
            for r in playlists_by_user.get(user_id, [])}
        got_playlists = {
            (p["playlist_id"], p["name"], p["creation_date"])
            for p in doc.get("playlists", [])}
        if expected_playlists != got_playlists:
            mismatches += 1
            continue
        for playlist in doc.get("playlists", []):
            expected_songs = {
                (int(r["position_idx"]), r["song_id"])
                for r in songs_by_playlist.get(
                    (user_id, playlist["playlist_id"]), [])}
            got_songs = {(p["position_idx"], p["song_id"])
                         for p in playlist.get("playlist_songs", [])}
            if expected_songs != got_songs:
                mismatches += 1

    listening_rows = {
        (r["user_id"], r["song_id"]): r
        for r in scan_csv(s_dataset / "listening.csv")}
    listening_docs = [json.loads(line) for line in
                      (out / "listening.jsonl").read_text().splitlines()]
    for doc in rng.sample(listening_docs, 100):
        row = listening_rows.get((doc["user_id"], doc["song_id"]))
        if row is None:
            mismatches += 1
            continue
        if int(row["plays_count"]) != doc["plays_count"]:
            mismatches += 1
        expected_status = row["status"] if row["status"] != "" else None
        if doc.get("status") != expected_status:
            mismatches += 1
        if doc["listening_id"] != f'{doc["user_id"]}#{doc["song_id"]}':
            mismatches += 1

    check(4, mismatches == 0,
          f"100 user documents + 100 listening documents against the naive "
          f"CSV join: {mismatches} mismatches")


# --- 5. trace totality and composition ----------------------------------------------

def test_criterion_5_trace_totality_and_composition(check):
    schemas = [parse_ddl(MUSIC_SQL.read_text()),
               parse_ddl(NORTHWIND_SQL.read_text())]
    rng = random.Random(20240601)
    schemas.extend(random_schema(rng) for _ in range(50))

    failures = []
    for schema in schemas:
        step1 = rel_to_uschema(schema)
        step2 = uschema_to_document(step1.target)
        missing_us = us_universe(step1.target) - step1.trace.target_ids()
        missing_doc = doc_universe(step2.target) - step2.trace.target_ids()
        if missing_us or missing_doc:
            failures.append((schema.name, missing_us or missing_doc))
            continue
        joined = compose(step1.trace, step2.trace)
        for document in step2.target.documents:
            sources = {
                s for link in joined.lookup(f"doc:{document.name}", "backward")
                for s in link.sources}
            tables = {s for s in sources
                      if s.count(".") == 0 and schema.has_table(s.split(":")[1])}
            if len(tables) != 1:
                failures.append((schema.name, document.name, tables))
    check(5, not failures,
          f"totality + collection-to-table composition over 2 fixtures and "
          f"50 generated schemas ({len(failures)} failures)")


# --- 6. evolution consistency ----------------------------------------------------------

def test_criterion_6_evolution_consistency(check):
    model = parse_athena((FIXTURES / "music_streaming" / "model.athena").read_text())
    script = parse_orion((FIXTURES / "music_streaming" / "evolve.orion").read_text())

    from unimig.trace import TraceStore

    trace = TraceStore()
    for element_id in sorted(us_universe(model)):
        trace.add("rel:origin", element_id, "R0")

    evolved, rewritten = apply_changes(model, script, trace)
    song = evolved.entity("Song")
    styles = song.feature("styles")
    evolved_ok = (
        evolved.has_type("AppUser") and not evolved.has_type("User")
        and song.feature("length").type == USDataType("Integer")
        and isinstance(styles, Aggregate)
        and all(f.name != "status" for f in evolved.entity("Listening").features)
    )
    attach(rewritten, us=evolved)  # raises if any rewritten id dangles

    before_model = copy.deepcopy(model)
    before_links = list(trace.links)
    atomic_ok = False
    try:
        apply_changes(model, [DeleteFeature("Song", "missing")], trace)
    except EvolutionError:
        atomic_ok = model == before_model and trace.links == before_links
    check(6, evolved_ok and atomic_ok,
          "script applied (AppUser, length:Integer, styles aggregate, status "
          "deleted), ids re-attach, errors leave inputs untouched")


# --- 7. predicate unit suite --------------------------------------------------------------

def test_criterion_7_predicates(check):
    schema = parse_ddl(MUSIC_SQL.read_text())
    table3a_ok = (
        is_weak(schema.table("playlist"))
        and is_weak(schema.table("playlist_song"))
        and is_mn(schema.table("listening"))
        and not is_weak(schema.table("app_user"))
        and not is_mn(schema.table("app_user"))
    )
    rng = random.Random(12345)
    exclusive = True
    for _ in range(1000):
        table = random_table(rng)
        if is_weak(table) and is_mn(table):
            exclusive = False
            break
        in_pk = sum(1 for fk in table.fkeys if fk_in_pk(table, fk))
        if is_weak(table) != (in_pk == 1) or is_mn(table) != (in_pk >= 2):
            exclusive = False
            break
    check(7, table3a_ok and exclusive,
          "running-example classifications + mutual exclusion over 1000 "
          "random tables")


# --- 8. serialization identities ------------------------------------------------------------

def test_criterion_8_serialization_identities(check):
    failures = []

    athena_text = (FIXTURES / "music_streaming" / "model.athena").read_text()
    model = parse_athena(athena_text)
    if parse_athena(print_athena(model)) != model:
        failures.append("athena")

    for path in (MUSIC_SQL, NORTHWIND_SQL,
                 FIXTURES / "music_streaming" / "mini_data" / "schema.sql"):
        schema = parse_ddl(path.read_text())
        if parse_ddl(print_ddl(schema)) != schema:
            failures.append(f"ddl:{path.name}")

    doc = parse_docschema(EXPECTED_DOC.read_text())
    if parse_docschema(print_docschema(doc)) != doc:
        failures.append("docschema")

    for name, sql in (("music", MUSIC_SQL), ("northwind", NORTHWIND_SQL)):
        step1 = rel_to_uschema(parse_ddl(sql.read_text()))
        step2 = uschema_to_document(step1.target)
        for tag, trace in (("t1", step1.trace), ("t2", step2.trace)):
            loaded = load_trace(save_trace(trace))
            same = [(l.sources, l.targets, l.rule, l.role)
                    for l in loaded.links] == \
                   [(l.sources, l.targets, l.rule, l.role)
                    for l in trace.links]
            if not same:
                failures.append(f"trace:{name}:{tag}")

    check(8, not failures,
          f"parse/print identity for the textual notation, DDL, document "
          f"schema JSON and trace JSON on all fixtures "
          f"({', '.join(failures) if failures else 'zero diffs'})")
