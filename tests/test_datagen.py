from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from util import scan_csv

from unimig.datagen import ScaleSpec, expected_counts, generate_dataset
from unimig.errors import MigrationError
from unimig.relational.ddl import parse_ddl


def test_expected_counts_table():
    s = expected_counts("S")
    assert s == {
        "app_user": 1_000,
        "playlist": 10_000,
        "playlist_song": 200_000,
        "listening": 50_000,
        "song": 5_000,
        "musical_style": 25,
        "song_style": 9_999,  # sum((i % 3) + 1 for i in range(5000))
        "most_recent_song": 10_000,
    }
    assert s["song_style"] == sum((i % 3) + 1 for i in range(5_000))
    m = expected_counts("M")
    assert m["app_user"] == 10_000 and m["playlist_song"] == 2_000_000
    assert m["song_style"] == sum((i % 3) + 1 for i in range(50_000))


def test_invalid_scale_rejected():
    with pytest.raises(MigrationError, match="scale"):
        ScaleSpec("XL", 1)


def test_generated_counts_match(s_dataset):
    manifest = json.loads((s_dataset / "manifest.json").read_text())
    assert manifest["counts"] == expected_counts("S")
    assert manifest["scale"] == "S" and manifest["seed"] == 42
    # file row counts agree with the manifest
    with open(s_dataset / "listening.csv") as handle:
        rows = sum(1 for _ in handle) - 1
    assert rows == 50_000


def test_dataset_ddl_matches_schema_fixture_tables(s_dataset):
    schema = parse_ddl((s_dataset / "schema.sql").read_text())
    assert [t.name for t in schema.tables] == [
        "app_user", "playlist", "playlist_song", "listening", "song",
        "musical_style", "song_style", "most_recent_song"]
    assert schema.name == "music_streaming"
    # the checked-in mini fixture carries the identical dataset schema
    from util import FIXTURES

    mini = parse_ddl(
        (FIXTURES / "music_streaming" / "mini_data" / "schema.sql").read_text())
    assert mini == schema


def _tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.iterdir()):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_determinism_byte_identical(s_dataset, tmp_path):
    again = tmp_path / "again"
    generate_dataset(ScaleSpec("S", 42), again)
    assert _tree_digest(again) == _tree_digest(s_dataset)


def test_different_seed_changes_content(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_dataset(ScaleSpec("S", 1), a)
    generate_dataset(ScaleSpec("S", 2), b)
    assert (a / "listening.csv").read_bytes() != (b / "listening.csv").read_bytes()


def test_referential_integrity_by_naive_scan(s_dataset):
    songs = {r["song_id"] for r in scan_csv(s_dataset / "song.csv")}
    users = {r["user_id"] for r in scan_csv(s_dataset / "app_user.csv")}
    styles = {r["style_id"] for r in scan_csv(s_dataset / "musical_style.csv")}
    playlists = {(r["user_id"], r["playlist_id"])
                 for r in scan_csv(s_dataset / "playlist.csv")}

    for row in scan_csv(s_dataset / "playlist.csv"):
        assert row["user_id"] in users
    for row in scan_csv(s_dataset / "playlist_song.csv"):
        assert (row["user_id"], row["playlist_id"]) in playlists
        assert row["song_id"] in songs
    for row in scan_csv(s_dataset / "listening.csv"):
        assert row["user_id"] in users and row["song_id"] in songs
    for row in scan_csv(s_dataset / "song_style.csv"):
        assert row["song_id"] in songs and row["style_id"] in styles
    for row in scan_csv(s_dataset / "most_recent_song.csv"):
        assert row["user_id"] in users and row["song_id"] in songs


def test_listening_songs_distinct_per_user(s_dataset):
    seen: set[tuple[str, str]] = set()
    for row in scan_csv(s_dataset / "listening.csv"):
        key = (row["user_id"], row["song_id"])
        assert key not in seen  # primary key of the associative table
        seen.add(key)
