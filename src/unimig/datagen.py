"""Deterministic generator for the music-streaming benchmark datasets.

Scale factors S/M/L multiply the user and song populations by 1/10/100
over a base of 1,000 users and 5,000 songs. Fan-out per user is fixed
(10 playlists of 20 songs, 50 listenings over distinct songs, 10 recent
songs) so the dependent table sizes are exact; the per-song style count
cycles 1,2,3 with the song index. All row content is derived from indices
or from one seeded RNG, which makes identical (scale, seed) runs
byte-identical.
"""

from __future__ import annotations

import csv
import json
import random
from datetime import datetime, timedelta
from pathlib import Path

from unimig.errors import MigrationError
from unimig.record import record

SCALE_FACTORS = {"S": 1, "M": 10, "L": 100}
BASE_USERS = 1_000
BASE_SONGS = 5_000
STYLES = 25
PLAYLISTS_PER_USER = 10
SONGS_PER_PLAYLIST = 20
LISTENINGS_PER_USER = 50
RECENT_PER_USER = 10

_EPOCH = datetime(2025, 1, 1, 0, 0, 0)
_STATUSES = ("completed", "paused", "skipped")

# The data files carry the schema they conform to: the eight benchmark
# tables (the schema fixture's album table has no generated data).
DATASET_DDL = """\
-- schema: music_streaming
CREATE TABLE app_user (
  user_id       CHAR(36)    NOT NULL,
  name          VARCHAR(80) NOT NULL,
  is_premium    BOOLEAN     DEFAULT false,
  register_date DATE        NOT NULL,
  CONSTRAINT user_pk PRIMARY KEY (user_id),
  CONSTRAINT user_name_ak UNIQUE (name)
);

CREATE TABLE playlist (
  playlist_id   CHAR(36)    NOT NULL,
  user_id       CHAR(36)    NOT NULL,
  name          VARCHAR(30),
  creation_date DATE        NOT NULL,
  CONSTRAINT pl_pk PRIMARY KEY (user_id, playlist_id),
  CONSTRAINT pl_user FOREIGN KEY (user_id) REFERENCES app_user (user_id)
);

CREATE TABLE playlist_song (
  playlist_id  CHAR(36) NOT NULL,
  user_id      CHAR(36) NOT NULL,
  position_idx INT      NOT NULL,
  song_id      CHAR(36) NOT NULL,
  CONSTRAINT pls_pk PRIMARY KEY (user_id, playlist_id, position_idx),
  CONSTRAINT pls_playlist FOREIGN KEY (user_id, playlist_id)
    REFERENCES playlist (user_id, playlist_id),
  CONSTRAINT pls_song FOREIGN KEY (song_id) REFERENCES song (song_id)
);

CREATE TABLE listening (
  user_id     CHAR(36) NOT NULL,
  song_id     CHAR(36) NOT NULL,
  plays_count INT      NOT NULL,
  status      VARCHAR(10),
  CONSTRAINT listening_pk PRIMARY KEY (user_id, song_id),
  CONSTRAINT listening_user FOREIGN KEY (user_id) REFERENCES app_user (user_id),
  CONSTRAINT listening_song FOREIGN KEY (song_id) REFERENCES song (song_id)
);

CREATE TABLE song (
  song_id     CHAR(36)     NOT NULL,
  title       VARCHAR(80)  NOT NULL,
  duration    DECIMAL(4,2) NOT NULL,
  artist      VARCHAR(80),
  plays_count INT          NOT NULL,
  CONSTRAINT song_pk PRIMARY KEY (song_id)
);

CREATE TABLE musical_style (
  style_id CHAR(36)    NOT NULL,
  name     VARCHAR(30) NOT NULL,
  CONSTRAINT style_pk PRIMARY KEY (style_id)
);

CREATE TABLE song_style (
  song_id  CHAR(36) NOT NULL,
  style_id CHAR(36) NOT NULL,
  CONSTRAINT ss_pk PRIMARY KEY (song_id, style_id),
  CONSTRAINT ss_song FOREIGN KEY (song_id) REFERENCES song (song_id),
  CONSTRAINT ss_style FOREIGN KEY (style_id) REFERENCES musical_style (style_id)
);

CREATE TABLE most_recent_song (
  user_id      CHAR(36) NOT NULL,
  position_idx INT      NOT NULL,
  song_id      CHAR(36) NOT NULL,
  CONSTRAINT mrs_pk PRIMARY KEY (user_id, position_idx),
  CONSTRAINT mrs_user FOREIGN KEY (user_id) REFERENCES app_user (user_id),
  CONSTRAINT mrs_song FOREIGN KEY (song_id) REFERENCES song (song_id)
);
"""


@record(frozen=True)
class ScaleSpec:
    scale: str
    seed: int

    def __post_init__(self) -> None:
        if self.scale not in SCALE_FACTORS:
            raise MigrationError(f"scale must be one of {sorted(SCALE_FACTORS)}")


def expected_counts(scale: str) -> dict[str, int]:
    factor = SCALE_FACTORS[scale]
    users = BASE_USERS * factor
    songs = BASE_SONGS * factor
    return {
        "app_user": users,
        "playlist": users * PLAYLISTS_PER_USER,
        "playlist_song": users * PLAYLISTS_PER_USER * SONGS_PER_PLAYLIST,
        "listening": users * LISTENINGS_PER_USER,
        "song": songs,
        "musical_style": STYLES,
        "song_style": sum((i % 3) + 1 for i in range(songs)),
        "most_recent_song": users * RECENT_PER_USER,
    }


def _stamp(hours: int) -> str:
    return (_EPOCH + timedelta(hours=hours % 87_600)).strftime("%Y-%m-%d %H:%M:%S")


class _Writer:
    def __init__(self, out_dir: Path, table: str, header: list[str]):
        self.path = out_dir / f"{table}.csv"
        self.handle = open(self.path, "w", newline="", encoding="utf-8")
        self.writer = csv.writer(self.handle, lineterminator="\n")
        self.writer.writerow(header)
        self.count = 0

    def row(self, values: list) -> None:
        self.writer.writerow(values)
        self.count += 1

    def rows(self, rows: list[list]) -> None:
        self.writer.writerows(rows)
        self.count += len(rows)

    def close(self) -> int:
        self.handle.close()
        return self.count


def generate_dataset(spec: ScaleSpec, out_dir: Path | str) -> dict:
    """Write the CSV dataset plus ``schema.sql`` and a manifest; returns the
    manifest dict."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(spec.seed)
    factor = SCALE_FACTORS[spec.scale]
    n_users = BASE_USERS * factor
    n_songs = BASE_SONGS * factor

    (out_dir / "schema.sql").write_text(DATASET_DDL, encoding="utf-8")
    song_ids = [f"s{i + 1:06d}" for i in range(n_songs)]
    stamps = [_stamp(h) for h in range(n_users + PLAYLISTS_PER_USER)]

    songs = _Writer(out_dir, "song",
                    ["song_id", "title", "duration", "artist", "plays_count"])
    for i in range(n_songs):
        songs.row([song_ids[i], f"song_{i}",
                   f"{(180 + (i * 13) % 420) / 100:.2f}",
                   f"artist_{i % 200}", (i * 7) % 1000])

    styles = _Writer(out_dir, "musical_style", ["style_id", "name"])
    for i in range(STYLES):
        styles.row([f"st{i + 1:04d}", f"style_{i}"])

    song_style = _Writer(out_dir, "song_style", ["song_id", "style_id"])
    for i in range(n_songs):
        for style_index in sorted(rng.sample(range(STYLES), (i % 3) + 1)):
            song_style.row([song_ids[i], f"st{style_index + 1:04d}"])

    users = _Writer(out_dir, "app_user",
                    ["user_id", "name", "is_premium", "register_date"])
    playlists = _Writer(out_dir, "playlist",
                        ["playlist_id", "user_id", "name", "creation_date"])
    playlist_songs = _Writer(out_dir, "playlist_song",
                             ["playlist_id", "user_id", "position_idx", "song_id"])
    listenings = _Writer(out_dir, "listening",
                         ["user_id", "song_id", "plays_count", "status"])
    recents = _Writer(out_dir, "most_recent_song",
                      ["user_id", "position_idx", "song_id"])

    for u in range(n_users):
        user_id = f"u{u + 1:06d}"
        users.row([user_id, f"user_{u}",
                   "true" if u % 3 == 0 else "false", stamps[u]])
        for p in range(PLAYLISTS_PER_USER):
            playlist_id = f"p{p + 1:06d}"
            playlists.row([playlist_id, user_id, f"playlist_{p}", stamps[u + p]])
            playlist_songs.rows([[playlist_id, user_id, position,
                                  song_ids[rng.randrange(n_songs)]]
                                 for position in range(1, SONGS_PER_PLAYLIST + 1)])
        for song_index in sorted(rng.sample(range(n_songs), LISTENINGS_PER_USER)):
            listenings.row([user_id, song_ids[song_index],
                            rng.randint(1, 50), rng.choice(_STATUSES)])
        for position in range(1, RECENT_PER_USER + 1):
            recents.row([user_id, position, song_ids[rng.randrange(n_songs)]])

    counts = {
        "song": songs.close(),
        "musical_style": styles.close(),
        "song_style": song_style.close(),
        "app_user": users.close(),
        "playlist": playlists.close(),
        "playlist_song": playlist_songs.close(),
        "listening": listenings.close(),
        "most_recent_song": recents.close(),
    }
    manifest = {
        "scale": spec.scale,
        "seed": spec.seed,
        "counts": counts,
        "files": sorted(p.name for p in out_dir.iterdir() if p.suffix == ".csv"),
    }
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    tmp.replace(out_dir / "manifest.json")
    return manifest
