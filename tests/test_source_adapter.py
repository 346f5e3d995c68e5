from __future__ import annotations

import shutil

import pytest

from util import scan_filter

from unimig.errors import SourceError
from unimig.relational.ddl import parse_ddl
from unimig.source import (
    close,
    cursor_advance,
    cursor_related,
    cursor_value,
    open_source,
    read_entity_all,
    record_id,
)
from unimig.trace import REF_FORWARD, REF_REVERSE, id_segments
from unimig.transforms import rel_to_uschema


@pytest.fixture(scope="module")
def mini(mini_root):
    schema = parse_ddl((mini_root / "schema.sql").read_text())
    step1 = rel_to_uschema(schema)
    return {"root": mini_root, "schema": schema, "result": step1}


@pytest.fixture()
def session(mini):
    s = open_source(mini["root"], mini["schema"], mini["result"].trace)
    yield s
    close(s)


def test_open_session_counts_tables(session):
    assert len(session._files) == 8
    assert session._files["app_user"].row_count == 2
    assert session._files["listening"].row_count == 3


def test_missing_table_file_rejected(mini, tmp_path):
    broken = tmp_path / "broken"
    shutil.copytree(mini["root"], broken)
    (broken / "listening.csv").unlink()
    with pytest.raises(SourceError, match="listening"):
        open_source(broken, mini["schema"], mini["result"].trace)


def test_header_mismatch_rejected(mini, tmp_path):
    broken = tmp_path / "badheader"
    shutil.copytree(mini["root"], broken)
    text = (broken / "song.csv").read_text().splitlines()
    text[0] = "song_id,title,duration,artist"
    (broken / "song.csv").write_text("\n".join(text) + "\n")
    with pytest.raises(SourceError, match="header"):
        open_source(broken, mini["schema"], mini["result"].trace)


def test_empty_tables_open_with_zero_counts(mini, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    shutil.copy(mini["root"] / "schema.sql", empty / "schema.sql")
    for table in mini["schema"].tables:
        header = ",".join(c.name for c in table.columns)
        (empty / f"{table.name}.csv").write_text(header + "\n")
    session = open_source(empty, mini["schema"], mini["result"].trace)
    assert all(f.row_count == 0 for f in session._files.values())
    cursor = read_entity_all(session, "app_user")
    assert cursor.has_data() is False


def _replace_line(root, table, n, text):
    lines = (root / f"{table}.csv").read_text().splitlines()
    lines[n] = text
    (root / f"{table}.csv").write_text("\n".join(lines) + "\n")


# playlist rows are read by runs as aggregate children, app_user rows
# only streamed
@pytest.mark.parametrize("table,row,line", [
    ("playlist", 1, 'p001,u001,"indi\n90s",2026-08-26 18:20:00'),
    ("app_user", 2, 'u002,"Bob\nSmith",false,2025-03-01 10:00:00'),
    ("playlist", 1, 'p001,u001,"indi\r90s",2026-08-26 18:20:00'),
])
def test_line_break_in_field_rejected_at_open(mini, tmp_path, table, row, line):
    broken = tmp_path / "linebreak"
    shutil.copytree(mini["root"], broken)
    _replace_line(broken, table, row, line)
    with pytest.raises(SourceError,
                       match=rf"{table}\.csv \(row {row}\): .*line break"):
        open_source(broken, mini["schema"], mini["result"].trace)


@pytest.mark.parametrize("line,found", [
    ("u001,s002,3", 3),
    ("u001,s002,3,paused,extra", 5),
])
def test_short_or_long_row_rejected_at_open(mini, tmp_path, line, found):
    broken = tmp_path / "width"
    shutil.copytree(mini["root"], broken)
    _replace_line(broken, "listening", 2, line)
    with pytest.raises(SourceError, match=rf"listening\.csv \(row 2\): "
                                          rf"expected 4 fields, found {found}"):
        open_source(broken, mini["schema"], mini["result"].trace)


def test_unreadable_csv_record_rejected_at_open(mini, tmp_path):
    broken = tmp_path / "huge"
    shutil.copytree(mini["root"], broken)
    _replace_line(broken, "musical_style", 2, "st0002," + "x" * 200_000)
    with pytest.raises(SourceError,
                       match=r"musical_style\.csv \(line 3\): field larger"):
        open_source(broken, mini["schema"], mini["result"].trace)


def test_bare_carriage_returns_rejected_at_open(mini, tmp_path):
    # csv also ends lines at a bare carriage return, but runs of rows are
    # found by the byte offsets of line feeds. A table read by runs with CR
    # line ends and a streamed one with a single CR both fail before
    # migration.
    rewrites = {"playlist": lambda text: text.replace("\n", "\r"),
                "app_user": lambda text: text.replace(":30\n", ":30\r")}
    for table, rewrite in rewrites.items():
        broken = tmp_path / table
        shutil.copytree(mini["root"], broken)
        path = broken / f"{table}.csv"
        path.write_text(rewrite(path.read_text()))
        with pytest.raises(SourceError,
                           match=rf"{table}\.csv: .*bare carriage return"):
            open_source(broken, mini["schema"], mini["result"].trace)


def test_schema_disagreement_rejected(mini, tmp_path, music_schema):
    with pytest.raises(SourceError, match="disagrees"):
        open_source(mini["root"], music_schema,
                    rel_to_uschema(music_schema).trace)


def test_cursor_values(session, mini):
    model = mini["result"].target
    user = model.entity("app_user")
    cursor = read_entity_all(session, user)
    assert cursor_value(cursor, user.feature("name")) == "Alice"
    assert cursor_value(cursor, user.feature("is_premium")) is True
    assert cursor_value(cursor, user.feature("user_pk")) == "u001"


def test_empty_field_reads_as_null(session, mini):
    listening = mini["result"].target.relationship("listening")
    cursor = read_entity_all(session, listening)
    rows = []
    while cursor.has_data():
        rows.append(cursor_value(cursor, listening.feature("status")))
        cursor_advance(cursor)
    assert rows == ["completed", "paused", None]


def test_composite_key_returns_tuple(session, mini):
    model = mini["result"].target
    playlist = model.entity("playlist")
    user = model.entity("app_user")
    users = read_entity_all(session, user)
    playlists = cursor_related(users, user.feature("playlists"))
    assert cursor_value(playlists, playlist.feature("pl_pk")) == ("u001", "p001")
    # oracle: the naive scan agrees
    raw = scan_filter(mini["root"] / "playlist.csv",
                      lambda r: r["user_id"] == "u001")
    assert {(r["user_id"], r["playlist_id"]) for r in raw} == {
        ("u001", "p001"), ("u001", "p002")}


def test_aggregate_children_in_key_order(session, mini):
    model = mini["result"].target
    user = model.entity("app_user")
    users = read_entity_all(session, user)
    playlists = cursor_related(users, user.feature("playlists"))
    seen = []
    while playlists.has_data():
        seen.append(playlists.raw_value("playlist_id"))
        cursor_advance(playlists)
    assert seen == ["p001", "p002"]


def test_forward_reference_resolves_zero_or_one(session, mini):
    model = mini["result"].target
    playlist = model.entity("playlist")
    pls = model.entity("playlist_song")
    user = model.entity("app_user")
    users = read_entity_all(session, user)
    playlists = cursor_related(users, user.feature("playlists"))
    songs = cursor_related(playlists, playlist.feature("playlist_songs"))
    related = cursor_related(songs, pls.feature("song"))
    assert related.has_data()
    assert related.raw_value("title") == "Creep"  # s002 on position 1
    close(related)


def test_forward_reference_with_null_fk_is_empty(mini, tmp_path):
    text = (
        "CREATE TABLE target (id INT PRIMARY KEY, v INT);"
        "CREATE TABLE holder (id INT PRIMARY KEY, t_id INT, UNIQUE (t_id),"
        "  FOREIGN KEY (t_id) REFERENCES target (id));")
    schema = parse_ddl(text)
    result = rel_to_uschema(schema)
    root = tmp_path / "nulls"
    root.mkdir()
    (root / "schema.sql").write_text(text)
    (root / "target.csv").write_text("id,v\n1,10\n")
    (root / "holder.csv").write_text("id,t_id\n1,\n2,1\n")
    session = open_source(root, schema, result.trace)
    holder = result.target.entity("holder")
    cursor = read_entity_all(session, holder)
    related = cursor_related(cursor, holder.feature("target"))
    assert related.has_data() is False  # NULL fk resolves to nothing
    cursor_advance(cursor)
    related = cursor_related(cursor, holder.feature("target"))
    assert related.raw_value("v") == 10
    close(session)


def test_related_ids_match_related_records(session, mini):
    references = [id_segments(link.targets[0])
                  for link in mini["result"].trace.links
                  if link.role in (REF_FORWARD, REF_REVERSE)]
    assert references  # playlist_song.song, most_recent_song.song
    for type_name, feature in references:
        cursor = read_entity_all(session, type_name)
        while cursor.has_data():
            related = cursor.related_by_name(feature)
            via_records = []
            while related.has_data():
                via_records.append(record_id(related.id_values()))
                cursor_advance(related)
            assert cursor.related_ids(feature) == via_records
            cursor_advance(cursor)


def test_related_ids_reject_non_references(session, mini):
    users = read_entity_all(session, "app_user")
    with pytest.raises(SourceError, match="not a reference"):
        users.related_ids("playlists")


def test_relationship_side_exposes_opposite_ids(session, mini):
    model = mini["result"].target
    song = model.entity("song")
    cursor = read_entity_all(session, song)
    while cursor.raw_value("song_id") != "s007":
        cursor_advance(cursor)
    side = cursor_related(cursor, song.feature("listening_user"))
    assert side.raw_value("user_id") == "u001"
    assert side.raw_value("plays_count") == 7
    assert side.raw_value("status") == "completed"
    assert cursor_value(side, model.relationship("listening")
                        .feature("plays_count")) == 7


def test_reverse_reference_direction(mini, tmp_path, music_schema, music_step1):
    # album.songs walks song rows pointing back at the album; build a tiny
    # dataset for the nine-table fixture schema
    root = tmp_path / "withalbum"
    root.mkdir()
    from unimig.relational.ddl import print_ddl

    (root / "schema.sql").write_text(print_ddl(music_schema))
    rows = {
        "app_user": "user_id,name,is_premium,register_date\nu1,A,true,2025-01-01 00:00:00\n",
        "playlist": "playlist_id,user_id,name,creation_date\n",
        "playlist_song": "playlist_id,user_id,position_idx,song_id\n",
        "listening": "user_id,song_id,plays_count,status\n",
        "song": ("song_id,title,duration,artist,plays_count,album_id\n"
                 "s1,T1,3.00,X,1,a1\ns2,T2,3.10,X,2,a1\ns3,T3,3.20,X,3,\n"),
        "album": "album_id,name,release_year\na1,First,1999\n",
        "musical_style": "style_id,name\n",
        "song_style": "song_id,style_id\n",
        "most_recent_song": "user_id,position_idx,song_id\n",
    }
    for name, content in rows.items():
        (root / f"{name}.csv").write_text(content)
    session = open_source(root, music_schema, music_step1.trace)
    album = music_step1.target.entity("album")
    cursor = read_entity_all(session, album)
    songs = cursor_related(cursor, album.feature("songs"))
    found = []
    while songs.has_data():
        found.append(songs.raw_value("song_id"))
        cursor_advance(songs)
    assert found == ["s1", "s2"]
    close(session)


def test_related_matches_naive_scan_oracle(session, mini):
    model = mini["result"].target
    user = model.entity("app_user")
    users = read_entity_all(session, user)
    while users.has_data():
        uid = users.raw_value("user_id")
        expected = {(r["user_id"], r["position_idx"], r["song_id"])
                    for r in scan_filter(mini["root"] / "most_recent_song.csv",
                                         lambda r: r["user_id"] == uid)}
        got = set()
        recents = cursor_related(users, user.feature("most_recent_songs"))
        while recents.has_data():
            got.add((recents.raw_value("user_id"),
                     str(recents.raw_value("position_idx")),
                     recents.raw_value("song_id")))
            cursor_advance(recents)
        assert got == expected
        cursor_advance(users)


def test_advance_past_end_then_access_errors(session):
    cursor = read_entity_all(session, "musical_style")
    assert cursor_advance(cursor) is True
    assert cursor_advance(cursor) is False
    assert cursor.has_data() is False
    with pytest.raises(SourceError, match="exhausted"):
        cursor.raw_value("style_id")


def test_double_close_is_noop(session):
    cursor = read_entity_all(session, "app_user")
    close(cursor)
    close(cursor)
    close(session)
    close(session)


def test_closed_session_invalidates_cursors(mini):
    session = open_source(mini["root"], mini["schema"], mini["result"].trace)
    cursor = read_entity_all(session, "app_user")
    close(session)
    with pytest.raises(SourceError, match="closed"):
        cursor_advance(cursor)


def test_iteration_is_deterministic(mini):
    def collect():
        session = open_source(mini["root"], mini["schema"], mini["result"].trace)
        cursor = read_entity_all(session, "listening")
        rows = []
        while cursor.has_data():
            rows.append(tuple(cursor.record().items()))
            cursor_advance(cursor)
        close(session)
        return rows

    assert collect() == collect()


def test_streaming_keeps_live_records_bounded(s_dataset):
    schema = parse_ddl((s_dataset / "schema.sql").read_text())
    result = rel_to_uschema(schema)
    session = open_source(s_dataset, schema, result.trace)
    cursor = read_entity_all(session, "playlist_song")
    n = 0
    while cursor.has_data():
        n += 1
        cursor_advance(cursor)
    assert n == 200_000
    assert session.peak_live_records <= 4
    close(session)


def _tiny_source(tmp_path, ddl, files):
    schema = parse_ddl(ddl)
    result = rel_to_uschema(schema)
    root = tmp_path / "tiny"
    root.mkdir()
    (root / "schema.sql").write_text(ddl)
    for name, text in files.items():
        (root / f"{name}.csv").write_text(text)
    return open_source(root, schema, result.trace)


def test_integers_checked_against_declared_range(tmp_path):
    session = _tiny_source(
        tmp_path,
        "CREATE TABLE t (id SMALLINT PRIMARY KEY, n INT, big BIGINT);",
        {"t": ("id,n,big\n"
               "32767,-2147483648,9223372036854775807\n"
               "-32769,0,0\n")})
    cursor = read_entity_all(session, "t")
    assert cursor.record() == {"id": 32767, "n": -2147483648,
                               "big": 9223372036854775807}
    with pytest.raises(SourceError, match=r"t\.csv \(row 2\), column 'id': "
                                          r"-32769 is out of SMALLINT range"):
        cursor_advance(cursor)
    close(session)


def test_null_key_joins_nothing(tmp_path):
    session = _tiny_source(
        tmp_path,
        "CREATE TABLE parent (id INT PRIMARY KEY, code INT, UNIQUE (code));"
        "CREATE TABLE child (id INT PRIMARY KEY, parent_code INT,"
        "  FOREIGN KEY (parent_code) REFERENCES parent (code));",
        {"parent": "id,code\n1,\n", "child": "id,parent_code\n7,\n"})
    parents = read_entity_all(session, "parent")
    assert parents.related_ids("childs") == []
    assert parents.related_by_name("childs").has_data() is False
    close(session)


def test_run_index_reads_unclustered_rows(tmp_path):
    session = _tiny_source(
        tmp_path,
        "CREATE TABLE parent (id INT PRIMARY KEY);"
        "CREATE TABLE child (parent_id INT, pos INT, note VARCHAR(9),"
        "  PRIMARY KEY (parent_id, pos),"
        "  FOREIGN KEY (parent_id) REFERENCES parent (id));",
        {"parent": "id\n1\n2\n",
         "child": "parent_id,pos,note\n1,2,b\n1,1,a\n2,1,x\n1,3,c\n"})
    runs = session.file_for("child").runs_on(("parent_id",))
    # flat (byte offset, first row, row count) triples: two runs for
    # parent 1, one for 2
    assert {key: list(triples) for key, triples in runs.items()} == {
        (1,): [19, 0, 2, 37, 3, 1], (2,): [31, 2, 1]}
    parents = read_entity_all(session, "parent")
    children = parents.related_by_name("childs")
    seen = []
    while children.has_data():
        seen.append(children.raw_value("note"))
        cursor_advance(children)
    assert seen == ["a", "b", "c"]  # key order across both runs
    close(session)


def test_null_order_value_names_child_row(tmp_path):
    session = _tiny_source(
        tmp_path,
        "CREATE TABLE parent (id INT PRIMARY KEY);"
        "CREATE TABLE child (parent_id INT, pos INT, note VARCHAR(9),"
        "  PRIMARY KEY (parent_id, pos),"
        "  FOREIGN KEY (parent_id) REFERENCES parent (id));",
        {"parent": "id\n1\n", "child": "parent_id,pos,note\n1,2,b\n1,,a\n"})
    parents = read_entity_all(session, "parent")
    with pytest.raises(SourceError, match=r"child\.csv \(row 2\), column 'pos': "
                                          r"NULL key value for child\.pos"):
        parents.related_by_name("childs")
    close(session)
