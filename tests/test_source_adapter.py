from __future__ import annotations

import csv
import io
import json
import shutil
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from util import scan_filter

from unimig.cli import dispatch
from unimig.errors import SourceError
from unimig.relational.ddl import parse_ddl
from unimig.source import _TableFile, open_source, read_entity_all, record_id
from unimig.trace import REF_FORWARD, REF_REVERSE, id_segments
from unimig.transforms.rel_to_us import rel_to_uschema


@pytest.fixture(scope="module")
def mini(mini_root):
    schema = parse_ddl((mini_root / "schema.sql").read_text())
    step1 = rel_to_uschema(schema)
    return {"root": mini_root, "schema": schema, "result": step1}


@pytest.fixture()
def session(mini):
    s = open_source(mini["root"], mini["schema"], mini["result"].trace)
    yield s
    s.close()


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


# playlist rows are grouped as aggregate children, app_user rows only
# streamed
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
    # csv also ends lines at a bare carriage return, but row slices are
    # cut at line feeds. A table grouped as aggregate children with CR line
    # ends and a streamed one with a single CR both fail before migration.
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
    # the first file whose header the given schema's table disagrees with
    with pytest.raises(SourceError, match=r"^song\.csv: header \[.*\] does not "
                       r"match columns \[.*\] of table 'song'$"):
        open_source(mini["root"], music_schema,
                    rel_to_uschema(music_schema).trace)


def _rows(cursor, *columns) -> list:
    """The values of ``columns`` in every record left in ``cursor``, as
    tuples, advancing it to its end."""
    rows = []
    while cursor.has_data():
        record = cursor.record()
        rows.append(tuple(record[c] for c in columns))
        cursor.advance()
    return rows


def test_cursor_values(session, mini):
    # attributes resolve through the trace to the columns that store them,
    # whose cells arrive typed; the key is the primary key's value
    table = session.table_for("app_user")
    record = read_entity_all(session, "app_user").record()
    assert [record[session.column_of("app_user", table, name)]
            for name in ("name", "is_premium")] == ["Alice", True]
    assert [record[c] for c in table.primary_key().columns] == ["u001"]


def test_empty_field_reads_as_null(session, mini):
    cursor = read_entity_all(session, mini["result"].target.relationship("listening"))
    assert _rows(cursor, "status") == [("completed",), ("paused",), (None,)]


def test_composite_key_returns_tuple(session, mini, tmp_path):
    users = read_entity_all(session, "app_user")
    playlists = users.related_by_name("playlists")
    pk = playlists.table.primary_key().columns
    assert _rows(playlists, *pk) == [("u001", "p001"), ("u001", "p002")]
    # oracle: the naive scan agrees
    raw = scan_filter(mini["root"] / "playlist.csv",
                      lambda r: r["user_id"] == "u001")
    assert {(r["user_id"], r["playlist_id"]) for r in raw} == {
        ("u001", "p001"), ("u001", "p002")}
    # composite keys sort as typed tuples: (1, 9) before (1, 10)
    tiny = _tiny_source(
        tmp_path,
        "CREATE TABLE parent (id INT PRIMARY KEY);"
        "CREATE TABLE child (a INT, b INT, parent_id INT, PRIMARY KEY (a, b),"
        "  FOREIGN KEY (parent_id) REFERENCES parent (id));",
        {"parent": "id\n1\n", "child": "a,b,parent_id\n1,10,1\n1,9,1\n2,1,1\n"})
    parents = read_entity_all(tiny, "parent")
    assert _rows(parents.related_by_name("childs"), "a", "b") == [
        (1, 9), (1, 10), (2, 1)]
    tiny.close()


def test_aggregate_children_in_key_order(session, mini):
    users = read_entity_all(session, "app_user")
    playlists = users.related_by_name("playlists")
    assert _rows(playlists, "playlist_id") == [("p001",), ("p002",)]


def test_forward_reference_resolves_zero_or_one(session, mini):
    users = read_entity_all(session, "app_user")
    playlists = users.related_by_name("playlists")
    songs = playlists.related_by_name("playlist_songs")
    related = songs.related_by_name("song")
    assert _rows(related, "title") == [("Creep",)]  # s002 on position 1
    related.close()


def test_forward_reference_with_null_fk_is_empty(mini, tmp_path):
    session = _tiny_source(
        tmp_path,
        "CREATE TABLE target (id INT PRIMARY KEY, v INT);"
        "CREATE TABLE holder (id INT PRIMARY KEY, t_id INT, UNIQUE (t_id),"
        "  FOREIGN KEY (t_id) REFERENCES target (id));",
        {"target": "id,v\n1,10\n", "holder": "id,t_id\n1,\n2,1\n"})
    cursor = read_entity_all(session, "holder")
    related = cursor.related_by_name("target")
    assert related.has_data() is False  # NULL fk resolves to nothing
    cursor.advance()
    related = cursor.related_by_name("target")
    assert related.record()["v"] == 10
    session.close()


def test_related_ids_match_related_records(session, mini):
    # the covering id index stores the identifiers of the rows a reference
    # reaches, without reading them
    references = [id_segments(link.targets[0])
                  for link in mini["result"].trace.links
                  if link.role in (REF_FORWARD, REF_REVERSE)]
    assert references  # playlist_song.song, most_recent_song.song
    for type_name, feature in references:
        link = session.link(type_name, session.table_for(type_name), feature)
        ids = link.file.ids_on(link.index, plan_for=f"{type_name}.{feature}")
        session.build_indexes()
        pk = link.file.table.primary_key().columns
        cursor = read_entity_all(session, type_name)
        while cursor.has_data():
            related = cursor.related_by_name(feature)
            via_records = [record_id(values) for values in _rows(related, *pk)]
            probe = tuple(cursor.record()[c] for c in link.probe)
            assert ids.get(probe, []) == via_records
            cursor.advance()


def test_relationship_side_exposes_opposite_ids(session, mini):
    cursor = read_entity_all(session, "song")
    while cursor.record()["song_id"] != "s007":
        cursor.advance()
    side = cursor.related_by_name("listening_user")
    assert side.type_name == "listening"
    assert side.record() == {"user_id": "u001", "song_id": "s007",
                             "plays_count": 7, "status": "completed"}
    assert session.column_of("listening", side.table, "plays_count") == "plays_count"


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
    cursor = read_entity_all(session, "album")
    assert _rows(cursor.related_by_name("songs"), "song_id") == [("s1",), ("s2",)]
    session.close()


def test_related_matches_naive_scan_oracle(session, mini):
    users = read_entity_all(session, "app_user")
    while users.has_data():
        uid = users.record()["user_id"]
        expected = {(r["user_id"], int(r["position_idx"]), r["song_id"])
                    for r in scan_filter(mini["root"] / "most_recent_song.csv",
                                         lambda r: r["user_id"] == uid)}
        recents = users.related_by_name("most_recent_songs")
        assert set(_rows(recents, "user_id", "position_idx", "song_id")) == expected
        users.advance()


def test_advance_past_end_then_access_errors(session):
    cursor = read_entity_all(session, "musical_style")
    assert cursor.advance() is True
    assert cursor.advance() is False
    assert cursor.has_data() is False
    with pytest.raises(SourceError, match="exhausted"):
        cursor.record()


def test_double_close_is_noop(session):
    cursor = read_entity_all(session, "app_user")
    cursor.close()
    cursor.close()
    session.close()
    session.close()


def test_closed_session_invalidates_cursors(mini):
    session = open_source(mini["root"], mini["schema"], mini["result"].trace)
    cursor = read_entity_all(session, "app_user")
    session.close()
    with pytest.raises(SourceError, match="closed"):
        cursor.advance()


def test_iteration_is_deterministic(mini):
    def collect():
        session = open_source(mini["root"], mini["schema"], mini["result"].trace)
        cursor = read_entity_all(session, "listening")
        rows = []
        while cursor.has_data():
            rows.append(tuple(cursor.record().items()))
            cursor.advance()
        session.close()
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
        cursor.advance()
    assert n == 200_000
    assert session.peak_live_records <= 4
    session.close()


def _tiny_source(tmp_path, ddl, files):
    schema = parse_ddl(ddl)
    result = rel_to_uschema(schema)
    root = tmp_path / "tiny"
    root.mkdir()
    (root / "schema.sql").write_text(ddl)
    for name, text in files.items():
        (root / f"{name}.csv").write_text(text)
    return open_source(root, schema, result.trace)


def _documents(session, out) -> dict[str, list]:
    """Every collection migrated by the CLI from the dataset ``session``
    reads, as parsed documents."""
    assert dispatch(["migrate", "--source", str(session.root),
                     "--out", str(out)]) == 0
    return {path.stem: [json.loads(line) for line in path.read_text().splitlines()]
            for path in sorted(out.glob("*.jsonl"))}


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
        cursor.advance()
    session.close()


# --- typing a block of rows a column at a time ------------------------------------

#: One column of each kind the reader types, and cells each reads as a value.
_KINDS = {"SMALLINT": ["0", "-7", "32767", "-32768", ""],
          "INT": ["42", "-2147483648", "2147483647", ""],
          "BIGINT": ["3", "9223372036854775807", "-9223372036854775808", ""],
          "REAL": ["0", "1.5", "-2.25", ""],
          "DOUBLE": ["3", "1e5", "-0.125", ""],
          "DECIMAL(9,2)": ["12.50", "-1", ""],
          "BOOLEAN": ["true", "f", "1", "no", "", "True", "FALSE", "T", "Yes",
                      " yes ", "tRuE", "True ", " no"],
          "VARCHAR(9)": ["a", "x y", "#", ""]}
#: Cells that some reading of a number or boolean accepts and SQL loaders
#: may not, or that lie just inside or outside a type's range.
_ADVERSARIAL = ["+5", "-0", "007", "1_0", " 5", "\u0665", "1e999", "-1e999",
                "inf", "nan", ".5", "5.", "e", "-", "+", "1-2", "TRUE",
                "True", "F", "No", "tRuE", " yes ", " ", "y es", "", "32768",
                "-32769",
                "2147483648", "-2147483649", "9223372036854775808",
                "-9223372036854775809", "1.7976931348623157e308"]


@pytest.fixture(scope="module")
def kinds_file(tmp_path_factory):
    columns = [f"c{p}" for p in range(len(_KINDS))]
    table = parse_ddl("CREATE TABLE k (" + ", ".join(
        f"{c} {kind}" for c, kind in zip(columns, _KINDS)) + ");").table("k")
    path = tmp_path_factory.mktemp("kinds") / "k.csv"
    path.write_text(",".join(columns) + "\n")
    return _TableFile(table, path)


def _taken(rows) -> tuple[list[str], str | None]:
    """The rows taken, each as its ``repr`` (1, 1.0 and True differ), and
    the message of the error that ended them, if one did."""
    taken = []
    try:
        for row in rows:
            taken.append(repr(row))
    except SourceError as exc:
        return taken, str(exc)
    return taken, None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*map(st.sampled_from, _KINDS.values())),
                min_size=1, max_size=12),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, len(_KINDS) - 1),
                          st.sampled_from(_ADVERSARIAL)), max_size=3),
       st.integers(0, 10**6))
@example([("0", "42", "3", "0", "3", "12.50", "TRUE", "a")], [], 0)
@example([("", "", "", "", "", "", "", "")] * 2, [(1, 0, "1_0")], 9)
def test_block_typed_as_row_by_row(kinds_file, rows, planted, first):
    # a block typed by column kernels gives the values typing each row
    # gives, or its first error, at the same row, column and message
    cells = [list(row) for row in rows]
    for row, column, cell in planted:
        cells[row % len(cells)][column] = cell
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(cells)
    lines = text.getvalue().encode().splitlines(keepends=True)
    numbers = range(first, first + len(cells))
    expected = _taken(map(kinds_file.typed, cells, numbers))
    assert _taken(kinds_file.typed_block(lines, numbers)) == expected


def test_valid_block_not_typed_row_by_row(kinds_file, monkeypatch):
    # every cell of ``_KINDS`` (booleans in any case and with spaces too)
    # is one a column kernel vouches for, so their block never goes to
    # ``typed`` row by row
    rows = list(zip_longest(*_KINDS.values(), fillvalue=""))
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    lines = text.getvalue().encode().splitlines(keepends=True)
    expected = list(map(kinds_file.typed, map(list, rows), range(len(rows))))
    monkeypatch.setattr(kinds_file, "typed", lambda row, n: pytest.fail(
        f"row {n} typed row by row"))
    assert list(kinds_file.typed_block(lines, range(len(rows)))) == expected


def test_null_key_joins_nothing(tmp_path):
    session = _tiny_source(
        tmp_path,
        "CREATE TABLE parent (id INT PRIMARY KEY, code INT, UNIQUE (code));"
        "CREATE TABLE child (id INT PRIMARY KEY, parent_code INT,"
        "  FOREIGN KEY (parent_code) REFERENCES parent (code));",
        {"parent": "id,code\n1,\n", "child": "id,parent_code\n7,\n"})
    parents = read_entity_all(session, "parent")
    assert parents.related_by_name("childs").has_data() is False
    session.close()
    # the covering id index the migrator reads joins nothing either
    docs = _documents(session, tmp_path / "out")
    assert docs["parent"] == [{"id": 1, "childs": []}]
    assert docs["child"] == [{"id": 7}]


def test_unclustered_rows_read_in_key_order(tmp_path):
    # parent 1's child rows lie in two runs: the cursor scans the file for
    # them, and the migrator builds their group from the file's lines
    # clustered by parent
    ddl = ("CREATE TABLE parent (id INT PRIMARY KEY);"
           "CREATE TABLE child (parent_id INT, pos INT, note VARCHAR(9),"
           "  PRIMARY KEY (parent_id, pos),"
           "  FOREIGN KEY (parent_id) REFERENCES parent (id));")
    session = _tiny_source(
        tmp_path, ddl,
        {"parent": "id\n1\n2\n",
         "child": "parent_id,pos,note\n1,2,b\n1,1,a\n2,1,x\n1,3,c\n"})
    parents = read_entity_all(session, "parent")
    assert _rows(parents.related_by_name("childs"), "note") == [
        ("a",), ("b",), ("c",)]  # key order
    parents.advance()
    assert _rows(parents.related_by_name("childs"), "note") == [("x",)]
    session.close()
    docs = _documents(session, tmp_path / "out")
    assert docs["parent"] == [
        {"id": 1, "childs": [{"pos": 1, "note": "a"}, {"pos": 2, "note": "b"},
                             {"pos": 3, "note": "c"}]},
        {"id": 2, "childs": [{"pos": 1, "note": "x"}]}]


def test_null_order_value_names_child_row(tmp_path):
    session = _tiny_source(
        tmp_path,
        "CREATE TABLE parent (id INT PRIMARY KEY);"
        "CREATE TABLE child (parent_id INT, pos INT, note VARCHAR(9),"
        "  PRIMARY KEY (parent_id, pos),"
        "  FOREIGN KEY (parent_id) REFERENCES parent (id));",
        {"parent": "id\n1\n", "child": "parent_id,pos,note\n1,2,b\n1,,a\n"})
    parents = read_entity_all(session, "parent")
    with pytest.raises(SourceError,
                       match=r"^while indexing for feature parent\.childs: "
                             r"child\.csv \(row 2\), column 'pos': NULL key "
                             r"value for child\.pos"):
        parents.related_by_name("childs")
    session.close()
