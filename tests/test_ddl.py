from __future__ import annotations

import pytest

from util import FIXTURES

from unimig.errors import ModelError, TextParseError
from unimig.relational.ddl import parse_ddl, print_ddl
from unimig.relational.model import ReferentialAction, schema_from_dict, schema_to_dict


def test_music_fixture_shape(music_schema):
    assert music_schema.name == "music_streaming"
    assert [t.name for t in music_schema.tables] == [
        "app_user", "playlist", "playlist_song", "listening", "song",
        "album", "musical_style", "song_style", "most_recent_song"]
    playlist = music_schema.table("playlist")
    assert playlist.primary_key().columns == ["user_id", "playlist_id"]
    assert len(playlist.fkeys) == 1
    assert playlist.fkeys[0].ref_table == "app_user"


def test_comment_only_input():
    schema = parse_ddl("-- nothing here\n-- at all\n")
    assert schema.tables == []


def test_northwind_parses_with_two_fk_association(northwind_schema):
    assert len(northwind_schema.tables) == 14
    details = northwind_schema.table("order_details")
    assert len(details.fkeys) == 2
    assert {fk.ref_table for fk in details.fkeys} == {"orders", "products"}
    employees = northwind_schema.table("employees")
    assert employees.fkeys[0].ref_table == "employees"  # self-reference


@pytest.mark.parametrize("fixture", ["music_streaming", "northwind"])
def test_parse_print_round_trip(fixture):
    schema = parse_ddl((FIXTURES / fixture / "schema.sql").read_text())
    assert parse_ddl(print_ddl(schema)) == schema


def test_print_empty_schema_is_header_only():
    schema = parse_ddl("", name="empty")
    assert print_ddl(schema) == "-- schema: empty\n"


def test_composite_fk_emitted(music_schema):
    text = print_ddl(music_schema)
    assert ("FOREIGN KEY (user_id, playlist_id) REFERENCES playlist "
            "(user_id, playlist_id)") in text


def test_default_kept_as_opaque_text(music_schema):
    user = music_schema.table("app_user")
    assert user.column("is_premium").default == "false"
    again = parse_ddl(print_ddl(music_schema))
    assert again.table("app_user").column("is_premium").default == "false"


def test_inline_primary_key_and_aliases():
    schema = parse_ddl("CREATE TABLE a (id INTEGER PRIMARY KEY, ok BOOL);")
    a = schema.table("a")
    assert a.primary_key().columns == ["id"]
    assert a.primary_key().constraint_name == "a_pk"
    assert str(a.column("id").datatype) == "INT"
    assert str(a.column("ok").datatype) == "BOOLEAN"
    assert not a.column("id").nullable


def test_referential_actions():
    schema = parse_ddl(
        "CREATE TABLE p (id INT PRIMARY KEY);"
        "CREATE TABLE c (id INT PRIMARY KEY, p_id INT,"
        " FOREIGN KEY (p_id) REFERENCES p (id)"
        " ON DELETE CASCADE ON UPDATE SET NULL);")
    fk = schema.table("c").fkeys[0]
    assert fk.on_delete is ReferentialAction.CASCADE
    assert fk.on_update is ReferentialAction.SET_NULL
    assert parse_ddl(print_ddl(schema)) == schema


def test_references_without_columns_uses_target_pk():
    schema = parse_ddl(
        "CREATE TABLE p (id INT PRIMARY KEY);"
        "CREATE TABLE c (x INT, FOREIGN KEY (x) REFERENCES p);")
    assert schema.table("c").fkeys[0].ref_columns == ["id"]


def test_references_unique_key_when_not_pk():
    schema = parse_ddl(
        "CREATE TABLE p (id INT PRIMARY KEY, code INT, UNIQUE (code));"
        "CREATE TABLE c (y INT, FOREIGN KEY (y) REFERENCES p (code));")
    fk = schema.table("c").fkeys[0]
    assert fk.ref_columns == ["code"]


def test_fk_to_unknown_table_rejected():
    with pytest.raises(TextParseError, match="unknown table"):
        parse_ddl("CREATE TABLE c (x INT, FOREIGN KEY (x) REFERENCES nope (id));")


def test_fk_to_unknown_key_rejected():
    with pytest.raises(TextParseError, match="no key"):
        parse_ddl("CREATE TABLE p (id INT PRIMARY KEY, v INT);"
                  "CREATE TABLE c (x INT, FOREIGN KEY (x) REFERENCES p (v));")


def test_duplicate_table_rejected():
    with pytest.raises(TextParseError, match="duplicate table"):
        parse_ddl("CREATE TABLE a (x INT); CREATE TABLE a (y INT);")


def test_model_json_scale_above_precision_rejected():
    data = schema_to_dict(parse_ddl("CREATE TABLE t (a DECIMAL(4,2));"))
    assert data["tables"][0]["columns"][0]["type"] == "DECIMAL(4,2)"
    data["tables"][0]["columns"][0]["type"] = "DECIMAL(2,5)"
    with pytest.raises(ModelError, match="DECIMAL scale 5 exceeds its precision 2"):
        schema_from_dict(data)


def test_syntax_error_position():
    with pytest.raises(TextParseError) as err:
        parse_ddl("CREATE TABLE a (\n  x WOBBLE\n);")
    assert err.value.line == 2


def test_case_insensitive_keywords_lowercase_identifiers():
    schema = parse_ddl("create table Users (ID int primary key);")
    assert schema.table("users").column("id") is not None
