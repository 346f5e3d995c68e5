from __future__ import annotations

import pytest

from util import us_universe

from unimig.errors import TransformError
from unimig.relational.ddl import parse_ddl
from unimig.relational.model import RelationalSchema
from unimig.trace import AGGREGATE_CHILD, REF_FORWARD, REF_REVERSE, REL_TYPE_SIDE
from unimig.transforms.rel_to_us import rel_to_uschema
from unimig.uschema.model import (
    Aggregate,
    Attribute,
    Key,
    Reference,
    UNBOUNDED,
)
from unimig.uschema.validate import validate_uschema


def test_music_classification(music_step1):
    model = music_step1.target
    assert model.name == "music_streaming"
    assert [e.name for e in model.entities if e.root] == [
        "app_user", "song", "album", "musical_style"]
    assert [e.name for e in model.entities if not e.root] == [
        "playlist", "playlist_song", "most_recent_song"]
    assert [r.name for r in model.relationships] == ["listening", "song_style"]
    assert not [d for d in validate_uschema(model) if d.severity == "error"]


def test_music_aggregates(music_step1):
    model = music_step1.target
    user = model.entity("app_user")
    playlists = user.feature("playlists")
    assert isinstance(playlists, Aggregate)
    assert playlists.specified_by == "playlist"
    assert (playlists.lower_bound, playlists.upper_bound) == (0, UNBOUNDED)
    assert isinstance(user.feature("most_recent_songs"), Aggregate)
    # nested chain: playlist aggregates playlist_song
    nested = model.entity("playlist").feature("playlist_songs")
    assert isinstance(nested, Aggregate)
    assert nested.specified_by == "playlist_song"


def test_music_reverse_reference_with_renamed_attribute(music_step1):
    album = music_step1.target.entity("album")
    songs = album.feature("songs")
    assert isinstance(songs, Reference)
    assert songs.refs_to == "song"
    assert (songs.lower_bound, songs.upper_bound) == (0, UNBOUNDED)
    assert songs.attributes == ["song_id_song"]
    carried = album.feature("song_id_song")
    assert isinstance(carried, Attribute)
    assert carried.owned_by_reference == "songs"


def test_music_relationship_sides(music_step1):
    model = music_step1.target
    listening = model.relationship("listening")
    assert listening.references == ["listening_user", "listening_song"]
    assert [f.name for f in listening.attributes()] == ["plays_count", "status"]
    side_user = model.entity("song").feature("listening_user")
    assert side_user.refs_to == "app_user"
    assert side_user.is_featured_by == "listening"
    assert (side_user.lower_bound, side_user.upper_bound) == (1, UNBOUNDED)
    side_song = model.entity("app_user").feature("listening_song")
    assert side_song.refs_to == "song"


def test_fk_columns_not_mapped_as_attributes(music_step1):
    model = music_step1.target
    playlist_attrs = [f.name for f in model.entity("playlist").attributes()]
    assert playlist_attrs == ["playlist_id", "name", "creation_date"]
    listening_attrs = [f.name for f in model.relationship("listening").attributes()]
    assert "user_id" not in listening_attrs and "song_id" not in listening_attrs


def test_keys_keep_only_surviving_attributes(music_step1):
    model = music_step1.target
    pls_key = model.entity("playlist_song").feature("pls_pk")
    assert isinstance(pls_key, Key) and pls_key.is_id
    assert pls_key.attributes == ["position_idx"]
    user_name_ak = model.entity("app_user").feature("user_name_ak")
    assert not user_name_ak.is_id and user_name_ak.attributes == ["name"]


def test_weak_owner_forward_reference(music_step1):
    pls = music_step1.target.entity("playlist_song")
    ref = pls.feature("song")
    assert isinstance(ref, Reference)
    assert (ref.lower_bound, ref.upper_bound) == (0, 1)
    assert ref.attributes == ["song_id"]


def test_empty_schema():
    result = rel_to_uschema(RelationalSchema("x"))
    assert result.target.name == "x"
    assert result.target.entities == []
    assert len(result.trace.links) == 1  # the schema-level link


def test_single_table_manual_rules():
    schema = parse_ddl("CREATE TABLE a (id CHAR(8) PRIMARY KEY, v INT);")
    model = rel_to_uschema(schema).target
    a = model.entity("a")
    assert a.root
    assert [f.name for f in a.attributes()] == ["id", "v"]
    key = a.id_key()
    assert key.attributes == ["id"]
    assert a.feature("v").type.kind == "Integer"


def test_weak_table_referenced_elsewhere_stays_root():
    schema = parse_ddl(
        "CREATE TABLE s (id INT PRIMARY KEY);"
        "CREATE TABLE w (id INT NOT NULL, s_id INT NOT NULL, v INT,"
        "  PRIMARY KEY (s_id, id),"
        "  FOREIGN KEY (s_id) REFERENCES s (id));"
        "CREATE TABLE other (id INT PRIMARY KEY, w_s INT, w_id INT,"
        "  FOREIGN KEY (w_s, w_id) REFERENCES w (s_id, id));")
    model = rel_to_uschema(schema).target
    w = model.entity("w")
    assert w.root is True  # blocked from embedding
    s = model.entity("s")
    assert not any(isinstance(f, Aggregate) for f in s.features)
    # the identifying fk fell through to a forward 0..1 reference
    ref = w.feature("s")
    assert isinstance(ref, Reference) and (ref.lower_bound, ref.upper_bound) == (0, 1)


def test_identifying_fk_of_embedded_weak_does_not_block():
    # the weak chain w2 -> w1 -> s embeds both levels
    schema = parse_ddl(
        "CREATE TABLE s (id INT PRIMARY KEY);"
        "CREATE TABLE w1 (id INT NOT NULL, s_id INT NOT NULL,"
        "  PRIMARY KEY (s_id, id), FOREIGN KEY (s_id) REFERENCES s (id));"
        "CREATE TABLE w2 (id INT NOT NULL, s_id INT NOT NULL, w1_id INT NOT NULL,"
        "  PRIMARY KEY (s_id, w1_id, id),"
        "  FOREIGN KEY (s_id, w1_id) REFERENCES w1 (s_id, id));")
    model = rel_to_uschema(schema).target
    assert model.entity("w1").root is False
    assert model.entity("w2").root is False
    assert isinstance(model.entity("w1").feature("w2s"), Aggregate)


def test_weak_cycle_rejected():
    # two vertically partitioned tables keyed by each other: both weak
    text = (
        "CREATE TABLE a (pa INT NOT NULL, PRIMARY KEY (pa),"
        "  FOREIGN KEY (pa) REFERENCES b (pb));"
        "CREATE TABLE b (pb INT NOT NULL, PRIMARY KEY (pb),"
        "  FOREIGN KEY (pb) REFERENCES a (pa));")
    schema = parse_ddl(text)
    with pytest.raises(TransformError, match="cycle"):
        rel_to_uschema(schema)


def test_unique_fk_maps_forward(northwind_schema):
    # employees.reports_to is neither unique nor weak: reverse reference
    model = rel_to_uschema(northwind_schema).target
    employees = model.entity("employees")
    self_ref = employees.feature("employees")
    assert isinstance(self_ref, Reference)
    assert self_ref.refs_to == "employees"
    assert self_ref.attributes == ["employee_id_employees"]


def test_trace_totality(music_step1, northwind_schema):
    for result in (music_step1, rel_to_uschema(northwind_schema)):
        missing = us_universe(result.target) - result.trace.target_ids()
        assert not missing, f"untraced elements: {sorted(missing)[:5]}"


def test_trace_roles(music_step1):
    trace = music_step1.trace
    roles = {}
    for link in trace.links:
        roles.setdefault(link.rule, set()).add(link.role)
    assert roles["R5"] == {AGGREGATE_CHILD}
    assert roles["R6"] == {REL_TYPE_SIDE}
    assert REF_FORWARD in roles["R7.1"]
    assert REF_REVERSE in roles["R7.2"]
    assert roles["SKIP-FK-COL"] == {None}


def test_determinism(music_schema):
    import json

    from unimig.trace import save_trace
    from unimig.uschema.model import model_to_dict

    first = rel_to_uschema(music_schema)
    second = rel_to_uschema(music_schema)
    assert json.dumps(model_to_dict(first.target)) == \
        json.dumps(model_to_dict(second.target))
    assert save_trace(first.trace) == save_trace(second.trace)


def test_name_collision_logs_the_name_used(caplog):
    schema = parse_ddl(
        "CREATE TABLE parent (id INT PRIMARY KEY, childs INT);"
        "CREATE TABLE child (parent_id INT, n INT, PRIMARY KEY (parent_id, n),"
        " FOREIGN KEY (parent_id) REFERENCES parent (id));")
    with caplog.at_level("WARNING", logger="unimig.transforms.naming"):
        model = rel_to_uschema(schema).target
    assert model.entity("parent").feature("childs_1").specified_by == "child"
    assert [r.getMessage() for r in caplog.records] == [
        "name 'childs' already taken, using 'childs_1'"]
