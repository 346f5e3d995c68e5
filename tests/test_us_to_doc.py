from __future__ import annotations

import pytest

from util import FIXTURES, doc_universe

from unimig.compare import diff_models
from unimig.document.model import DocReference, Embedded, Field
from unimig.document.schema_json import parse_docschema
from unimig.errors import TransformError
from unimig.transforms.us_to_doc import uschema_to_document
from unimig.uschema.model import (
    Aggregate,
    Attribute,
    EntityType,
    Key,
    Reference,
    UNBOUNDED,
    USDataType,
    USchemaModel,
)


def test_music_matches_expected_fixture(music_step2):
    expected = parse_docschema(
        (FIXTURES / "music_streaming" / "expected.docschema.json").read_text())
    assert diff_models(music_step2.target, expected) == []


def test_relationship_collection_shape(music_step2):
    listening = music_step2.target.document("listening")
    names = [p.name for p in listening.properties]
    assert names == ["listening_id", "user_id", "song_id", "plays_count", "status"]
    key = listening.key_field()
    assert key.name == "listening_id" and key.type.primitive == "STRING"
    user_ref = listening.property("user_id")
    assert isinstance(user_ref, DocReference)
    assert user_ref.target == "app_user" and not user_ref.type.array


def test_embedded_nesting(music_step2):
    user = music_step2.target.document("app_user")
    playlists = user.property("playlists")
    assert isinstance(playlists, Embedded) and playlists.is_many
    key = next(p for p in playlists.aggregates
               if isinstance(p, Field) and p.is_key)
    assert key.name == "playlist_id"


def test_reference_owned_attributes_dropped(music_step2):
    album = music_step2.target.document("album")
    assert [p.name for p in album.properties] == [
        "album_id", "name", "release_year", "songs"]
    songs = album.property("songs")
    assert isinstance(songs, DocReference) and songs.type.array


def test_empty_model_name_preserved():
    result = uschema_to_document(USchemaModel("only_name"))
    assert result.target.name == "only_name"
    assert result.target.documents == []


def _entity(name, features, root=True):
    return EntityType(name, root=root, features=features)


def test_composite_key_derives_id_field():
    model = USchemaModel("s", entities=[
        _entity("multi", [
            Attribute("a", USDataType("String")),
            Attribute("b", USDataType("Integer")),
            Attribute("c", USDataType("String")),
            Key("multi_pk", is_id=True, attributes=["a", "b", "c"]),
        ]),
    ])
    doc = uschema_to_document(model).target.document("multi")
    key = doc.key_field()
    assert key.name == "_id" and key.type.primitive == "STRING"
    regular = [p.name for p in doc.properties if isinstance(p, Field)
               and not p.is_key]
    assert regular == ["a", "b", "c"]


def test_non_id_keys_dropped(music_step2):
    user = music_step2.target.document("app_user")
    assert user.key_field().name == "user_id"
    # the alternate unique key over name leaves no extra property behind
    assert [p.name for p in user.properties] == [
        "user_id", "name", "is_premium", "register_date",
        "playlists", "most_recent_songs"]


def test_aggregate_of_root_rejected():
    model = USchemaModel("s", entities=[
        _entity("a", [Aggregate("bs", "b")]),
        _entity("b", []),
    ])
    with pytest.raises(TransformError, match="root"):
        uschema_to_document(model)


def test_cyclic_aggregation_rejected():
    model = USchemaModel("s", entities=[
        _entity("a", [Aggregate("bs", "b")]),
        _entity("b", [Aggregate("as_", "a")], root=False),
    ])
    # direct back-edge to the (root) owner hits the root check; make a
    # non-root two-cycle instead
    model = USchemaModel("s", entities=[
        _entity("top", [Aggregate("bs", "b")]),
        _entity("b", [Aggregate("cs", "c")], root=False),
        _entity("c", [Aggregate("bs_again", "b")], root=False),
    ])
    with pytest.raises(TransformError, match="cyclic"):
        uschema_to_document(model)


def test_reference_to_non_root_rejected():
    model = USchemaModel("s", entities=[
        _entity("a", [Reference("r", "hidden", lower_bound=0, upper_bound=1)]),
        _entity("hidden", [], root=False),
    ])
    with pytest.raises(TransformError, match="non-root"):
        uschema_to_document(model)


def test_unreached_non_root_is_skipped_with_tag():
    model = USchemaModel("s", entities=[
        _entity("a", [Attribute("x", USDataType("String"))]),
        _entity("floating", [], root=False),
    ])
    result = uschema_to_document(model)
    assert not result.target.has_document("floating")
    tags = [l.rule for l in result.trace.lookup("us:floating", "forward")]
    assert "SKIP-UNREACHED" in tags


def test_trace_totality(music_step2):
    missing = doc_universe(music_step2.target) - music_step2.trace.target_ids()
    assert not missing, sorted(missing)[:5]


def test_multi_valued_reference_array_type():
    model = USchemaModel("s", entities=[
        _entity("a", [
            Attribute("a_id", USDataType("Integer")),
            Key("a_pk", is_id=True, attributes=["a_id"]),
            Reference("bs", "b", lower_bound=0, upper_bound=UNBOUNDED),
        ]),
        _entity("b", [
            Attribute("b_id", USDataType("Integer")),
            Key("b_pk", is_id=True, attributes=["b_id"]),
        ]),
    ])
    doc = uschema_to_document(model).target.document("a")
    ref = doc.property("bs")
    assert ref.type.array and ref.type.primitive == "INTEGER"
