from __future__ import annotations

import pytest

from unimig.document.model import (
    DocReference,
    DocType,
    DocumentSchema,
    DocumentType,
    Embedded,
    Field,
)
from unimig.errors import TransformError
from unimig.transforms.doc_to_us import document_to_uschema
from unimig.transforms.rel_to_us import rel_to_uschema
from unimig.transforms.us_to_doc import uschema_to_document
from unimig.transforms.us_to_rel import uschema_to_relational
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


def test_document_back_loses_relationship_classification(music_step2):
    back = document_to_uschema(music_step2.target).target
    assert back.relationships == []
    listening = back.entity("listening")
    assert listening.root is True
    assert listening.id_key() is not None


def test_document_back_embedded_becomes_weak_entity(music_step2):
    back = document_to_uschema(music_step2.target).target
    user = back.entity("app_user")
    playlists = user.feature("playlists")
    assert isinstance(playlists, Aggregate)
    assert (playlists.lower_bound, playlists.upper_bound) == (0, UNBOUNDED)
    child = back.entity(playlists.specified_by)
    assert child.root is False


def test_single_valued_embedded_keeps_bound():
    schema = DocumentSchema("s", documents=[
        DocumentType("a", properties=[
            Field("a_id", DocType("STRING"), is_key=True),
            Embedded("detail", [Field("x", DocType("STRING"))], is_many=False),
        ]),
    ])
    back = document_to_uschema(schema).target
    detail = back.entity("a").feature("detail")
    assert (detail.lower_bound, detail.upper_bound) == (0, 1)


def test_reference_bounds_from_cardinality():
    schema = DocumentSchema("s", documents=[
        DocumentType("a", properties=[
            Field("a_id", DocType("STRING"), is_key=True),
            DocReference("one", "b", DocType("STRING")),
            DocReference("many", "b", DocType("STRING", array=True)),
        ]),
        DocumentType("b", properties=[Field("b_id", DocType("STRING"),
                                            is_key=True)]),
    ])
    back = document_to_uschema(schema).target
    one = back.entity("a").feature("one")
    many = back.entity("a").feature("many")
    assert (one.lower_bound, one.upper_bound) == (0, 1)
    assert (many.lower_bound, many.upper_bound) == (0, UNBOUNDED)


def test_empty_document_schema():
    back = document_to_uschema(DocumentSchema("empty")).target
    assert back.name == "empty" and back.entities == []


def test_relational_reconstruction_music(music_schema, music_step1, music_step2):
    pivot_back = document_to_uschema(music_step2.target).target
    reconstructed = uschema_to_relational(pivot_back).target
    assert len(reconstructed.tables) == len(music_schema.tables)
    playlists = reconstructed.table("playlists")
    assert playlists.primary_key().columns == ["user_id", "playlist_id"]
    assert playlists.fkeys[0].ref_table == "app_user"
    nested = reconstructed.table("playlist_songs")
    assert nested.primary_key().columns == ["user_id", "playlist_id",
                                            "position_idx"]
    assert {fk.ref_table for fk in nested.fkeys} == {"playlists", "song"}
    listening = reconstructed.table("listening")
    assert listening.primary_key().columns == ["listening_id"]
    assert {fk.ref_table for fk in listening.fkeys} == {"app_user", "song"}


def test_relational_from_forward_pivot_rebuilds_associative(music_step1):
    schema = uschema_to_relational(music_step1.target).target
    listening = schema.table("listening")
    pk = listening.primary_key()
    assert set(pk.columns) == {"user_id", "song_id"}
    assert {fk.ref_table for fk in listening.fkeys} == {"app_user", "song"}
    assert [c.name for c in listening.columns][:2] == ["user_id", "song_id"]
    song = schema.table("song")
    assert song.column("album_id") is not None
    assert any(fk.ref_table == "album" for fk in song.fkeys)


def test_surrogate_key_synthesized_for_keyless_entity():
    model = USchemaModel("s", entities=[
        EntityType("bare", features=[Attribute("v", USDataType("Integer"))]),
    ])
    result = uschema_to_relational(model)
    bare = result.target.table("bare")
    assert bare.primary_key().columns == ["bare_id"]
    assert str(bare.column("bare_id").datatype) == "VARCHAR(255)"
    assert any(l.rule == "SYNTH-SURROGATE" for l in result.trace.links)


def test_self_reference_column_collision_resolved():
    model = USchemaModel("s", entities=[
        EntityType("node", features=[
            Attribute("node_id", USDataType("String")),
            Key("node_pk", is_id=True, attributes=["node_id"]),
            Reference("children", "node", lower_bound=0, upper_bound=UNBOUNDED),
        ]),
    ])
    table = uschema_to_relational(model).target.table("node")
    fk = table.fkeys[0]
    assert fk.ref_table == "node"
    assert fk.columns != ["node_id"]  # renamed to avoid the pk column


def test_multiply_aggregated_entity_rejected():
    model = USchemaModel("s", entities=[
        EntityType("a", features=[Aggregate("ws", "w")]),
        EntityType("b", features=[Aggregate("ws", "w")]),
        EntityType("w", root=False),
    ])
    with pytest.raises(TransformError, match="aggregated more than once"):
        uschema_to_relational(model)


def test_full_chain_on_generated_schemas():
    import random

    from util import random_schema

    rng = random.Random(20250809)
    for _ in range(25):
        schema = random_schema(rng)
        step1 = rel_to_uschema(schema)
        step2 = uschema_to_document(step1.target)
        back = document_to_uschema(step2.target)
        reconstructed = uschema_to_relational(back.target).target
        assert len(reconstructed.tables) == len(schema.tables)
