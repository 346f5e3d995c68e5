from __future__ import annotations

import pytest

from unimig.errors import TraceError
from unimig.trace import (
    AGGREGATE_CHILD,
    TraceLink,
    TraceStore,
    attach,
    compose,
    doc_path,
    load_trace,
    save_trace,
)


def _ends(store: TraceStore, element_id: str, direction: str) -> list[str]:
    """Ids at the other end of the links holding ``element_id`` on the
    queried side, in link order."""
    side = "targets" if direction == "forward" else "sources"
    return [end for link in store.lookup(element_id, direction)
            for end in getattr(link, side)]


def test_record_and_forward_lookup():
    store = TraceStore()
    store.record(TraceLink(["rel:user"], ["us:user"], "R2"))
    assert _ends(store, "rel:user", "forward") == ["us:user"]
    assert len(store.links) == 1


def test_one_to_two_link_backward_lookup():
    store = TraceStore()
    store.add("rel:user.is_premium",
              ["us:user.is_premium", "us:user.is_premium.type"], "R3")
    for target in ("us:user.is_premium", "us:user.is_premium.type"):
        assert _ends(store, target, "backward") == ["rel:user.is_premium"]


def test_lookup_unknown_is_empty():
    assert TraceStore().lookup("rel:ghost", "forward") == []


def test_lookup_preserves_insertion_order():
    store = TraceStore()
    store.add("rel:a", "us:x", "R2")
    store.add("rel:a", "us:y", "R3")
    rules = [l.rule for l in store.lookup("rel:a", "forward")]
    assert rules == ["R2", "R3"]


def test_malformed_id_rejected():
    with pytest.raises(TraceError, match="malformed"):
        TraceLink(["bogus"], ["us:x"], "R1")
    with pytest.raises(TraceError, match="malformed"):
        TraceLink(["rel:"], ["us:x"], "R1")
    with pytest.raises(TraceError):
        TraceLink(["rel:a"], [], "R1")


def test_fixture_aggregate_link_has_role(music_step1):
    links = music_step1.trace.lookup("rel:playlist", "forward")
    r5 = [l for l in links if l.rule == "R5"]
    assert r5 and r5[0].role == AGGREGATE_CHILD
    assert "us:app_user.playlists" in r5[0].targets


def test_fixture_doc_collection_backward(music_step2):
    links = music_step2.trace.lookup("doc:listening", "backward")
    assert any(l.rule == "R7" for l in links)


def test_compose_simple():
    t1 = TraceStore()
    t1.add("rel:user", "us:user", "R2")
    t2 = TraceStore()
    t2.add("us:user", "doc:user", "R2")
    joined = compose(t1, t2)
    assert len(joined.links) == 1
    assert joined.links[0].sources == ["rel:user"]
    assert joined.links[0].targets == ["doc:user"]
    assert joined.links[0].rule == "R2∘R2"


def test_compose_with_empty_is_empty():
    t1 = TraceStore()
    t1.add("rel:a", "us:a", "R2")
    assert compose(t1, TraceStore()).links == []
    assert compose(TraceStore(), t1).links == []


def test_compose_one_to_two_with_identity_yields_two_links():
    t1 = TraceStore()
    t1.add("rel:a.c", ["us:a.x", "us:a.x.type"], "R3")
    t2 = TraceStore()
    t2.add("us:a.x", "us:a.x", "ID")
    t2.add("us:a.x.type", "us:a.x.type", "ID")
    joined = compose(t1, t2)
    assert len(joined.links) == 2
    assert {tuple(l.targets) for l in joined.links} == {
        ("us:a.x",), ("us:a.x.type",)}


def test_compose_associative_on_link_sets():
    a = TraceStore()
    a.add("rel:t", "us:m1", "A")
    a.add("rel:u", "us:m2", "B")
    b = TraceStore()
    b.add("us:m1", "doc:x", "C")
    b.add("us:m2", "doc:y", "D")
    c = TraceStore()
    c.add("doc:x", "rel:back", "E")

    def as_set(store):
        return {(tuple(l.sources), tuple(l.targets), l.rule) for l in store.links}

    assert as_set(compose(compose(a, b), c)) == as_set(compose(a, compose(b, c)))


def test_save_load_round_trip(music_step1):
    text = save_trace(music_step1.trace)
    loaded = load_trace(text)
    assert [(l.sources, l.targets, l.rule, l.role) for l in loaded.links] == \
        [(l.sources, l.targets, l.rule, l.role) for l in music_step1.trace.links]


def test_save_empty_store():
    assert save_trace(TraceStore()) == '{\n  "version": 1,\n  "links": []\n}\n'


def test_role_survives_round_trip():
    store = TraceStore()
    store.add(["rel:w", "rel:w.fk"], "us:s.ws", "R5", AGGREGATE_CHILD)
    loaded = load_trace(save_trace(store))
    assert loaded.links[0].role == AGGREGATE_CHILD


def test_version_mismatch_rejected():
    with pytest.raises(TraceError, match="version"):
        load_trace('{"version": 99, "links": []}')


def test_index_coherence(music_step1):
    store = music_step1.trace
    for link in store.links:
        for source in link.sources:
            forward = _ends(store, source, "forward")
            assert all(t in forward for t in link.targets)
        for target in link.targets:
            backward = _ends(store, target, "backward")
            assert all(s in backward for s in link.sources)


def test_attach_resolves_fixture_ids(music_schema, music_step1):
    index = attach(music_step1.trace, rel=music_schema, us=music_step1.target)
    assert index["rel:playlist.pl_pk"].constraint_name == "pl_pk"
    assert index["us:app_user.playlists"].specified_by == "playlist"
    assert index["us:app_user.is_premium.type"].kind == "Boolean"


def test_attach_fails_on_dangling_id(music_schema):
    store = TraceStore()
    store.add("rel:ghost_table", "us:x", "R2")
    with pytest.raises(TraceError, match="does not resolve"):
        attach(store, rel=music_schema)


def test_doc_path_rendering():
    assert doc_path([("app_user", False)]) == "doc:app_user"
    assert doc_path([("listening", False), ("listening_id", False)]) == \
        "doc:listening.listening_id"
    assert doc_path([("app_user", False), ("playlists", True),
                     ("playlist_songs", True), ("position_idx", False)]) == \
        "doc:app_user.playlists/playlist_songs.position_idx"


def test_sealed_store_rejects_writes(music_step1):
    with pytest.raises(TraceError, match="sealed"):
        music_step1.trace.add("rel:x", "us:y", "R2")
