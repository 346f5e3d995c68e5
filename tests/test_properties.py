from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import random_schema, random_table, us_universe

from unimig.compare import compare_schemas, run_roundtrip
from unimig.relational.model import fk_in_pk, is_mn, is_weak
from unimig.trace import TraceStore, compose, load_trace, save_trace
from unimig.transforms.naming import plural, unique_name
from unimig.transforms.rel_to_us import rel_to_uschema
from unimig.uschema.athena import parse_athena, print_athena
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


@pytest.mark.parametrize("word,expected", [
    ("playlist", "playlists"),
    ("songs", "songs"),
    ("category", "categories"),
    ("day", "days"),
    ("status", "status"),
    ("box", "boxs"),  # naive by design
])
def test_plural_examples(word, expected):
    assert plural(word) == expected


@given(st.from_regex(r"[a-z][a-z_0-9]{0,11}", fullmatch=True))
def test_plural_is_idempotent(word):
    once = plural(word)
    assert plural(once) == once  # always ends in s afterwards
    assert once.endswith("s")


def test_plural_rejects_empty():
    with pytest.raises(ValueError):
        plural("")


@given(st.sets(st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
               max_size=8),
       st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True))
def test_unique_name_avoids_taken(taken, candidate):
    result = unique_name(candidate, taken)
    assert result not in taken
    if candidate not in taken:
        assert result == candidate


# --- predicates ------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=200)
def test_weak_mn_mutual_exclusion(seed):
    table = random_table(random.Random(seed))
    assert not (is_weak(table) and is_mn(table))
    in_pk = sum(1 for fk in table.fkeys if fk_in_pk(table, fk))
    assert is_weak(table) == (in_pk == 1)
    assert is_mn(table) == (in_pk >= 2)


# --- textual notation round trip ---------------------------------------------

_SCALARS = [USDataType("String"), USDataType("Integer"), USDataType("Boolean"),
            USDataType("Double"), USDataType("Date"), USDataType("Decimal", 6, 2)]


@st.composite
def expressible_models(draw) -> USchemaModel:
    """Models inside the textual notation's subset: non-root aggregate
    targets, default bounds, single-attribute identifier keys named the way
    the parser synthesizes them."""
    n = draw(st.integers(min_value=1, max_value=4))
    roots = [draw(st.booleans()) for _ in range(n)]
    if not any(roots):
        roots[0] = True
    entities = []
    for i in range(n):
        features = []
        n_attrs = draw(st.integers(min_value=1, max_value=4))
        for j in range(n_attrs):
            features.append(Attribute(f"f{j}", draw(st.sampled_from(_SCALARS))))
        if draw(st.booleans()):
            which = draw(st.integers(min_value=0, max_value=n_attrs - 1))
            features.insert(which + 1,
                            Key(f"f{which}_key", is_id=True,
                                attributes=[f"f{which}"]))
        entities.append(EntityType(f"E{i}", root=roots[i], features=features))
    non_roots = [e.name for e in entities if not e.root]
    for i, entity in enumerate(entities):
        if draw(st.booleans()):
            target = draw(st.sampled_from([e.name for e in entities]))
            upper = draw(st.sampled_from([1, UNBOUNDED]))
            entity.features.append(Reference(f"r{i}", target,
                                             lower_bound=1, upper_bound=upper))
        if non_roots and draw(st.booleans()):
            target = draw(st.sampled_from(non_roots))
            upper = draw(st.sampled_from([1, UNBOUNDED]))
            entity.features.append(Aggregate(f"g{i}", target,
                                             lower_bound=1, upper_bound=upper))
    return USchemaModel("Gen", entities=entities)


@given(expressible_models())
@settings(max_examples=80)
def test_athena_round_trip_on_expressible_models(model):
    assert parse_athena(print_athena(model)) == model


# --- trace composition ---------------------------------------------------------

_IDS_A = [f"rel:t{i}" for i in range(4)]
_IDS_B = [f"us:m{i}" for i in range(4)]
_IDS_C = [f"doc:d{i}" for i in range(4)]
_IDS_D = [f"doc:e{i}" for i in range(4)]


def _store(draw_links, sources, targets, tag):
    store = TraceStore()
    for i, (s, t) in enumerate(draw_links):
        store.add([sources[s]], [targets[t]], f"{tag}{i}")
    return store


_link_sets = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                      max_size=6)


@given(_link_sets, _link_sets, _link_sets)
@settings(max_examples=100)
def test_compose_associativity(links_ab, links_bc, links_cd):
    a = _store(links_ab, _IDS_A, _IDS_B, "a")
    b = _store(links_bc, _IDS_B, _IDS_C, "b")
    c = _store(links_cd, _IDS_C, _IDS_D, "c")

    def link_set(store):
        return {(tuple(l.sources), tuple(l.targets), l.rule) for l in store.links}

    assert link_set(compose(compose(a, b), c)) == \
        link_set(compose(a, compose(b, c)))


@given(_link_sets)
@settings(max_examples=50)
def test_trace_save_load_identity(links):
    store = _store(links, _IDS_A, _IDS_B, "x")
    loaded = load_trace(save_trace(store))
    assert [(l.sources, l.targets, l.rule) for l in loaded.links] == \
        [(l.sources, l.targets, l.rule) for l in store.links]


# --- schema-level properties ---------------------------------------------------

def test_compare_identity_on_random_schemas():
    rng = random.Random(97)
    for _ in range(20):
        schema = random_schema(rng)
        report = compare_schemas(schema, schema)
        assert all(s.f1 == 1.0 for s in report.scores.values())


def test_entity_preservation_theorem_on_random_schemas():
    rng = random.Random(4321)
    for _ in range(30):
        schema = random_schema(rng)
        report = run_roundtrip(schema).report
        entities = report["Entities"]
        assert (entities.precision, entities.recall) == (1.0, 1.0), \
            [t.name for t in schema.tables]


def test_forward_trace_totality_on_random_schemas():
    rng = random.Random(777)
    for _ in range(30):
        schema = random_schema(rng)
        result = rel_to_uschema(schema)
        assert us_universe(result.target) <= result.trace.target_ids()
