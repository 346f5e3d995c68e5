from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

from util import FIXTURES

import unimig
from unimig.compare import MatchReport
from unimig.errors import ModelError
from unimig.evolution import DeleteFeature, RenameEntity
from unimig.migrator import EntityStats
from unimig.record import field, record
from unimig.relational.ddl import parse_ddl
from unimig.relational.model import Table
from unimig.source import _Link
from unimig.trace import TraceStore
from unimig.uschema.athena import parse_athena
from unimig.uschema.model import Key, Reference, USDataType
from unimig.uschema.validate import Diagnostic


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(unimig.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, unimig.cli; print(*sys.modules)"
    loaded = set(subprocess.run([sys.executable, "-c", probe], env=env,
                                check=True, capture_output=True,
                                text=True).stdout.split())
    assert "unimig.migrator" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_arguments_positional_keyword_and_default():
    ref = Reference("r", "song", upper_bound=5)
    assert (ref.name, ref.refs_to, ref.lower_bound, ref.upper_bound,
            ref.attributes, ref.is_featured_by) == ("r", "song", 1, 5, [], None)
    assert Reference(name="r", refs_to="song", upper_bound=5) == ref
    with pytest.raises(TypeError, match="missing argument 'refs_to'"):
        Reference("r")
    with pytest.raises(TypeError, match="repeated"):
        Reference("r", "song", name="s")
    with pytest.raises(TypeError, match="unexpected"):
        Reference("r", "song", target="song")
    with pytest.raises(TypeError, match="positional"):
        Key("k", True, [], "extra")


def test_default_factories_are_not_shared():
    a, b = Table("a"), Table("b")
    a.columns.append("c")
    assert b.columns == [] and a.keys is not b.keys
    first, second = MatchReport(), MatchReport()
    first["Entities"].tp += 1
    assert second["Entities"].tp == 0
    assert first.scores["Entities"] is not second.scores["Entities"]


def test_post_init_checks_still_run():
    with pytest.raises(ModelError, match="Decimal requires precision and scale"):
        USDataType("Decimal")
    with pytest.raises(ModelError, match="unknown data type kind"):
        USDataType(kind="Money")
    assert str(USDataType("Decimal", 10, 2)) == "Decimal(10,2)"


def test_equality_compares_class_and_fields():
    assert Key("k", True, ["a"]) == Key("k", True, ["a"])
    assert Key("k", True, ["a"]) != Key("k", False, ["a"])
    assert Key("k", True, ["a"]) != Key("k", True, ["b"])
    # same field values, another class
    assert RenameEntity("a", "b") != DeleteFeature("a", "b")
    assert Key("k", True) != ("k", True, [])


def test_repr_names_fields_and_hides_repr_false_ones():
    assert repr(USDataType("Decimal", 10, 2)) == (
        "USDataType(kind='Decimal', precision=10, scale=2)")
    store = TraceStore()
    link = store.add("rel:song", "us:song", "R1")
    assert repr(store) == f"TraceStore(links=[{link!r}])"
    assert repr(link).startswith("TraceLink(sources=['rel:song'], ")
    assert store.seal()._sealed and TraceStore._sealed is False


def test_frozen_records_hash_and_refuse_assignment():
    file = object()
    link = _Link("song", file, ("a",), ("b",), ())
    same = _Link("song", file, ("a",), ("b",), ())
    assert link == same and hash(link) == hash(same)
    assert {link: 1}[same] == 1
    diagnostic = Diagnostic("I1", "us:m", "bad")
    assert diagnostic.severity == "error"
    assert hash(diagnostic) == hash(Diagnostic("I1", "us:m", "bad"))
    for frozen, name in ((link, "type_name"), (diagnostic, "path")):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(frozen, name, "x")
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(frozen, name)
        assert getattr(frozen, name) in ("song", "us:m")
    # a record that is not frozen is mutable and unhashable, as is a list
    stats = EntityStats()
    stats.rows_read = 3
    with pytest.raises(TypeError):
        hash(stats)


def test_entity_stats_as_dict_in_field_order():
    # the writers report a slice's stats as this dict
    assert vars(EntityStats(rows_read=2)) == {
        "rows_read": 2, "docs_written": 0, "elapsed_ms": 0.0,
        "nulls_omitted": 0, "dangling_refs": 0}
    assert list(vars(EntityStats())) == ["rows_read", "docs_written", "elapsed_ms",
                                         "nulls_omitted", "dangling_refs"]


def test_deep_copy_of_a_model_equals_it():
    model = parse_athena((FIXTURES / "music_streaming" / "model.athena").read_text())
    copied = copy.deepcopy(model)
    assert copied == model and copied is not model
    assert copied.entities[0] is not model.entities[0]
    copied.entities[0].name += "_x"
    assert copied != model
    schema = parse_ddl((FIXTURES / "northwind" / "schema.sql").read_text())
    assert copy.deepcopy(schema) == schema
    diagnostic = Diagnostic("I1", "us:m", "bad")
    assert copy.deepcopy(diagnostic) == diagnostic


def test_field_options():
    @record
    class Box:
        size: int
        items: list = field(default_factory=list)
        note: str = field(default="", repr=False)

    box = Box(1)
    assert (box.size, box.items, box.note) == (1, [], "")
    assert Box.note == "" and not hasattr(Box, "items")
    assert repr(Box(2, [1], "hidden")) == "test_field_options.<locals>.Box(size=2, items=[1])"
