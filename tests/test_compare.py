from __future__ import annotations

import copy
import itertools
import random

import pytest

from util import FIXTURES, random_schema

from unimig import compare
from unimig.compare import (
    compare_schemas,
    diff_models,
    max_weight_assignment,
    run_roundtrip,
)
from unimig.datagen import DATASET_DDL
from unimig.document.schema_json import parse_docschema
from unimig.relational.ddl import parse_ddl
from unimig.relational.model import RelationalSchema


@pytest.mark.parametrize("fixture", ["music_streaming", "northwind"])
def test_self_comparison_is_perfect(fixture):
    schema = parse_ddl((FIXTURES / fixture / "schema.sql").read_text())
    report = compare_schemas(schema, schema)
    for category, score in report.scores.items():
        assert score.precision == 1.0 and score.recall == 1.0 and score.f1 == 1.0


def test_empty_schemas_score_one_by_convention():
    report = compare_schemas(RelationalSchema("a"), RelationalSchema("b"))
    for score in report.scores.values():
        assert score.f1 == 1.0


def test_missing_table_hits_recall():
    # eight tables, one dropped: recall 7/8 by direct counting
    schema = parse_ddl(DATASET_DDL)
    assert len(schema.tables) == 8
    pruned = copy.deepcopy(schema)
    removed = pruned.tables.pop()
    pruned.tables = [t for t in pruned.tables
                     if not any(fk.ref_table == removed.name for fk in t.fkeys)]
    report = compare_schemas(schema, pruned)
    entities = report["Entities"]
    assert entities.precision == 1.0
    assert entities.recall == pytest.approx((8 - 1) / 8)


def test_type_drift_counts_against_datatypes_not_attributes():
    a = parse_ddl("CREATE TABLE t (name VARCHAR(80) NOT NULL);")
    b = parse_ddl("CREATE TABLE t (name VARCHAR(255) NOT NULL);")
    report = compare_schemas(a, b)
    assert report["Attributes"].tp == 1 and report["Attributes"].f1 == 1.0
    assert report["DataTypes"].tp == 0
    assert report["DataTypes"].fn == 1 and report["DataTypes"].fp == 1


def test_renamed_table_still_matches_structurally():
    a = parse_ddl("CREATE TABLE playlist (playlist_id CHAR(8) PRIMARY KEY,"
                  " name VARCHAR(30));")
    b = parse_ddl("CREATE TABLE playlists (playlist_id CHAR(8) PRIMARY KEY,"
                  " name VARCHAR(30));")
    report = compare_schemas(a, b)
    assert report["Entities"].f1 == 1.0
    assert report.table_pairs == [("playlist", "playlists")]


def test_one_empty_side_matches_nothing(music_schema):
    for a, b in [(music_schema, RelationalSchema("e")),
                 (RelationalSchema("e"), music_schema)]:
        report = compare_schemas(a, b)
        entities = report["Entities"]
        assert report.table_pairs == [] and entities.tp == 0
        assert entities.fn + entities.fp == len(music_schema.tables)


# --- table assignment -----------------------------------------------------------

def _best_total(weights):
    """Brute force: the largest total over every assignment of the smaller
    side into the larger one."""
    n = len(weights)
    m = len(weights[0]) if weights else 0
    if n <= m:
        return max(sum(weights[i][j] for i, j in enumerate(cols))
                   for cols in itertools.permutations(range(m), n))
    return max(sum(weights[i][j] for j, i in enumerate(rows))
               for rows in itertools.permutations(range(n), m))


def _random_matrices(rng):
    yield []
    yield [[], [], []]
    yield [[2.0]]
    for _ in range(300):
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        if rng.random() < 0.2:  # 1 x m or n x 1
            n, m = (1, m) if rng.random() < 0.5 else (n, 1)
        if rng.random() < 0.5:  # small integers: many ties
            weights = [[float(rng.randint(0, 2)) for _ in range(m)]
                       for _ in range(n)]
        else:
            weights = [[rng.randint(0, 12) / 6 for _ in range(m)]
                       for _ in range(n)]
        if n and m and rng.random() < 0.3:
            weights[rng.randrange(n)] = [0.0] * m
        if n and m and rng.random() < 0.3:
            zero_col = rng.randrange(m)
            for row in weights:
                row[zero_col] = 0.0
        yield weights


def test_assignment_is_optimal_against_brute_force():
    for weights in _random_matrices(random.Random(1955)):
        pairs = max_weight_assignment(weights)
        n = len(weights)
        m = len(weights[0]) if weights else 0
        assert len(pairs) == min(n, m)
        assert pairs == sorted(pairs)
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
        assert all(0 <= i < n and 0 <= j < m for i, j in pairs)
        total = sum(weights[i][j] for i, j in pairs)
        assert total == pytest.approx(_best_total(weights), abs=1e-9)


def test_zero_weight_pairs_are_dropped():
    a = parse_ddl("CREATE TABLE t (x INT); CREATE TABLE u (y BOOLEAN);")
    b = parse_ddl("CREATE TABLE t (x INT); CREATE TABLE v (z DATE);")
    report = compare_schemas(a, b)
    assert report.table_pairs == [("t", "t")]
    assert (report["Entities"].fn, report["Entities"].fp) == (1, 1)


def _scipy_assignment(weights):
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    if not weights or not weights[0]:
        return []
    rows, cols = linear_sum_assignment(np.array(weights), maximize=True)
    return [(int(i), int(j)) for i, j in zip(rows, cols)]


def test_assignment_matches_scipy(monkeypatch):
    pytest.importorskip("scipy")
    schemas = [parse_ddl((FIXTURES / f / "schema.sql").read_text())
               for f in ("music_streaming", "northwind")]
    rng = random.Random(20240601)  # the schemas of acceptance criterion 5
    schemas.extend(random_schema(rng) for _ in range(50))
    ours = [run_roundtrip(schema).report for schema in schemas]
    monkeypatch.setattr(compare, "max_weight_assignment", _scipy_assignment)
    theirs = [run_roundtrip(schema).report for schema in schemas]
    for schema, a, b in zip(schemas, ours, theirs):
        assert a.table_pairs == b.table_pairs, schema.name
        assert a.to_dict() == b.to_dict(), schema.name
    for weights in _random_matrices(random.Random(2016)):
        expected = _scipy_assignment(weights)
        got = max_weight_assignment(weights)
        assert sum(weights[i][j] for i, j in got) == pytest.approx(
            sum(weights[i][j] for i, j in expected), abs=1e-9)


def test_roundtrip_music_entity_row(music_schema):
    result = run_roundtrip(music_schema)
    entities = result.report["Entities"]
    assert (entities.precision, entities.recall, entities.f1) == (1.0, 1.0, 1.0)
    assert result.report["PrimaryKeys"].recall < 1.0


def test_roundtrip_northwind_composite_keys_surrogated(northwind_schema):
    result = run_roundtrip(northwind_schema)
    assert result.report["Entities"].f1 == 1.0
    assert result.report["PrimaryKeys"].recall < 1.0
    listening_like = result.reconstructed.table("order_details")
    assert listening_like.primary_key().columns == ["order_details_id"]


def _single_deletions(schema):
    """Copies of ``schema`` minus one element each: a plain column, a unique
    key, a foreign key, or an unreferenced table. Cascading edits would
    delete more than one element, so those candidates are skipped."""
    for ti, table in enumerate(schema.tables):
        keyed = {c for k in table.keys for c in k.columns}
        keyed |= {c for fk in table.fkeys for c in fk.columns}
        for ci, column in enumerate(table.columns):
            if column.name not in keyed:
                clone = copy.deepcopy(schema)
                clone.tables[ti].columns.pop(ci)
                yield clone
        for ki, key in enumerate(table.keys):
            if not key.is_pk:
                clone = copy.deepcopy(schema)
                clone.tables[ti].keys.pop(ki)
                yield clone
        for fi in range(len(table.fkeys)):
            clone = copy.deepcopy(schema)
            clone.tables[ti].fkeys.pop(fi)
            yield clone
        referenced = any(fk.ref_table == table.name
                         for t in schema.tables for fk in t.fkeys)
        if not referenced:
            clone = copy.deepcopy(schema)
            clone.tables.pop(ti)
            yield clone


def test_monotone_degradation_under_deletion(music_schema):
    result = run_roundtrip(music_schema)
    base = result.report
    for worse in _single_deletions(result.reconstructed):
        after = compare_schemas(music_schema, worse)
        for category in ("Entities", "Attributes", "PrimaryKeys",
                         "ForeignKeys", "Constraints", "DataTypes"):
            assert after[category].recall <= base[category].recall + 1e-9


def test_diff_identical_models_empty(music_schema, music_step2):
    assert diff_models(music_schema, music_schema) == []
    assert diff_models(music_step2.target, music_step2.target) == []


def test_diff_generated_vs_expected_doc_schema(music_step2):
    expected = parse_docschema(
        (FIXTURES / "music_streaming" / "expected.docschema.json").read_text())
    assert diff_models(music_step2.target, expected) == []


def test_diff_reports_single_rename():
    a = parse_ddl("CREATE TABLE t (x INT, y INT);")
    b = parse_ddl("CREATE TABLE t (x INT, z INT);")
    entries = diff_models(a, b)
    ops = {e["op"] for e in entries}
    assert "removed" in ops and "added" in ops
    paths = {e["path"] for e in entries}
    assert any("[y]" in p for p in paths) and any("[z]" in p for p in paths)


def test_diff_reports_changed_scalar():
    a = parse_ddl("CREATE TABLE t (x INT NOT NULL);")
    b = parse_ddl("CREATE TABLE t (x INT);")
    entries = diff_models(a, b)
    assert entries == [{
        "op": "changed", "path": "tables[t].columns[x].nullable",
        "before": False, "after": True}]


def test_diff_kind_mismatch_rejected(music_schema, music_step2):
    with pytest.raises(Exception):
        diff_models(music_schema, music_step2.target)


def test_report_rendering(music_schema):
    report = run_roundtrip(music_schema).report
    table = report.to_markdown()
    assert "| Entities | 1.00 | 1.00 | 1.00 |" in table
    data = report.to_dict()
    assert data["Entities"]["precision"] == 1.0
    assert set(data) == {"Entities", "Attributes", "PrimaryKeys",
                         "ForeignKeys", "Constraints", "DataTypes"}
