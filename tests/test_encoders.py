"""The migrator writes JSON text from per-type encoders chosen once per
column; each must give exactly what ``json.dumps`` gives for the same
value, and a whole built document exactly what ``json.dumps`` gives for
the same document as a dict."""

from __future__ import annotations

import csv
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unimig.migrator import _ENCODERS, _float_text, migrate
from unimig.relational.ddl import parse_ddl
from unimig.source import open_source
from unimig.transforms import rel_to_uschema, uschema_to_document


def dumps(value) -> str:
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


# quotes, backslashes, every control character, the JSON/JavaScript line
# separators, non-ASCII letters and characters outside the BMP
_SPECIAL = ['"', "\\", "/", "\x7f", "\u2028", "\u2029", "é", "ñ", "ß", "中",
            "\U0001f600", "\U0010ffff", "\ufeff"] + [chr(c) for c in range(32)]
_TEXT = st.text(st.one_of(st.sampled_from(_SPECIAL), st.characters()))

_INT_BOUNDS = [v for bits in (16, 32, 64)
               for v in (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)]


@settings(max_examples=300)
@given(_TEXT)
@example('say "hi"\\ \u2028\u2029\x00\x1f\U0001f600 Zoë')
def test_string_encoder_matches_dumps(text):
    assert _ENCODERS[str](text) == dumps(text)


@given(st.one_of(st.sampled_from(_INT_BOUNDS + [0, -1, 1]),
                 st.integers(-(1 << 63), (1 << 63) - 1)))
def test_int_encoder_matches_dumps(value):
    assert _ENCODERS[int](value) == dumps(value)
    # an integer column read into a DOUBLE property
    assert _float_text(value) == dumps(float(value))


@given(st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7,
                                  0.1, 1.7976931348623157e308, 123456789.0]),
                 st.floats(allow_nan=False, allow_infinity=False)))
def test_float_encoder_matches_dumps(value):
    assert _ENCODERS[float](value) == dumps(value)
    assert _float_text(value) == dumps(value)


@pytest.mark.parametrize("value", [True, False])
def test_bool_encoder_matches_dumps(value):
    assert _ENCODERS[bool](value) == dumps(value)


# --- whole documents -------------------------------------------------------------

_DDL = ("CREATE TABLE t (id BIGINT PRIMARY KEY, s VARCHAR(99), small SMALLINT,"
        " i INT, x DOUBLE, d DECIMAL(9,2), b BOOLEAN, w DATE, n INT);"
        "CREATE TABLE u (t_id BIGINT, pos INT, note VARCHAR(99),"
        " PRIMARY KEY (t_id, pos), FOREIGN KEY (t_id) REFERENCES t (id));")
_SCHEMA = parse_ddl(_DDL)
_STEP1 = rel_to_uschema(_SCHEMA)
_STEP2 = uschema_to_document(_STEP1.target)

# a CSV field holds no line break; "" is NULL; a UTF-8 file holds no
# lone surrogate
_CELL = st.text(st.one_of(st.sampled_from(_SPECIAL[:-32] + ['"', ",", " "]),
                          st.characters(blacklist_characters="\r\n\x00",
                                        codec="utf-8")),
                min_size=1)
_ROW = st.tuples(_CELL, st.sampled_from(_INT_BOUNDS[:2]),
                 st.sampled_from(_INT_BOUNDS[2:4] + [0]),
                 st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 1234567.25]),
                 st.booleans(), st.lists(_CELL, max_size=3))


@settings(max_examples=30, deadline=None)
@given(st.lists(_ROW, max_size=6))
def test_built_documents_match_dumps(tmp_path_factory, rows):
    root = tmp_path_factory.mktemp("data")
    (root / "schema.sql").write_text(_DDL, encoding="utf-8")
    expected: list[dict] = []
    with open(root / "t.csv", "w", newline="", encoding="utf-8") as t_file, \
            open(root / "u.csv", "w", newline="", encoding="utf-8") as u_file:
        t_out, u_out = csv.writer(t_file), csv.writer(u_file)
        t_out.writerow([c.name for c in _SCHEMA.table("t").columns])
        u_out.writerow(["t_id", "pos", "note"])
        for k, (s, small, i, x, d, b, notes) in enumerate(rows):
            key = k - (1 << 63)  # BIGINT keys from the lower bound
            t_out.writerow([key, s, small, i, repr(x), repr(d),
                            "true" if b else "false", "2025-01-02", ""])
            u_out.writerows([key, pos, note] for pos, note in enumerate(notes))
            expected.append({
                "id": key, "s": s, "small": small, "i": i, "x": x, "d": d,
                "b": b, "w": "2025-01-02",
                "us": [{"pos": pos, "note": note}
                       for pos, note in enumerate(notes)]})
    out = tmp_path_factory.mktemp("out")
    session = open_source(root, _SCHEMA, _STEP1.trace)
    migrate(_STEP2.target, _STEP2.trace, session, out)
    lines = (out / "t.jsonl").read_text(encoding="utf-8").split("\n")
    assert lines == [dumps(doc) for doc in expected] + [""]
