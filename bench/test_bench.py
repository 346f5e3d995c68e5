"""Tests of the benchmark's own parts: the Northwind generator and the
output checks. Run from the repository root::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import csv
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import northwind_gen  # noqa: E402
from unimig.cli import dispatch  # noqa: E402

MINI = ROOT / "fixtures" / "music_streaming" / "mini_data"


def _migrate(dataset: Path, out: Path) -> Path:
    assert dispatch(["migrate", "--source", str(dataset), "--out", str(out)]) == 0
    return out


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _rewrite(path: Path, edit) -> None:
    """Apply ``edit(list_of_docs)`` to a JSONL file."""
    docs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit(docs)
    path.write_text("".join(json.dumps(d, ensure_ascii=False) + "\n" for d in docs),
                    encoding="utf-8")


# --- generator ----------------------------------------------------------------

def test_generator_is_deterministic(tmp_path):
    a = _files(_generated(tmp_path / "a", 2, 5))
    b = _files(_generated(tmp_path / "b", 2, 5))
    c = _files(_generated(tmp_path / "c", 2, 6))
    assert a == b
    assert a != c
    assert a["schema.sql"] == (ROOT / "fixtures" / "northwind" / "schema.sql").read_bytes()


def _generated(out: Path, multiple: int, seed: int) -> Path:
    northwind_gen.generate(out, multiple, seed)
    return out


def test_generator_counts_types_and_keys(tmp_path):
    out = _generated(tmp_path / "nw", northwind_gen.MAX_MULTIPLE, 3)
    ddl = (out / "schema.sql").read_text(encoding="utf-8")
    tables = checks.read_ddl(ddl)
    widths = {(t, c): int(n) for t, c, n in _declared_widths(ddl)}
    rows = {}
    for name, table in tables.items():
        with open(out / f"{name}.csv", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            assert next(reader) == table.columns
            rows[name] = [dict(zip(table.columns, r)) for r in reader]
        assert len(rows[name]) == (northwind_gen.BASE_COUNTS[name]
                                   * northwind_gen.MAX_MULTIPLE)
    for name, table in tables.items():
        for row in rows[name]:
            for column, cell in row.items():
                assert "\n" not in cell and "\r" not in cell
                if cell and table.kinds[column] == "int":
                    assert -32768 <= int(cell) <= northwind_gen.SMALLINT_MAX
                if cell and (name, column) in widths:
                    assert len(cell) <= widths[(name, column)], (name, column, cell)
        for fk in table.fkeys:
            target = {tuple(r[c] for c in fk.ref_columns) for r in rows[fk.ref_table]}
            for row in rows[name]:
                value = tuple(row[c] for c in fk.columns)
                assert "" in value or value in target, (fk.name, value)
    text = "".join((out / f"{n}.csv").read_text(encoding="utf-8") for n in tables)
    assert '""' in text and re.search(r"[^\x00-\x7f]", text)


def _declared_widths(ddl: str):
    table = None
    for line in ddl.splitlines():
        m = re.match(r"CREATE TABLE (\w+)", line)
        if m:
            table = m.group(1)
        m = re.match(r"\s+(\w+)\s+(?:VARCHAR|CHAR)\((\d+)\)", line)
        if m:
            yield table, m.group(1), m.group(2)


# --- checks ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def mini_out(tmp_path_factory):
    return _migrate(MINI, tmp_path_factory.mktemp("mini") / "out")


@pytest.fixture(scope="module")
def northwind(tmp_path_factory):
    base = tmp_path_factory.mktemp("nw")
    dataset = _generated(base / "input", 1, 11)
    return dataset, _migrate(dataset, base / "out")


def _copy(out: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(out, tmp_path / "planted"))


def _kinds(messages: list[str]) -> set[str]:
    return {m.split(":", 1)[0] for m in messages}


def test_checks_pass_on_mini_data(mini_out):
    assert checks.check_output(MINI, mini_out) == (0, [])


def test_checks_pass_on_northwind(northwind):
    assert checks.check_output(*northwind) == (0, [])


def test_dropped_embedded_item_fails(mini_out, tmp_path):
    out = _copy(mini_out, tmp_path)
    _rewrite(out / "app_user.jsonl",
             lambda docs: docs[0]["playlists"][0]["playlist_songs"].pop())
    count, messages = checks.check_output(MINI, out)
    assert count == 1 and _kinds(messages) == {"conservation"}


def test_changed_value_fails(mini_out, tmp_path):
    out = _copy(mini_out, tmp_path)
    _rewrite(out / "song.jsonl", lambda docs: docs[0].update(duration=3.6))
    count, messages = checks.check_output(MINI, out)
    assert count == 1 and _kinds(messages) == {"value"}


def test_dangling_reference_fails(mini_out, tmp_path):
    out = _copy(mini_out, tmp_path)
    _rewrite(out / "app_user.jsonl",
             lambda docs: docs[0]["most_recent_songs"][0].update(song_id="s999"))
    count, messages = checks.check_output(MINI, out)
    assert "reference" in _kinds(messages)


def test_dropped_reverse_reference_fails(northwind, tmp_path):
    dataset, original = northwind
    out = _copy(original, tmp_path)
    _rewrite(out / "customers.jsonl",
             lambda docs: next(d for d in docs if d["orders"])["orders"].pop())
    count, messages = checks.check_output(dataset, out)
    assert count == 1 and _kinds(messages) == {"value"}


def test_present_null_cell_fails(northwind, tmp_path):
    dataset, original = northwind
    out = _copy(original, tmp_path)
    _rewrite(out / "customers.jsonl",
             lambda docs: next(d for d in docs if "fax" not in d).update(fax="x"))
    count, messages = checks.check_output(dataset, out)
    assert count == 1 and "NULL cell fax" in messages[0]


def test_manifest_count_mismatch_fails(mini_out, tmp_path):
    out = _copy(mini_out, tmp_path)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["collections"]["song"] += 1
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    count, messages = checks.check_output(MINI, out)
    assert count == 1 and _kinds(messages) == {"manifest"}


def test_digest_ignores_timings_only(mini_out, tmp_path):
    again = _migrate(MINI, tmp_path / "again")
    assert checks.output_digest(again) == checks.output_digest(mini_out)
    _rewrite(again / "song.jsonl", lambda docs: docs.reverse())
    assert checks.output_digest(again) != checks.output_digest(mini_out)
