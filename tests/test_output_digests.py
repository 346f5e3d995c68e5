"""Byte identity of migration output: SHA-256 of every JSON-lines, trace
and document schema file, pinned so that a change to the migration path
cannot alter output bytes unnoticed. ``manifest.json`` is left out: it
carries timings."""

from __future__ import annotations

import hashlib
import random
import shutil
from itertools import groupby

import pytest
from util import FIXTURES, scan_csv

import unimig.migrator
from unimig.cli import dispatch
from unimig.document.schema_json import print_docschema
from unimig.trace import save_trace

MINI = {
    "app_user.jsonl":
        "d114b1f56cbf65f0fac9aa6ffa53cdf3bccfbe75117bf833146f531ba54f27fb",
    "listening.jsonl":
        "4a4ac63aa7f90f121276dd2c151f603628fb4d1680c4e71e50937406e3387f17",
    "musical_style.jsonl":
        "2ed4b6d2d1093bfeb2f941a6e738a9bd05b23955c8acfc1e63874919ad1bf1dc",
    "song.jsonl":
        "cb962940526ac744c0a4bb1f79955cbde6234a4084ca5311f38829a3c1950282",
    "song_style.jsonl":
        "505dca7e43a46709f2f4b902852f3c31d4dd0fa86750c6d1ad842212e9478bae",
    "t1.trace.json":
        "913cae8d75c381e6395d0f705dd45e49bd61a71abce64fd2fdced10fcd4300e3",
    "t2.trace.json":
        "4b0adff8b20aee3af30cbcc1a7e2334168c0d76261c1b7a401bb191213906a6b",
    "target.docschema.json":
        "0f336b904e25b0bb8eebaf70679b7956b0e46d296ee1f88a568ce3b4025e65b2",
}

S_SEED_42 = {
    "app_user.jsonl":
        "3ab85ae028d52fd05c7c4421289674721ed23bbb91e430f01e0331731e30566b",
    "listening.jsonl":
        "7d826c494cc5bfa01fc8d1dffccae7573927ac6084a25420ee85ec6a718f802b",
    "musical_style.jsonl":
        "bd6e17eb811ec940011585351ab1a2fe1d93e90c78342782be9bf3d2fbc5bdb5",
    "song.jsonl":
        "95459612d3b7b7dba2c76fb268e11083638ab63e7345251d00ef52c56d713347",
    "song_style.jsonl":
        "da8ee33de1aef4e4e0fddae377d6228baf0a146504ecf19ec51a96c19e1ecda3",
    "t1.trace.json":
        "913cae8d75c381e6395d0f705dd45e49bd61a71abce64fd2fdced10fcd4300e3",
    "t2.trace.json":
        "4b0adff8b20aee3af30cbcc1a7e2334168c0d76261c1b7a401bb191213906a6b",
    "target.docschema.json":
        "0f336b904e25b0bb8eebaf70679b7956b0e46d296ee1f88a568ce3b4025e65b2",
}

# fixtures/northwind/data_1x: bench/northwind_gen.generate(out, 1, 11), with
# REAL values, quoted fields, non-ASCII text, NULL-heavy columns and reverse
# references to integer keys
NORTHWIND_1X = {
    "categories.jsonl":
        "0f6a22d030e790b1747ebe35862a932c31749c3fa4ae0f56246349659947dd0b",
    "customer_customer_demo.jsonl":
        "49c24093792110a620a6b70c189246fd393226797af1fa31ad94f42eac93b30a",
    "customer_demographics.jsonl":
        "33acb6859b6da43e30f0ca69d037ff9ec82cfbd2c7a32e500096bea0c40475ec",
    "customers.jsonl":
        "5f360f4c6259c85c95d9a4be1004fdb7f3978f362f8230b4e12464552c95dd11",
    "employee_territories.jsonl":
        "a66e55a707bfa81da65126ab80e08f2383d176cc2d7feb93ce47abf587b4eaaa",
    "employees.jsonl":
        "04fdb22f4732686af18aadfceb10a8b2e0e4d6e2a68e3c0ade69fb4322401fb5",
    "order_details.jsonl":
        "081560a685f1be594fac5355fd08804aa0edd09f1a49b2a5be2b63c3156d48bc",
    "orders.jsonl":
        "fa45d6116c0ecdc0ee2d38d999b5811b7a86f9b7a267d987161c96e8ba7a3ffb",
    "products.jsonl":
        "8b445b52206158329e47ede043b540c3fe9cb3a1d7ceb4dd42afdc9991b2f05b",
    "region.jsonl":
        "d1543570ca64a47a23e0a67bb9a68d4ce500e6347a611a4e5dfeddef1d752893",
    "shippers.jsonl":
        "6229b1a5ce89398efb9e84feaed1bb99f852e243098557edb8ef0723f37ffa9e",
    "suppliers.jsonl":
        "9a69008113ec568f09f44ac3b3c983859f5deb1c4820cd3f75ab5acc531931cf",
    "t1.trace.json":
        "2df5eb3bf15e91b4563ddc3a9c1b3a69bf30dc9d79c77ba3571e7c6cb5b9fe29",
    "t2.trace.json":
        "df9130eaa4781f500f8b000a9390ae5ddf4d776d77967cd8d189f08527783bd2",
    "target.docschema.json":
        "ab77bd9691125889f6dc70e7b0114f652e24d38a784537f86548df712bab2698",
    "territories.jsonl":
        "b11721f4d7d9492b2efc55d6f163c704dd9f77c9a8f351335364757abf41a174",
    "us_states.jsonl":
        "3d5d2425433aefaf99bd78c2897de46f0582edab5660629442ad6aff2a62a8ea",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_mini_output_bytes(tmp_path):
    out = tmp_path / "out"
    source = FIXTURES / "music_streaming" / "mini_data"
    assert dispatch(["migrate", "--source", str(source), "--out", str(out)]) == 0
    got = {p.name: _digest(p.read_bytes()) for p in sorted(out.iterdir())
           if p.name != "manifest.json"}
    assert got == MINI


#: mini_data's child files that are only embedded, with the key their
#: groups are embedded by.
_EMBEDDED_ONLY = {"playlist.csv": ("user_id",),
                  "playlist_song.csv": ("playlist_id", "user_id"),
                  "most_recent_song.csv": ("user_id",)}


@pytest.mark.parametrize("k", [1, 2])
def test_mini_output_bytes_with_child_rows_shuffled(tmp_path, monkeypatch, k):
    # child groups are built from the file's lines clustered by their key
    # when the file is not clustered by it, into the same documents
    source = tmp_path / "shuffled"
    shutil.copytree(FIXTURES / "music_streaming" / "mini_data", source)
    rng = random.Random(3)
    clustered = []
    for name, key in _EMBEDDED_ONLY.items():
        path = source / name
        header, *lines = path.read_text().splitlines()
        rng.shuffle(lines)
        path.write_text("\n".join([header] + lines) + "\n")
        keys = [tuple(row[c] for c in key) for row in scan_csv(path)]
        clustered.append(len(list(groupby(keys))) == len(set(keys)))
    assert not all(clustered)
    monkeypatch.setattr(unimig.migrator, "_cpus", lambda: k)
    out = tmp_path / "out"
    assert dispatch(["migrate", "--source", str(source), "--out", str(out)]) == 0
    got = {p.name: _digest(p.read_bytes()) for p in sorted(out.iterdir())
           if p.name != "manifest.json"}
    assert got == MINI


@pytest.mark.parametrize("k", [1, 2, 3])
def test_northwind_output_bytes(tmp_path, monkeypatch, k):
    # the same bytes from any number of row slices
    monkeypatch.setattr(unimig.migrator, "_cpus", lambda: k)
    out = tmp_path / "out"
    source = FIXTURES / "northwind" / "data_1x"
    assert dispatch(["migrate", "--source", str(source), "--out", str(out)]) == 0
    got = {p.name: _digest(p.read_bytes()) for p in sorted(out.iterdir())
           if p.name != "manifest.json"}
    assert got == NORTHWIND_1X


def test_s_output_bytes(s_migration):
    out = s_migration["out"]
    got = {p.name: _digest(p.read_bytes()) for p in sorted(out.glob("*.jsonl"))}
    # the files `unimig migrate` writes next to the collections
    for name, text in (
            ("t1.trace.json", save_trace(s_migration["step1"].trace)),
            ("t2.trace.json", save_trace(s_migration["step2"].trace)),
            ("target.docschema.json",
             print_docschema(s_migration["step2"].target))):
        got[name] = _digest(text.encode("utf-8"))
    assert got == S_SEED_42
