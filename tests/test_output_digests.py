"""Byte identity of migration output: SHA-256 of every JSON-lines, trace
and document schema file, pinned so that a change to the migration path
cannot alter output bytes unnoticed. ``manifest.json`` is left out: it
carries timings."""

from __future__ import annotations

import hashlib

from util import FIXTURES

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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_mini_output_bytes(tmp_path):
    out = tmp_path / "out"
    source = FIXTURES / "music_streaming" / "mini_data"
    assert dispatch(["migrate", "--source", str(source), "--out", str(out)]) == 0
    got = {p.name: _digest(p.read_bytes()) for p in sorted(out.iterdir())
           if p.name != "manifest.json"}
    assert got == MINI


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
