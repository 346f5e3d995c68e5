from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from util import FIXTURES  # noqa: E402

from unimig.datagen import ScaleSpec, generate_dataset  # noqa: E402
from unimig.relational.ddl import parse_ddl  # noqa: E402
from unimig.transforms import rel_to_uschema, uschema_to_document  # noqa: E402


@pytest.fixture(scope="session")
def music_schema():
    return parse_ddl((FIXTURES / "music_streaming" / "schema.sql").read_text())


@pytest.fixture(scope="session")
def northwind_schema():
    return parse_ddl((FIXTURES / "northwind" / "schema.sql").read_text())


@pytest.fixture(scope="session")
def music_step1(music_schema):
    return rel_to_uschema(music_schema)


@pytest.fixture(scope="session")
def music_step2(music_step1):
    return uschema_to_document(music_step1.target)


@pytest.fixture(scope="session")
def mini_root() -> Path:
    return FIXTURES / "music_streaming" / "mini_data"


@pytest.fixture(scope="session")
def s_dataset(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("dataset") / "s"
    generate_dataset(ScaleSpec("S", 42), out)
    return out


@pytest.fixture(scope="session")
def s_migration(s_dataset, tmp_path_factory):
    """S-scale migration output, shared by conservation and oracle tests."""
    from unimig.migrator import migrate
    from unimig.source import open_source

    schema = parse_ddl((s_dataset / "schema.sql").read_text())
    step1 = rel_to_uschema(schema)
    step2 = uschema_to_document(step1.target)
    out = tmp_path_factory.mktemp("migrated") / "s"
    session = open_source(s_dataset, schema, step1.trace)
    report = migrate(step2.target, step2.trace, session, out)
    return {"out": out, "report": report, "schema": schema,
            "step1": step1, "step2": step2, "peak": session.peak_live_records}
