"""Command-line front end: one verb per pipeline stage.

Model files are self-describing: ``.sql`` is relational DDL, ``.athena`` the
pivot text notation, ``.docschema.json`` / JSON with a ``documents`` array a
document schema, and JSON with a ``kind`` marker a relational or pivot
model. Outputs are written atomically (temp file + rename). Exit codes:
0 success, 1 domain error, 2 usage error. The modules that only
``roundtrip``, ``diff``, ``evolve`` and ``generate-dataset`` use are imported
by those verbs, so that ``migrate`` does not load them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from unimig.document.model import DocumentSchema
from unimig.document.schema_json import parse_docschema, print_docschema
from unimig.errors import MigrationError
from unimig.migrator import migrate
from unimig.relational.ddl import parse_ddl, print_ddl
from unimig.relational.model import RelationalSchema
from unimig.source import open_source
from unimig.trace import TraceStore, load_trace, save_trace
from unimig.transforms import (
    document_to_uschema,
    rel_to_uschema,
    uschema_to_document,
    uschema_to_relational,
)
from unimig.uschema.athena import parse_athena, print_athena
from unimig.uschema.model import USchemaModel, model_from_dict, model_to_dict


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(Path(path), text)


def _rel_model_json(schema: RelationalSchema) -> str:
    from unimig.relational.model import schema_to_dict

    return json.dumps({"kind": "relational", "model": schema_to_dict(schema)},
                      indent=2) + "\n"


def _us_model_json(model: USchemaModel) -> str:
    return json.dumps({"kind": "uschema", "model": model_to_dict(model)},
                      indent=2) + "\n"


def load_model(path: str):
    """Load any model file, detecting its kind."""
    from unimig.relational.model import schema_from_dict

    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".sql":
        return parse_ddl(text, name=p.stem)
    if p.suffix == ".athena":
        return parse_athena(text)
    data = json.loads(text)
    if isinstance(data, dict) and data.get("kind") == "relational":
        return schema_from_dict(data["model"])
    if isinstance(data, dict) and data.get("kind") == "uschema":
        return model_from_dict(data["model"])
    if isinstance(data, dict) and "documents" in data:
        return parse_docschema(text)
    raise MigrationError(f"cannot determine the model kind of {path}")


def _require(model, wanted: type, path: str):
    if not isinstance(model, wanted):
        raise MigrationError(
            f"{path} holds a {type(model).__name__}, expected {wanted.__name__}")
    return model


def _cmd_inject(args) -> int:
    schema = _require(load_model(args.input), RelationalSchema, args.input)
    _emit(args.output, _rel_model_json(schema))
    return 0


def _cmd_emit_ddl(args) -> int:
    schema = _require(load_model(args.input), RelationalSchema, args.input)
    _emit(args.output, print_ddl(schema))
    return 0


def _cmd_emit_athena(args) -> int:
    model = _require(load_model(args.input), USchemaModel, args.input)
    _emit(args.output, print_athena(model))
    return 0


_TRANSFORMS = {
    ("rel", "us"): (RelationalSchema, rel_to_uschema, _us_model_json),
    ("us", "doc"): (USchemaModel, uschema_to_document,
                    lambda m: print_docschema(m)),
    ("doc", "us"): (DocumentSchema, document_to_uschema, _us_model_json),
    ("us", "rel"): (USchemaModel, uschema_to_relational,
                    lambda m: print_ddl(m)),
}


def _cmd_transform(args) -> int:
    key = (args.source_kind, args.target_kind)
    if key not in _TRANSFORMS:
        raise MigrationError(
            f"no transformation from {key[0]!r} to {key[1]!r}; supported: "
            + ", ".join(f"{a}->{b}" for a, b in _TRANSFORMS))
    wanted, run, render = _TRANSFORMS[key]
    model = _require(load_model(args.input), wanted, args.input)
    result = run(model)
    _emit(args.output, render(result.target))
    if args.trace:
        _write_atomic(Path(args.trace), save_trace(result.trace))
    return 0


def _cmd_evolve(args) -> int:
    from unimig.evolution import apply_changes, parse_orion

    model = _require(load_model(args.input), USchemaModel, args.input)
    ops = parse_orion(Path(args.script).read_text(encoding="utf-8"))
    trace = (load_trace(Path(args.trace).read_text(encoding="utf-8"))
             if args.trace else TraceStore())
    evolved, rewritten = apply_changes(model, ops, trace)
    _emit(args.output, _us_model_json(evolved))
    if args.trace_out:
        _write_atomic(Path(args.trace_out), save_trace(rewritten))
    return 0


def _cmd_migrate(args) -> int:
    if args.source_url or args.target_url:
        raise MigrationError(
            "network adapters are a documented extension point and are not "
            "available; use --source DIR / --out DIR")
    source_dir = Path(args.source)
    schema = parse_ddl((source_dir / "schema.sql").read_text(encoding="utf-8"))
    step1 = rel_to_uschema(schema)
    step2 = uschema_to_document(step1.target)
    out_dir = Path(args.out)
    session = open_source(source_dir, schema, step1.trace)
    report = migrate(step2.target, step2.trace, session, out_dir,
                     trace_refs={"t1": "t1.trace.json", "t2": "t2.trace.json"})
    _write_atomic(out_dir / "t1.trace.json", save_trace(step1.trace))
    _write_atomic(out_dir / "t2.trace.json", save_trace(step2.trace))
    _write_atomic(out_dir / "target.docschema.json", print_docschema(step2.target))
    sys.stdout.write(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def _cmd_roundtrip(args) -> int:
    from unimig.compare import run_roundtrip

    schema = _require(load_model(args.input), RelationalSchema, args.input)
    result = run_roundtrip(schema)
    if args.report == "json":
        text = json.dumps(result.report.to_dict(), indent=2) + "\n"
    else:
        text = result.report.to_markdown()
    _emit(args.output, text)
    return 0


def _cmd_diff(args) -> int:
    from unimig.compare import diff_models

    a = load_model(args.a)
    b = load_model(args.b)
    if type(a) is not type(b):
        raise MigrationError(
            f"cannot diff a {type(a).__name__} against a {type(b).__name__}")
    differences = diff_models(a, b)
    sys.stdout.write(json.dumps(differences, indent=2, default=str) + "\n")
    return 0


def _cmd_generate(args) -> int:
    from unimig.datagen import ScaleSpec, generate_dataset

    manifest = generate_dataset(ScaleSpec(args.scale, args.seed), Path(args.out))
    sys.stdout.write(json.dumps(manifest, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unimig",
        description="Schema and data migration through a unified pivot model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inject", help="DDL file to relational model JSON")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_inject)

    p = sub.add_parser("emit-ddl", help="relational model to DDL text")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_emit_ddl)

    p = sub.add_parser("emit-athena", help="pivot model to textual notation")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_emit_athena)

    p = sub.add_parser("transform", help="run one model-to-model step")
    p.add_argument("--from", dest="source_kind", required=True,
                   choices=["rel", "us", "doc"])
    p.add_argument("--to", dest="target_kind", required=True,
                   choices=["us", "doc", "rel"])
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--trace", help="write the recorded trace here")
    p.set_defaults(run=_cmd_transform)

    p = sub.add_parser("evolve", help="apply a change script to a pivot model")
    p.add_argument("input")
    p.add_argument("--script", required=True)
    p.add_argument("--trace", help="trace to rewrite alongside the model")
    p.add_argument("--trace-out", help="write the rewritten trace here")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_evolve)

    p = sub.add_parser("migrate",
                       help="migrate a dataset directory to JSON lines")
    p.add_argument("--source", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="target directory")
    p.add_argument("--source-url", help="reserved; live sources are not supported")
    p.add_argument("--target-url", help="reserved; live targets are not supported")
    p.set_defaults(run=_cmd_migrate)

    p = sub.add_parser("roundtrip",
                       help="forward and back, reporting preservation metrics")
    p.add_argument("input")
    p.add_argument("--report", choices=["json", "md"], default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_roundtrip)

    p = sub.add_parser("diff", help="structural diff of two same-kind models")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(run=_cmd_diff)

    p = sub.add_parser("generate-dataset", help="write a benchmark dataset")
    p.add_argument("--scale", required=True, choices=["S", "M", "L"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_generate)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except MigrationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))
