"""Exact error messages, with line and column, for malformed DDL and Athena
text. Each case names the first fault a reader of the text would meet."""

from __future__ import annotations

import shutil

import pytest
from util import FIXTURES

from unimig.cli import dispatch
from unimig.errors import TextParseError
from unimig.relational.ddl import parse_ddl
from unimig.uschema.athena import parse_athena

DDL_ERRORS = [
    ("TABLE t (a INT);",
     "line 1, column 1: expected CREATE, found 'TABLE'"),
    ("CREATE",
     "line 1, column 7: expected TABLE, found 'end of input'"),
    ("CREATE TABLE (a INT);",
     "line 1, column 14: expected table name, found '('"),
    ("CREATE TABLE t a INT);",
     "line 1, column 16: expected '(', found 'a'"),
    ("CREATE TABLE t (a INT)",
     "line 1, column 23: expected ';', found 'end of input'"),
    # end of input is placed where the input ends, after a trailing comment
    ("CREATE TABLE t (a INT PRIMARY KEY) -- c",
     "line 1, column 40: expected ';', found 'end of input'"),
    ("CREATE TABLE t (a VARCHAR(x));",
     "line 1, column 27: expected number, found 'x'"),
    ("CREATE TABLE t (a VARCHAR(",
     "line 1, column 27: expected number, found 'end of input'"),
    ("CREATE TABLE t (a DECIMAL(4,);",
     "line 1, column 29: expected number, found ')'"),
    ("CREATE TABLE t (a WOBBLE);",
     "line 1, column 19: unsupported SQL type 'WOBBLE'"),
    # a size the type does not allow is placed at the type name
    ("CREATE TABLE t (a VARCHAR(0));",
     "line 1, column 19: VARCHAR requires a positive length"),
    ("CREATE TABLE t (a DECIMAL(0));",
     "line 1, column 19: DECIMAL requires a positive precision"),
    ("CREATE TABLE t (a DECIMAL(2,5));",
     "line 1, column 19: DECIMAL scale 5 exceeds its precision 2"),
    ("CREATE TABLE t (a INT NOT x);",
     "line 1, column 27: expected NULL, found 'x'"),
    ("CREATE TABLE t (CONSTRAINT c a INT);",
     "line 1, column 30: CONSTRAINT must introduce PRIMARY KEY, UNIQUE or "
     "FOREIGN KEY"),
    ("CREATE TABLE t (a INT, a INT);",
     "line 1, column 26: duplicate column 'a' in table 't'"),
    ("CREATE TABLE t (a INT PRIMARY KEY, PRIMARY KEY (a));",
     "line 1, column 51: table 't' already has a primary key"),
    ("CREATE TABLE t (a INT, PRIMARY (a));",
     "line 1, column 32: expected KEY, found '('"),
    ("CREATE TABLE t (a INT DEFAULT);",
     "line 1, column 30: DEFAULT requires an expression"),
    ("CREATE TABLE t (a INT DEFAULT 1",
     "line 1, column 32: unterminated DEFAULT expression"),
    ("CREATE TABLE t (a INT, FOREIGN KEY (a) REFERENCES t (a) ON DELETE foo);",
     "line 1, column 67: expected CASCADE/SET/NO/RESTRICT, found 'foo'"),
    ("CREATE TABLE t (a INT, FOREIGN KEY (a) REFERENCES t (a) ON foo);",
     "line 1, column 60: expected DELETE/UPDATE, found 'foo'"),
    ("CREATE TABLE t (a INT, FOREIGN KEY (a) REFERENCES t (a) ON DELETE SET foo);",
     "line 1, column 71: expected NULL/DEFAULT/ACTION, found 'foo'"),
    ("CREATE TABLE t (a INT, FOREIGN KEY (a) REFERENCES nope);",
     "line 1, column 24: foreign key 't_fk1' references unknown table 'nope'"),
    ("CREATE TABLE t (a INT, FOREIGN KEY (a) REFERENCES t (a));",
     "line 1, column 24: foreign key 't_fk1' references no key of 't' over "
     "columns ['a']"),
    ("CREATE TABLE t (a VARCHAR(5) DEFAULT 'x);",
     "line 1, column 38: unterminated string literal"),
    ("CREATE TABLE t (a VARCHAR(5) DEFAULT 'a''",
     "line 1, column 38: unterminated string literal"),
    ("CREATE TABLE t (a VARCHAR(5) DEFAULT 'it''s'",
     "line 1, column 45: unterminated DEFAULT expression"),
    ("CREATE TABLE t (a VARCHAR(5) DEFAULT 'it''s') x",
     "line 1, column 47: expected ';', found 'x'"),
    ("CREATE TABLE t (a INT) @",
     "line 1, column 24: unexpected character '@'"),
    ("CREATE TABLE t (a INT)\f;",
     "line 1, column 23: unexpected character '\\x0c'"),
    ("CREATE TABLE t (a INT)\xa0;",
     "line 1, column 23: unexpected character '\\xa0'"),
    ("\tCREATE\tTABLE t (a INT)\tx;",
     "line 1, column 25: expected ';', found 'x'"),
    ("CREATE TABLE t (\r\n  a INT,\r\n  b WOBBLE\r\n);",
     "line 3, column 5: unsupported SQL type 'WOBBLE'"),
    ("CREATE TABLE t (a INT);\r\nCREATE TABLE t (b INT);",
     "line 2, column 1: duplicate table 't'"),
    ("-- schema: s\n-- note\nTABLE t (a INT);",
     "line 3, column 1: expected CREATE, found 'TABLE'"),
    # a line feed inside a string starts a new line
    ("CREATE TABLE t (a VARCHAR(5) DEFAULT 'a\nb') x",
     "line 2, column 5: expected ';', found 'x'"),
    # type sizes are unsigned integers
    ("CREATE TABLE t (a VARCHAR(2.5));",
     "line 1, column 27: type size must be an unsigned integer, found '2.5'"),
    ("CREATE TABLE t (a DECIMAL(4.9, 2));",
     "line 1, column 27: type size must be an unsigned integer, found '4.9'"),
    ("CREATE TABLE t (a DECIMAL(4, 2.));",
     "line 1, column 30: type size must be an unsigned integer, found '2.'"),
    ("CREATE TABLE t (\n  a VARCHAR(1.2.3));",
     "line 2, column 13: type size must be an unsigned integer, found '1.2.3'"),
    # identifiers and numbers are ASCII
    ("CREATE TABLE caf\u00e9 (a INT);",
     "line 1, column 17: unexpected character '\u00e9'"),
    ("CREATE TABLE t (a VARCHAR(\u0663));",
     "line 1, column 27: unexpected character '\u0663'"),
]

ATHENA_ERRORS = [
    ("Entity A { x: Integer }",
     "line 1, column 1: expected 'Schema'"),
    ("Schema",
     "line 1, column 7: expected schema name, found 'end of input'"),
    ("Schema X",
     "line 1, column 9: expected ':', found 'end of input'"),
    ("Schema X:y",
     "line 1, column 10: expected integer, found 'y'"),
    ("Schema X:1\nEntity A { id String }",
     "line 2, column 15: expected ':', found 'String'"),
    ("Schema X:1\nThing A { x: Integer }",
     "line 2, column 1: expected 'entity'"),
    ("Schema X:1\nRoot A { x: Integer }",
     "line 2, column 6: expected 'entity'"),
    ("Schema X:1\nEntity { x: Integer }",
     "line 2, column 8: expected entity name, found '{'"),
    ("Schema X:1\nEntity A { x: Integer",
     "line 2, column 22: expected '}', found 'end of input'"),
    ("Schema X:1\nEntity A { x: Integer // c",
     "line 2, column 27: expected '}', found 'end of input'"),
    ("Schema X:1\nEntity A { x: Wobble }",
     "line 2, column 15: unknown type name 'Wobble'"),
    ("Schema X:1\nEntity A { x: Integer* }",
     "line 2, column 24: '*' is not applicable to scalar features"),
    ("Schema X:1\nEntity A { +r: Ref<A> }",
     "line 2, column 23: '+' is only applicable to scalar features"),
    ("Schema X:1\nEntity A { x: Decimal(4 2) }",
     "line 2, column 25: expected ',', found '2'"),
    ("Schema X:1\nEntity A { r: Ref<1> }",
     "line 2, column 19: expected entity name, found '1'"),
    ("Schema X:1\nEntity A { x: Integer } /",
     "line 2, column 25: unexpected character '/'"),
    ("Schema X:1\nEntity A { x: Integer } @",
     "line 2, column 25: unexpected character '@'"),
    ("Schema X:1\nEntity A { x: Integer }\xa0",
     "line 2, column 24: unexpected character '\\xa0'"),
    ("Schema X:1\r\n\tEntity A {\r\n\tx Integer }",
     "line 3, column 4: expected ':', found 'Integer'"),
    ("Schema X:1\nEntity A { r: Ref<Nope> }",
     "reference A.r names undeclared type 'Nope'"),
    # identifiers and numbers are ASCII
    ("Schema X:1\nEntity \u00c9 { x: Integer }",
     "line 2, column 8: unexpected character '\u00c9'"),
    ("Schema X:1\nEntity A { x: Decimal(\u0664, 2) }",
     "line 2, column 23: unexpected character '\u0664'"),
]


@pytest.mark.parametrize("text, message", DDL_ERRORS)
def test_ddl_error_message(text, message):
    with pytest.raises(TextParseError) as err:
        parse_ddl(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", ATHENA_ERRORS)
def test_athena_error_message(text, message):
    with pytest.raises(TextParseError) as err:
        parse_athena(text)
    assert str(err.value) == message


def test_decimal_default_still_parses():
    schema = parse_ddl("CREATE TABLE t (a DECIMAL(4,2) DEFAULT 1.5 NOT NULL);")
    column = schema.table("t").column("a")
    assert column.default == "1.5"
    assert not column.nullable


def test_migrate_reports_a_bad_type_size_without_a_traceback(tmp_path, capsys):
    source = tmp_path / "data"
    shutil.copytree(FIXTURES / "music_streaming" / "mini_data", source)
    ddl = (source / "schema.sql").read_text()
    (source / "schema.sql").write_text(ddl.replace("VARCHAR(80)", "VARCHAR(1.2.3)", 1))
    code = dispatch(["migrate", "--source", str(source), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: line 4, column 25: type size must be an unsigned "
                          "integer, found '1.2.3'")
    assert "Traceback" not in err
