from __future__ import annotations

import pytest

from unimig.document.model import DocType
from unimig.errors import ModelError
from unimig.relational.model import SqlType
from unimig.transforms.typemap import (
    doc_to_us_type,
    rel_to_us_type,
    us_to_doc_type,
    us_to_rel_type,
)
from unimig.uschema.model import USDataType


@pytest.mark.parametrize("sql,expected", [
    (SqlType("CHAR", length=36), "String"),
    (SqlType("VARCHAR", length=80), "String"),
    (SqlType("TEXT"), "String"),
    (SqlType("INT"), "Integer"),
    (SqlType("BIGINT"), "Integer"),
    (SqlType("SMALLINT"), "Integer"),
    (SqlType("BOOLEAN"), "Boolean"),
    (SqlType("DATE"), "Date"),
    (SqlType("TIMESTAMP"), "Date"),
    (SqlType("DOUBLE"), "Double"),
    (SqlType("REAL"), "Double"),
])
def test_relational_to_pivot(sql, expected):
    assert rel_to_us_type(sql) == USDataType(expected)


def test_relational_decimal_keeps_parameters():
    assert rel_to_us_type(SqlType("DECIMAL", precision=4, scale=2)) == \
        USDataType("Decimal", 4, 2)
    assert rel_to_us_type(SqlType("NUMERIC", precision=10, scale=0)) == \
        USDataType("Decimal", 10, 0)


@pytest.mark.parametrize("us,expected", [
    (USDataType("String"), "STRING"),
    (USDataType("Integer"), "INTEGER"),
    (USDataType("Boolean"), "BOOLEAN"),
    (USDataType("Double"), "DOUBLE"),
    (USDataType("Decimal", 4, 2), "DOUBLE"),
    (USDataType("Date"), "STRING"),
])
def test_pivot_to_document(us, expected):
    assert us_to_doc_type(us) == DocType(expected)


@pytest.mark.parametrize("doc,expected", [
    (DocType("STRING"), "String"),
    (DocType("INTEGER"), "Integer"),
    (DocType("BOOLEAN"), "Boolean"),
    (DocType("DOUBLE"), "Double"),
])
def test_document_to_pivot(doc, expected):
    assert doc_to_us_type(doc) == USDataType(expected)


@pytest.mark.parametrize("us,expected", [
    (USDataType("String"), "VARCHAR(255)"),
    (USDataType("Integer"), "INT"),
    (USDataType("Boolean"), "BOOLEAN"),
    (USDataType("Double"), "NUMERIC(38,0)"),
    (USDataType("Decimal", 4, 2), "NUMERIC(4,2)"),
    (USDataType("Date"), "VARCHAR(255)"),
])
def test_pivot_to_relational(us, expected):
    assert str(us_to_rel_type(us)) == expected


def test_unknown_datatype_rejected():
    # unknown kinds never reach the mappings: the type constructors refuse them
    with pytest.raises(ModelError, match="unknown data type kind"):
        USDataType("Blob")
    with pytest.raises(ModelError, match="unknown document primitive"):
        DocType("BLOB")
