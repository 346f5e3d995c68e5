"""Primitive type correspondences for all four transform directions.

The document model only knows four scalar kinds, so both date-like and
decimal relational types lose precision on the way in; going back out,
strings widen to VARCHAR(255) and doubles stay DOUBLE.
"""

from __future__ import annotations

from unimig.document.model import DocType
from unimig.errors import TransformError
from unimig.relational.model import SqlType
from unimig.uschema.model import USDataType

_REL_TO_US = {
    "CHAR": "String", "VARCHAR": "String", "TEXT": "String",
    "INT": "Integer", "BIGINT": "Integer", "SMALLINT": "Integer",
    "BOOLEAN": "Boolean",
    "DATE": "Date", "TIMESTAMP": "Date",
    "DOUBLE": "Double", "REAL": "Double",
}

_US_TO_DOC = {
    "String": "STRING", "Integer": "INTEGER", "Boolean": "BOOLEAN",
    "Double": "DOUBLE", "Decimal": "DOUBLE", "Date": "STRING",
}

_DOC_TO_US = {
    "STRING": "String", "INTEGER": "Integer",
    "BOOLEAN": "Boolean", "DOUBLE": "Double",
}


def rel_to_us_type(dt: SqlType) -> USDataType:
    if dt.base in ("DECIMAL", "NUMERIC"):
        return USDataType("Decimal", dt.precision, dt.scale)
    return USDataType(_REL_TO_US[dt.base])


def us_to_doc_type(dt: USDataType) -> DocType:
    return DocType(_US_TO_DOC[dt.kind])


def doc_to_us_type(dt: DocType) -> USDataType:
    return USDataType(_DOC_TO_US[dt.primitive])


def us_to_rel_type(dt: USDataType) -> SqlType:
    if dt.kind == "String" or dt.kind == "Date":
        return SqlType("VARCHAR", length=255)
    if dt.kind == "Integer":
        return SqlType("INT")
    if dt.kind == "Boolean":
        return SqlType("BOOLEAN")
    if dt.kind == "Double":
        return SqlType("DOUBLE")
    if dt.kind == "Decimal":
        return SqlType("NUMERIC", precision=dt.precision, scale=dt.scale)
    raise TransformError(f"no relational type for {dt.kind!r}")
