"""Result wrapper shared by the four transformations."""

from __future__ import annotations

from typing import Union

from unimig.document.model import DocumentSchema
from unimig.record import record
from unimig.relational.model import RelationalSchema
from unimig.trace import TraceStore
from unimig.uschema.model import USchemaModel

TargetModel = Union[USchemaModel, DocumentSchema, RelationalSchema]


@record
class TransformResult:
    """Produced target model plus the trace recorded while producing it;
    every element of ``target`` is the target of at least one link."""

    target: TargetModel
    trace: TraceStore
