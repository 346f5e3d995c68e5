from unimig.transforms.doc_to_us import document_to_uschema
from unimig.transforms.naming import plural, unique_name
from unimig.transforms.rel_to_us import rel_to_uschema
from unimig.transforms.result import TransformResult
from unimig.transforms.us_to_doc import uschema_to_document
from unimig.transforms.us_to_rel import uschema_to_relational

__all__ = [
    "TransformResult",
    "document_to_uschema",
    "plural",
    "rel_to_uschema",
    "unique_name",
    "uschema_to_document",
    "uschema_to_relational",
]
