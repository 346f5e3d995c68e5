"""Rule-tagged trace links between model elements.

An element identifier is ``<kind>:<path>`` with kind ``rel``, ``us`` or
``doc``. Paths are dotted; document paths additionally use ``/`` between
consecutive embedded levels (``doc:app_user.playlists/playlist_songs.position_idx``).
Attribute type nodes in the pivot model use a trailing ``.type`` segment.
Schema-level identifiers are the bare schema name (``rel:music_streaming``).

A store keeps its links in insertion order and maintains a symbolic index in
both directions. Object handles are not persisted; ``attach`` re-resolves
every identifier against concrete models, which is also how trace/model
consistency is checked.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from unimig.errors import TraceError

TRACE_VERSION = 1

# Roles let the source adapter and migrator act on a link without
# re-deriving which rule produced it.
AGGREGATE_CHILD = "AGGREGATE_CHILD"
REF_FORWARD = "REF_FORWARD"
REF_REVERSE = "REF_REVERSE"
REL_TYPE_SIDE = "REL_TYPE_SIDE"
KEY_COMPONENT = "KEY_COMPONENT"
ATTRIBUTE = "ATTRIBUTE"

ROLES = frozenset({AGGREGATE_CHILD, REF_FORWARD, REF_REVERSE, REL_TYPE_SIDE,
                   KEY_COMPONENT, ATTRIBUTE})

_ID_RE = re.compile(
    r"^(rel|us|doc):[A-Za-z_][A-Za-z0-9_]*(?:[./][A-Za-z_][A-Za-z0-9_]*)*$")


def check_id(element_id: str) -> str:
    if not _ID_RE.match(element_id):
        raise TraceError(f"malformed element id {element_id!r}")
    return element_id


def id_kind(element_id: str) -> str:
    return element_id.split(":", 1)[0]


def id_segments(element_id: str) -> list[str]:
    """Path segments with nesting separators flattened away."""
    return re.split(r"[./]", element_id.split(":", 1)[1])


def doc_path(components: list[tuple[str, bool]]) -> str:
    """Render a document path from (name, is_embedded) components: ``.``
    joins ordinary steps, ``/`` joins one embedded level to the next."""
    out = components[0][0]
    for (prev, prev_emb), (name, emb) in zip(components, components[1:]):
        out += ("/" if prev_emb and emb else ".") + name
    return "doc:" + out


@dataclass
class TraceLink:
    sources: list[str]
    targets: list[str]
    rule: str
    role: str | None = None

    def __post_init__(self) -> None:
        if not self.sources or not self.targets:
            raise TraceError("a trace link needs at least one source and one target")
        for element_id in (*self.sources, *self.targets):
            check_id(element_id)
        if self.role is not None and self.role not in ROLES:
            raise TraceError(f"unknown trace role {self.role!r}")


@dataclass
class TraceStore:
    links: list[TraceLink] = field(default_factory=list)
    _by_source: dict[str, list[int]] = field(default_factory=dict, repr=False)
    _by_target: dict[str, list[int]] = field(default_factory=dict, repr=False)
    _sealed: bool = field(default=False, repr=False)

    def record(self, link: TraceLink) -> "TraceStore":
        if self._sealed:
            raise TraceError("trace store is sealed")
        index = len(self.links)
        self.links.append(link)
        for s in link.sources:
            self._by_source.setdefault(s, []).append(index)
        for t in link.targets:
            self._by_target.setdefault(t, []).append(index)
        return self

    def add(self, sources: list[str] | str, targets: list[str] | str, rule: str,
            role: str | None = None) -> TraceLink:
        if isinstance(sources, str):
            sources = [sources]
        if isinstance(targets, str):
            targets = [targets]
        link = TraceLink(list(sources), list(targets), rule, role)
        self.record(link)
        return link

    def seal(self) -> "TraceStore":
        self._sealed = True
        return self

    def lookup(self, element_id: str, direction: str) -> list[TraceLink]:
        """Links containing ``element_id`` on the queried side
        (``forward`` = as source, ``backward`` = as target), in insertion order."""
        if direction == "forward":
            index = self._by_source
        elif direction == "backward":
            index = self._by_target
        else:
            raise TraceError(f"direction must be forward or backward, not {direction!r}")
        return [self.links[i] for i in index.get(element_id, [])]

    def target_ids(self) -> set[str]:
        return set(self._by_target)

    def rewrite_ids(self, mapping: dict[str, str]) -> None:
        """Replace ids in place (exact matches) and rebuild the indexes.

        Used by schema evolution after renames; the mapping must have been
        derived segment-wise so prefixes stay consistent.
        """
        if self._sealed:
            raise TraceError("trace store is sealed")
        for link in self.links:
            link.sources = [mapping.get(s, s) for s in link.sources]
            link.targets = [mapping.get(t, t) for t in link.targets]
        self._reindex()

    def remove_links(self, indices: set[int]) -> None:
        if self._sealed:
            raise TraceError("trace store is sealed")
        self.links = [l for i, l in enumerate(self.links) if i not in indices]
        self._reindex()

    def _reindex(self) -> None:
        self._by_source = {}
        self._by_target = {}
        for index, link in enumerate(self.links):
            for s in link.sources:
                self._by_source.setdefault(s, []).append(index)
            for t in link.targets:
                self._by_target.setdefault(t, []).append(index)

    def copy(self) -> "TraceStore":
        fresh = TraceStore()
        for link in self.links:
            fresh.record(TraceLink(list(link.sources), list(link.targets),
                                   link.rule, link.role))
        return fresh


def compose(t1: TraceStore, t2: TraceStore) -> TraceStore:
    """Join two stores through their shared middle namespace: a composed link
    exists for every (l1, l2) pair where some target of l1 is a source of l2,
    tagged ``<rule1>∘<rule2>``. Identical composed links are deduplicated."""
    out = TraceStore()
    seen: set[tuple] = set()
    t2_by_source: dict[str, list[TraceLink]] = {}
    for link in t2.links:
        for s in link.sources:
            t2_by_source.setdefault(s, []).append(link)
    for l1 in t1.links:
        hits: list[TraceLink] = []
        for t in l1.targets:
            for l2 in t2_by_source.get(t, []):
                if l2 not in hits:
                    hits.append(l2)
        for l2 in hits:
            key = (tuple(l1.sources), tuple(l2.targets), f"{l1.rule}∘{l2.rule}")
            if key in seen:
                continue
            seen.add(key)
            out.add(list(l1.sources), list(l2.targets), f"{l1.rule}∘{l2.rule}")
    return out


def save_trace(store: TraceStore) -> str:
    links = []
    for link in store.links:
        d: dict = {"sources": link.sources, "targets": link.targets, "rule": link.rule}
        if link.role is not None:
            d["role"] = link.role
        links.append(d)
    return json.dumps({"version": TRACE_VERSION, "links": links},
                      indent=2, ensure_ascii=False) + "\n"


def load_trace(text: str) -> TraceStore:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceError(f"malformed trace file: {exc.msg}") from exc
    if not isinstance(data, dict) or data.get("version") != TRACE_VERSION:
        raise TraceError(
            f"unsupported trace version {data.get('version')!r}"
            if isinstance(data, dict) else "trace file must be a JSON object")
    store = TraceStore()
    for d in data.get("links", []):
        try:
            store.record(TraceLink(list(d["sources"]), list(d["targets"]),
                                   d["rule"], d.get("role")))
        except KeyError as exc:
            raise TraceError(f"trace link missing field {exc}") from exc
    return store


# --- re-attachment ----------------------------------------------------------

def attach(store: TraceStore, rel=None, us=None, doc=None) -> dict[str, object]:
    """Resolve every identifier of the attached kinds to its model element.

    Returns the object index. Raises ``TraceError`` for any identifier that
    no longer resolves, which makes this the consistency check applied after
    trace rewriting. ``EVOLVE-*`` audit links are skipped: their sources are
    historical names that intentionally predate the current model.
    """
    kinds = {}
    if rel is not None:
        kinds["rel"] = rel
    if us is not None:
        kinds["us"] = us
    if doc is not None:
        kinds["doc"] = doc
    index: dict[str, object] = {}
    for link in store.links:
        if link.rule.startswith("EVOLVE-"):
            continue
        for element_id in (*link.sources, *link.targets):
            kind = id_kind(element_id)
            if kind not in kinds or element_id in index:
                continue
            index[element_id] = _resolve(element_id, kind, kinds[kind])
    return index


def _resolve(element_id: str, kind: str, model) -> object:
    segments = id_segments(element_id)
    try:
        if kind == "rel":
            return _resolve_rel(segments, model)
        if kind == "us":
            return _resolve_us(segments, model)
        return _resolve_doc(segments, model)
    except Exception as exc:
        raise TraceError(f"trace id {element_id!r} does not resolve: {exc}") from exc


def _resolve_rel(segments: list[str], schema):
    head = segments[0]
    if head == schema.name and len(segments) == 1:
        return schema
    table = schema.table(head)
    if len(segments) == 1:
        return table
    name = segments[1]
    if len(segments) != 2:
        raise TraceError("relational paths have at most two segments")
    if table.has_column(name):
        return table.column(name)
    for key in table.keys:
        if key.constraint_name == name:
            return key
    for fk in table.fkeys:
        if fk.constraint_name == name:
            return fk
    raise TraceError(f"no column or constraint {name!r} in table {table.name!r}")


def _resolve_us(segments: list[str], model):
    from unimig.uschema.model import Attribute

    head = segments[0]
    if head == model.name and len(segments) == 1:
        return model
    schema_type = model.schema_type(head)
    if len(segments) == 1:
        return schema_type
    feature = schema_type.feature(segments[1])
    if len(segments) == 2:
        return feature
    if len(segments) == 3 and segments[2] == "type" and isinstance(feature, Attribute):
        return feature.type
    raise TraceError(f"cannot descend into feature {segments[1]!r}")


def _resolve_doc(segments: list[str], schema):
    from unimig.document.model import Embedded

    head = segments[0]
    if head == schema.name and len(segments) == 1:
        return schema
    node = schema.document(head)
    current: object = node
    properties = node.properties
    for name in segments[1:]:
        prop = next((p for p in properties if p.name == name), None)
        if prop is None:
            raise TraceError(f"no property {name!r} under {current!r}")
        current = prop
        properties = prop.aggregates if isinstance(prop, Embedded) else []
    return current
