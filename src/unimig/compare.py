"""Round-trip orchestration, structural schema matching, and preservation
metrics.

Tables of the original and reconstructed schemas are paired by an exact
maximum-weight assignment: the Hungarian method (Kuhn 1955) in the
shortest-augmenting-path form of Crouse (IEEE TAES 2016). The weight of a
candidate pair is the Jaccard similarity of their column multisets over
(name, type-class) pairs, plus 1.0 when the table names are equal, so a
name match carries as much weight as a fully identical column set. Pairs
assigned at zero weight are discarded. Within a matched pair, columns
match by name first, then leftovers by type class in declaration order.

Because the matcher is a reconstruction choice, only direction-level claims
(what degrades, what stays perfect) are meaningful for categories other
than entities; entity precision/recall are exact.
"""

from __future__ import annotations

import math

from unimig.document.schema_json import docschema_to_dict
from unimig.errors import ModelError
from unimig.record import field, record
from unimig.relational.model import RelationalSchema, Table
from unimig.trace import TraceStore
from unimig.transforms.doc_to_us import document_to_uschema
from unimig.transforms.rel_to_us import rel_to_uschema
from unimig.transforms.us_to_doc import uschema_to_document
from unimig.transforms.us_to_rel import uschema_to_relational
from unimig.uschema.model import model_to_dict

CATEGORIES = ("Entities", "Attributes", "PrimaryKeys", "ForeignKeys",
              "Constraints", "DataTypes")


@record
class CategoryScore:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return 1.0 if self.tp + self.fp == 0 else self.tp / (self.tp + self.fp)

    @property
    def recall(self) -> float:
        return 1.0 if self.tp + self.fn == 0 else self.tp / (self.tp + self.fn)

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)


@record
class MatchReport:
    scores: dict[str, CategoryScore] = field(
        default_factory=lambda: {c: CategoryScore() for c in CATEGORIES})
    table_pairs: list[tuple[str, str]] = field(default_factory=list)

    def __getitem__(self, category: str) -> CategoryScore:
        return self.scores[category]

    def to_dict(self) -> dict:
        return {
            category: {
                "tp": s.tp, "fp": s.fp, "fn": s.fn,
                "precision": round(s.precision, 4),
                "recall": round(s.recall, 4),
                "f1": round(s.f1, 4),
            }
            for category, s in self.scores.items()
        }

    def to_markdown(self) -> str:
        lines = ["| Element | P | R | F1 |", "|---|---|---|---|"]
        for category, s in self.scores.items():
            lines.append(f"| {category} | {s.precision:.2f} | {s.recall:.2f} "
                         f"| {s.f1:.2f} |")
        return "\n".join(lines) + "\n"


def _column_items(table: Table) -> list[tuple[str, str]]:
    return [(c.name, c.datatype.type_class) for c in table.columns]


def _jaccard(a: list, b: list) -> float:
    from collections import Counter

    ca, cb = Counter(a), Counter(b)
    inter = sum((ca & cb).values())
    union = sum((ca | cb).values())
    return 1.0 if union == 0 else inter / union


def _table_similarity(a: Table, b: Table) -> float:
    bonus = 1.0 if a.name == b.name else 0.0
    return bonus + _jaccard(_column_items(a), _column_items(b))


def max_weight_assignment(weights: list[list[float]]) -> list[tuple[int, int]]:
    """Exact maximum-weight assignment of a rectangular matrix: one
    (row, column) pair for each row or column of the smaller side, sorted
    by row.

    Rows are added one at a time, each along a shortest augmenting path
    over reduced costs kept non-negative by the dual potentials ``u`` and
    ``v``. Columns are scanned from the last to the first and equal costs
    prefer an unassigned column; this fixes which of several optimal
    pairings comes out (a constant matrix gives the identity).
    """
    transpose = bool(weights) and len(weights) > len(weights[0])
    rows = zip(*weights) if transpose else weights
    cost = [[-w for w in row] for row in rows]
    n_cols = len(cost[0]) if cost else 0
    u, v = [0.0] * len(cost), [0.0] * n_cols
    col4row, row4col = [-1] * len(cost), [-1] * n_cols
    for start in range(len(cost)):
        dist, path = [math.inf] * n_cols, [-1] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        cols_seen = []
        i, low, sink = start, 0.0, -1
        while sink < 0:
            best, index = math.inf, -1
            for k, j in enumerate(remaining):
                reduced = low + cost[i][j] - u[i] - v[j]
                if reduced < dist[j]:
                    path[j], dist[j] = i, reduced
                if dist[j] < best or (dist[j] == best and row4col[j] < 0):
                    best, index = dist[j], k
            low, j = best, remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            cols_seen.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
        u[start] += low
        for j in cols_seen:
            if j != sink:
                u[row4col[j]] += low - dist[j]
            v[j] -= low - dist[j]
        j = sink
        while j >= 0:  # flip the path back to its start row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    if transpose:
        return sorted((r, c) for c, r in enumerate(col4row))
    return list(enumerate(col4row))


def _match_tables(original: RelationalSchema,
                  reconstructed: RelationalSchema) -> list[tuple[Table, Table]]:
    weights = [[_table_similarity(a, b) for b in reconstructed.tables]
               for a in original.tables]
    return [(original.tables[i], reconstructed.tables[j])
            for i, j in max_weight_assignment(weights) if weights[i][j] > 0.0]


def _match_columns(a: Table, b: Table) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    b_names = {c.name for c in b.columns}
    matched_a: set[str] = set()
    for col in a.columns:
        if col.name in b_names:
            pairs.append((col.name, col.name))
            matched_a.add(col.name)
    remaining_b = [c for c in b.columns if c.name not in matched_a]
    for col in a.columns:
        if col.name in matched_a:
            continue
        hit = next((c for c in remaining_b
                    if c.datatype.type_class == col.datatype.type_class), None)
        if hit is not None:
            pairs.append((col.name, hit.name))
            remaining_b.remove(hit)
    return pairs


def compare_schemas(original: RelationalSchema,
                    reconstructed: RelationalSchema) -> MatchReport:
    """Score how much of ``original`` survives in ``reconstructed``."""
    report = MatchReport()
    matched = _match_tables(original, reconstructed)
    report.table_pairs = [(a.name, b.name) for a, b in matched]
    table_map = {a.name: b.name for a, b in matched}

    ent = report["Entities"]
    ent.tp = len(matched)
    ent.fn = len(original.tables) - len(matched)
    ent.fp = len(reconstructed.tables) - len(matched)

    attrs = report["Attributes"]
    types = report["DataTypes"]
    cons = report["Constraints"]
    pks = report["PrimaryKeys"]
    fks = report["ForeignKeys"]

    for a, b in matched:
        pairs = _match_columns(a, b)
        col_map = dict(pairs)
        attrs.tp += len(pairs)

        for name_a, name_b in pairs:
            ca, cb = a.column(name_a), b.column(name_b)
            if str(ca.datatype) == str(cb.datatype):
                types.tp += 1
            else:
                types.fn += 1
                types.fp += 1
            if not ca.nullable and not cb.nullable:
                cons.tp += 1
            elif not ca.nullable:
                cons.fn += 1
            elif not cb.nullable:
                cons.fp += 1

        # A lost column takes its type and NOT NULL down with it (and a
        # spurious column brings spurious ones), so unmatched columns feed
        # those categories too; otherwise deleting a mismatched column from
        # the reconstruction would raise recall.
        matched_a_cols = {name for name, _ in pairs}
        matched_b_cols = {name for _, name in pairs}
        for c in a.columns:
            if c.name not in matched_a_cols:
                attrs.fn += 1
                types.fn += 1
                if not c.nullable:
                    cons.fn += 1
        for c in b.columns:
            if c.name not in matched_b_cols:
                attrs.fp += 1
                types.fp += 1
                if not c.nullable:
                    cons.fp += 1

        _score_pk(a, b, col_map, pks)
        _score_unique(a, b, col_map, cons)

    # Whole unmatched tables count every element as lost or spurious.
    matched_a = {a.name for a, _ in matched}
    matched_b = {b.name for _, b in matched}
    for t in original.tables:
        if t.name not in matched_a:
            attrs.fn += len(t.columns)
            types.fn += len(t.columns)
            cons.fn += sum(1 for c in t.columns if not c.nullable)
            cons.fn += sum(1 for k in t.keys if not k.is_pk)
            if t.primary_key() is not None:
                pks.fn += 1
    for t in reconstructed.tables:
        if t.name not in matched_b:
            attrs.fp += len(t.columns)
            types.fp += len(t.columns)
            cons.fp += sum(1 for c in t.columns if not c.nullable)
            cons.fp += sum(1 for k in t.keys if not k.is_pk)
            if t.primary_key() is not None:
                pks.fp += 1

    _score_fks(original, reconstructed, table_map, fks)
    return report


def _score_pk(a: Table, b: Table, col_map: dict[str, str],
              pks: CategoryScore) -> None:
    pk_a, pk_b = a.primary_key(), b.primary_key()
    if pk_a is None and pk_b is None:
        return
    if pk_a is None:
        pks.fp += 1
        return
    if pk_b is None:
        pks.fn += 1
        return
    translated = {col_map.get(c) for c in pk_a.columns}
    if translated == set(pk_b.columns):
        pks.tp += 1
    else:
        pks.fn += 1
        pks.fp += 1


def _score_unique(a: Table, b: Table, col_map: dict[str, str],
                  cons: CategoryScore) -> None:
    uniques_b = [frozenset(k.columns) for k in b.keys if not k.is_pk]
    for key in (k for k in a.keys if not k.is_pk):
        translated = frozenset(col_map.get(c, c) for c in key.columns)
        if translated in uniques_b:
            cons.tp += 1
            uniques_b.remove(translated)
        else:
            cons.fn += 1
    cons.fp += len(uniques_b)


def _score_fks(original: RelationalSchema, reconstructed: RelationalSchema,
               table_map: dict[str, str], fks: CategoryScore) -> None:
    from collections import Counter

    def endpoint_counts(schema: RelationalSchema,
                        rename: dict[str, str] | None) -> Counter:
        counter: Counter = Counter()
        for t in schema.tables:
            for fk in t.fkeys:
                owner = rename.get(t.name, None) if rename is not None else t.name
                target = (rename.get(fk.ref_table, None)
                          if rename is not None else fk.ref_table)
                counter[(owner, target)] += 1
        return counter

    wanted = endpoint_counts(original, table_map)
    got = endpoint_counts(reconstructed, None)
    for pair, n in wanted.items():
        if pair[0] is None or pair[1] is None:
            fks.fn += n
            continue
        hit = min(n, got.get(pair, 0))
        fks.tp += hit
        fks.fn += n - hit
    for pair, n in got.items():
        fks.fp += max(0, n - wanted.get(pair, 0))


# --- element-wise diff -------------------------------------------------------

def diff_models(a, b) -> list[dict]:
    """Structural differences between two same-kind models as a stable,
    machine-readable list of ``added`` / ``removed`` / ``changed`` entries."""
    if type(a) is not type(b):
        raise ModelError(
            f"cannot diff a {type(a).__name__} against a {type(b).__name__}")
    da, db = _canonical(a), _canonical(b)
    out: list[dict] = []
    _diff_value("", da, db, out)
    out.sort(key=lambda e: (e["path"], e["op"]))
    return out


def _canonical(model) -> dict:
    from unimig.document.model import DocumentSchema
    from unimig.relational.model import schema_to_dict
    from unimig.uschema.model import USchemaModel

    if isinstance(model, RelationalSchema):
        return schema_to_dict(model)
    if isinstance(model, USchemaModel):
        return model_to_dict(model)
    if isinstance(model, DocumentSchema):
        return docschema_to_dict(model)
    raise ModelError(f"cannot diff values of type {type(model).__name__}")


def _diff_value(path: str, a, b, out: list[dict]) -> None:
    if type(a) is not type(b):
        out.append({"op": "changed", "path": path or "/", "before": a, "after": b})
        return
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in b:
                out.append({"op": "removed", "path": sub, "before": a[key]})
            elif key not in a:
                out.append({"op": "added", "path": sub, "after": b[key]})
            else:
                _diff_value(sub, a[key], b[key], out)
        return
    if isinstance(a, list):
        if a and b and all(isinstance(x, dict) and "name" in x for x in a + b):
            _diff_named_list(path, a, b, out)
        elif a != b:
            out.append({"op": "changed", "path": path, "before": a, "after": b})
        return
    if a != b:
        out.append({"op": "changed", "path": path, "before": a, "after": b})


def _diff_named_list(path: str, a: list, b: list, out: list[dict]) -> None:
    names_a = [x["name"] for x in a]
    names_b = [x["name"] for x in b]
    by_a = {x["name"]: x for x in a}
    by_b = {x["name"]: x for x in b}
    for name in names_a:
        sub = f"{path}[{name}]"
        if name not in by_b:
            out.append({"op": "removed", "path": sub, "before": by_a[name]})
        else:
            _diff_value(sub, by_a[name], by_b[name], out)
    for name in names_b:
        if name not in by_a:
            out.append({"op": "added", "path": f"{path}[{name}]", "after": by_b[name]})
    shared_a = [n for n in names_a if n in by_b]
    shared_b = [n for n in names_b if n in by_a]
    if shared_a != shared_b:
        out.append({"op": "changed", "path": f"{path}(order)",
                    "before": shared_a, "after": shared_b})


# --- round trip ---------------------------------------------------------------

@record
class RoundTripResult:
    original: RelationalSchema
    pivot: object
    document: object
    pivot_back: object
    reconstructed: RelationalSchema
    traces: dict[str, TraceStore]
    report: MatchReport


def run_roundtrip(schema: RelationalSchema) -> RoundTripResult:
    """Forward to the document model and back, then score preservation."""
    t1 = rel_to_uschema(schema)
    t2 = uschema_to_document(t1.target)
    t3 = document_to_uschema(t2.target)
    t4 = uschema_to_relational(t3.target)
    report = compare_schemas(schema, t4.target)
    return RoundTripResult(
        original=schema,
        pivot=t1.target,
        document=t2.target,
        pivot_back=t3.target,
        reconstructed=t4.target,
        traces={"t1": t1.trace, "t2": t2.trace, "t3": t3.trace, "t4": t4.trace},
        report=report,
    )
