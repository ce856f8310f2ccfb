"""Conversions between the core model and its RDF representation.

Section 5.1: the blackboard's *"basic contents ... are schema graphs and
mapping matrices"*, stored as RDF so that any element can be annotated.
These functions define the canonical triple layout:

* a schema is an ``iw:Schema`` resource with ``iw:hasElement`` links;
* each element is an ``iw:SchemaElement`` with ``iw:name``, ``iw:kind``,
  ``iw:type`` and ``iw:documentation`` annotations;
* structural edges reuse the controlled edge vocabulary
  (``iw:contains-attribute`` etc.);
* a matrix is an ``iw:MappingMatrix`` with row/column resources carrying
  ``iw:variable-name`` / ``iw:code`` / ``iw:is-complete``, and cell
  resources carrying ``iw:confidence-score`` / ``iw:is-user-defined``.

The IRI scheme is deterministic so that graph → RDF → graph round-trips
and deltas are stable across workbench instances.
"""

from __future__ import annotations

import urllib.parse
from typing import Callable, Dict, List, Optional, Tuple

from ..core.correspondence import Correspondence
from ..core.elements import ElementKind, SchemaElement
from ..core.errors import StoreError
from ..core.graph import SchemaGraph
from ..core.matrix import MappingMatrix
from .namespace import IW_NS, Namespace
from .store import TripleStore
from .term import IRI, Literal, literal
from .triple import Triple
from . import vocabulary as V

SCHEMA_BASE = Namespace("http://mitre.org/iw/schema/")
ELEMENT_BASE = Namespace("http://mitre.org/iw/element/")
MATRIX_BASE = Namespace("http://mitre.org/iw/matrix/")


def _quote(name: str) -> str:
    return urllib.parse.quote(name, safe="")


def schema_iri(schema_name: str) -> IRI:
    return SCHEMA_BASE.term(_quote(schema_name))


def element_iri(schema_name: str, element_id: str) -> IRI:
    return ELEMENT_BASE.term(f"{_quote(schema_name)}/{_quote(element_id)}")


def matrix_iri(matrix_name: str) -> IRI:
    return MATRIX_BASE.term(_quote(matrix_name))


def row_iri(matrix_name: str, element_id: str) -> IRI:
    return MATRIX_BASE.term(f"{_quote(matrix_name)}/row/{_quote(element_id)}")


def column_iri(matrix_name: str, element_id: str) -> IRI:
    return MATRIX_BASE.term(f"{_quote(matrix_name)}/col/{_quote(element_id)}")


def cell_iri(matrix_name: str, source_id: str, target_id: str) -> IRI:
    return MATRIX_BASE.term(
        f"{_quote(matrix_name)}/cell/{_quote(source_id)}/{_quote(target_id)}"
    )


# -- schema graph -> RDF ------------------------------------------------------

def schema_to_rdf(graph: SchemaGraph, store: TripleStore) -> IRI:
    """Write a schema graph into the store; returns the schema's IRI.

    The whole graph lands via one :meth:`TripleStore.add_many` bulk
    mutation, so transaction logs and other batch listeners pay one
    callback per schema load instead of one per triple.
    """
    s_iri = schema_iri(graph.name)
    triples: List[Triple] = [
        Triple(s_iri, V.RDF_TYPE, V.SCHEMA_CLASS),
        Triple(s_iri, V.NAME, literal(graph.name)),
    ]
    element_iris: Dict[str, IRI] = {}
    for element in graph:
        e_iri = element_iri(graph.name, element.element_id)
        element_iris[element.element_id] = e_iri
        triples.append(Triple(s_iri, V.HAS_ELEMENT, e_iri))
        triples.append(Triple(e_iri, V.RDF_TYPE, V.ELEMENT_CLASS))
        triples.append(Triple(e_iri, V.NAME, literal(element.name)))
        triples.append(Triple(e_iri, V.KIND, literal(element.kind.value)))
        if element.datatype:
            triples.append(Triple(e_iri, V.TYPE, literal(element.datatype)))
        if element.documentation:
            triples.append(Triple(e_iri, V.DOCUMENTATION, literal(element.documentation)))
        for key, value in element.annotations.items():
            if isinstance(value, (str, int, float, bool)):
                triples.append(
                    Triple(e_iri, IW_NS.term(f"annotation-{_quote(key)}"), literal(value))
                )
    triples.append(Triple(s_iri, V.HAS_ROOT, element_iris[graph.root.element_id]))
    for edge in graph.edges:
        predicate = V.EDGE_LABEL_TO_IRI.get(edge.label, IW_NS.term(_quote(edge.label)))
        triples.append(Triple(element_iris[edge.subject], predicate, element_iris[edge.object]))
    store.add_many(triples)
    return s_iri


def _schema_slices(
    graph: SchemaGraph,
) -> "Tuple[Dict[object, Dict[IRI, List[object]]], int]":
    """The canonical schema layout as ``{subject: {predicate: [objects]}}``.

    The schema-side mirror of :func:`_matrix_slices`: the single source
    of truth for the schema→RDF shape that both :func:`schema_triples`
    (which flattens it) and the delta branch of :func:`serialize_schema`
    (which diffs it against the store's index slices without
    materializing a :class:`Triple` per statement) build on.  Returns
    the nested slices plus the total statement count.
    """
    s_iri = schema_iri(graph.name)
    qname = _quote(graph.name)
    term = ELEMENT_BASE.term
    slices: Dict[object, Dict[IRI, List[object]]] = {}
    total = 0

    m_slice: Dict[IRI, List[object]] = slices.setdefault(s_iri, {})
    m_slice[V.RDF_TYPE] = [V.SCHEMA_CLASS]
    m_slice[V.NAME] = [literal(graph.name)]
    has_elements = m_slice.setdefault(V.HAS_ELEMENT, [])
    total += 2
    element_iris: Dict[str, IRI] = {}
    for element in graph:
        e_iri = term(f"{qname}/{_quote(element.element_id)}")
        element_iris[element.element_id] = e_iri
        has_elements.append(e_iri)
        e_slice: Dict[IRI, List[object]] = {
            V.RDF_TYPE: [V.ELEMENT_CLASS],
            V.NAME: [literal(element.name)],
            V.KIND: [literal(element.kind.value)],
        }
        total += 4
        if element.datatype:
            e_slice[V.TYPE] = [literal(element.datatype)]
            total += 1
        if element.documentation:
            e_slice[V.DOCUMENTATION] = [literal(element.documentation)]
            total += 1
        for key, value in element.annotations.items():
            if isinstance(value, (str, int, float, bool)):
                e_slice[IW_NS.term(f"annotation-{_quote(key)}")] = [literal(value)]
                total += 1
        slices[e_iri] = e_slice
    m_slice[V.HAS_ROOT] = [element_iris[graph.root.element_id]]
    total += 1
    for edge in graph.edges:
        predicate = V.EDGE_LABEL_TO_IRI.get(edge.label, IW_NS.term(_quote(edge.label)))
        e_slice = slices[element_iris[edge.subject]]
        objs = e_slice.get(predicate)
        if objs is None:
            objs = e_slice[predicate] = []
        objs.append(element_iris[edge.object])
        total += 1
    if not has_elements:
        del m_slice[V.HAS_ELEMENT]
    return slices, total


def schema_triples(graph: SchemaGraph) -> List[Triple]:
    """The canonical triple layout of a schema, as one list.

    Flattens :func:`_schema_slices`, so it is content-identical (as a
    set) to what :func:`schema_to_rdf` writes and to what the delta
    serializer diffs.
    """
    slices, _total = _schema_slices(graph)
    triples: List[Triple] = []
    append = triples.append
    for subject, by_pred in slices.items():
        for predicate, objs in by_pred.items():
            for obj in objs:
                append(Triple(subject, predicate, obj))
    return triples


def remove_schema(store: TripleStore, schema_name: str) -> int:
    """Remove a schema and all its element triples.

    Also strips triples *pointing at* the schema or its elements
    (matrix row/column links, third-party annotations), so nothing
    dangles.  Returns the number of triples removed; zero if no such
    schema is stored.
    """
    s_iri = schema_iri(schema_name)
    element_iris = [
        obj for obj in store.objects(s_iri, V.HAS_ELEMENT)
        if isinstance(obj, IRI)
    ]
    removed = store.remove_matching(subject=s_iri)
    for e_iri in element_iris:
        removed += store.remove_matching(subject=e_iri)
        removed += store.remove_matching(obj=e_iri)
    removed += store.remove_matching(obj=s_iri)
    return removed


def _dirty_schema_elements(previous: SchemaGraph, graph: SchemaGraph) -> set:
    """Element ids whose RDF subject slices may differ between versions.

    A lightweight mirror of the harmony engine's ``graph_delta`` kept
    local so :mod:`repro.rdf` never imports :mod:`repro.harmony`:
    added/removed ids, attribute-level changes (name, kind, datatype,
    documentation, annotations), and the *subjects* of added or removed
    edges (edge triples live in the subject element's slice).
    """
    old_ids = set(previous.element_ids)
    new_ids = set(graph.element_ids)
    dirty = old_ids ^ new_ids
    for element_id in old_ids & new_ids:
        old = previous.element(element_id)
        new = graph.element(element_id)
        if (
            old.name != new.name
            or old.kind != new.kind
            or old.datatype != new.datatype
            or old.documentation != new.documentation
            or old.annotations != new.annotations
        ):
            dirty.add(element_id)
    old_edges = {(e.subject, e.label, e.object) for e in previous.edges}
    new_edges = {(e.subject, e.label, e.object) for e in graph.edges}
    for subject, _label, _obj in old_edges ^ new_edges:
        dirty.add(subject)
    return dirty


def serialize_schema(
    graph: SchemaGraph,
    store: TripleStore,
    delta: bool = False,
    previous: Optional[SchemaGraph] = None,
) -> IRI:
    """Schema serialization with an O(delta) re-serialization path.

    Both modes are idempotent and produce the same stored schema state
    as :func:`schema_to_rdf`:

    * **bulk** (``delta=False``) — remove any stored schema of the same
      name, then land the precomputed triple list in one ``add_many``;
    * **delta** (``delta=True``) — diff the desired layout against the
      stored subject slices and only remove the stale / add the fresh
      statements.  When *previous* (the graph version currently in the
      store) is given, the diff is restricted to the elements that
      actually changed between the versions — the evolve→serialize hot
      path touches O(delta) subjects instead of every element.  Unlike
      the bulk mode, *inbound* triples pointing at surviving elements
      (matrix links, third-party annotations) are preserved.

    *previous* must faithfully describe the stored version: a stale
    *previous* can leave superseded triples behind (callers like
    ``evolve_and_rematch`` pass the version they just read).
    """
    stats = _SERIALIZATION_STATS
    s_iri = schema_iri(graph.name)
    if not delta:
        removed = 0
        if V.SCHEMA_CLASS in store.objects(s_iri, V.RDF_TYPE):
            removed = remove_schema(store, graph.name)
        desired = schema_triples(graph)
        store.add_many(desired)
        stats["schema_bulk_serializations"] += 1
        stats["schema_triples_written"] += len(desired)
        stats["schema_triples_removed"] += removed
        return s_iri

    desired_slices, total = _schema_slices(graph)
    exists = V.SCHEMA_CLASS in store.objects(s_iri, V.RDF_TYPE)
    if previous is not None and previous.name != graph.name:
        previous = None
    subject_slice = store.subject_slice
    dropped_iris: List[IRI]
    if previous is not None and exists:
        dirty = _dirty_schema_elements(previous, graph)
        subjects = {s_iri}
        subjects.update(element_iri(graph.name, eid) for eid in dirty)
        dropped_iris = [
            element_iri(graph.name, eid)
            for eid in previous.element_ids
            if eid not in graph
        ]
    else:
        subjects = set(desired_slices)
        stored_elements = [
            obj for obj in store.objects(s_iri, V.HAS_ELEMENT)
            if isinstance(obj, IRI)
        ]
        subjects.update(stored_elements)
        dropped_iris = [e for e in stored_elements if e not in desired_slices]

    fresh: List[Triple] = []
    stale: List[Triple] = []
    fresh_append = fresh.append
    stale_append = stale.append
    reconcile = [s for s in desired_slices if s in subjects]
    reconcile.extend(s for s in subjects if s not in desired_slices)
    for subject in reconcile:
        desired_slice = desired_slices.get(subject)
        stored = subject_slice(subject)
        if desired_slice:
            for predicate, objs in desired_slice.items():
                have = stored.get(predicate) if stored else None
                if have is None:
                    for obj in objs:
                        fresh_append(Triple(subject, predicate, obj))
                else:
                    for obj in objs:
                        if obj not in have:
                            fresh_append(Triple(subject, predicate, obj))
        if stored:
            for predicate, objs in stored.items():
                want = desired_slice.get(predicate) if desired_slice else None
                gone = objs - set(want) if want else objs
                for obj in gone:
                    stale_append(Triple(subject, predicate, obj))
    stale.sort(key=Triple.sort_key)
    store.remove_many(stale)
    inbound_removed = 0
    for e_iri in dropped_iris:
        inbound_removed += store.remove_matching(obj=e_iri)
    store.add_many(fresh)
    stats["schema_delta_serializations"] += 1
    stats["schema_triples_written"] += len(fresh)
    stats["schema_triples_removed"] += len(stale) + inbound_removed
    stats["schema_triples_unchanged"] += total - len(fresh)
    return s_iri


class SchemaView:
    """The typed projection of one stored schema.

    What :func:`rdf_to_schema` reads from the store, before it becomes a
    :class:`SchemaGraph`: the elements as ``(element_id, name, kind,
    datatype, documentation, annotation items)`` in element-id order,
    the edges as ``(subject_id, label, object_id)`` in the order they are
    added, and the subjects the read consulted (the schema IRI and its
    element IRIs).  :func:`schema_from_view` builds the graph from it, so
    a graph built from a kept view equals a fresh read of the same store.
    ``canonical`` says every element IRI is the one :func:`element_iri`
    gives, so no two schemas' views share a subject.
    """

    __slots__ = ("name", "elements", "edges", "subjects", "canonical")

    def __init__(self, name: str, elements: tuple, edges: tuple,
                 subjects: tuple, canonical: bool) -> None:
        self.name = name
        self.elements = elements
        self.edges = edges
        self.subjects = subjects
        self.canonical = canonical


def _one(by_pred: Dict, subject: object, predicate: IRI) -> Optional[object]:
    """The single object of a functional property in a subject slice.

    :meth:`TripleStore.object` over a slice already in hand: None when
    absent, :class:`StoreError` when the property has several values.
    """
    values = by_pred.get(predicate)
    if not values:
        return None
    if len(values) > 1:
        raise StoreError(
            f"{subject} {predicate} has {len(values)} values, expected one")
    for value in values:
        return value
    return None


_ANNOTATION_PREFIX = IW_NS.base + "annotation-"


def _read_schema(store: TripleStore, schema_name: str) -> SchemaView:
    """Read one stored schema into a :class:`SchemaView`.

    Elements come in element-id order and each element's edges in
    (label, target id) order, so the same stored triples read the same
    way in every process, whatever the hash seed.
    """
    s_iri = schema_iri(schema_name)
    slice_of = store.subject_slice
    s_slice = slice_of(s_iri)
    if V.SCHEMA_CLASS not in (s_slice.get(V.RDF_TYPE) or ()):
        raise StoreError(f"no schema named {schema_name!r} in the store")
    element_prefix = f"{ELEMENT_BASE.base}{_quote(schema_name)}/"
    canonical = True
    read = []
    for obj in s_slice.get(V.HAS_ELEMENT) or ():
        assert isinstance(obj, IRI)
        by_pred = slice_of(obj)
        name_lit = _one(by_pred, obj, V.NAME)
        kind_lit = _one(by_pred, obj, V.KIND)
        type_lit = _one(by_pred, obj, V.TYPE)
        doc_lit = _one(by_pred, obj, V.DOCUMENTATION)
        local = obj.value.rsplit("/", 1)[-1]
        element_id = urllib.parse.unquote(local)
        if canonical and (obj.value != element_prefix + local
                          or _quote(element_id) != local):
            canonical = False
        annotations = []
        for predicate, values in by_pred.items():
            if values and predicate.value.startswith(_ANNOTATION_PREFIX):
                lit = min(values, key=str) if len(values) > 1 else next(iter(values))
                if isinstance(lit, Literal):
                    key = urllib.parse.unquote(
                        predicate.value[len(_ANNOTATION_PREFIX):])
                    annotations.append((predicate.value, key, lit.to_python()))
        annotations.sort()
        read.append((element_id, obj, by_pred, (
            element_id,
            name_lit.to_python() if isinstance(name_lit, Literal) else element_id,
            ElementKind(kind_lit.to_python()) if isinstance(kind_lit, Literal) else ElementKind.ELEMENT,
            type_lit.to_python() if isinstance(type_lit, Literal) else None,
            doc_lit.to_python() if isinstance(doc_lit, Literal) else "",
            tuple((key, value) for _pred, key, value in annotations),
        )))
    read.sort(key=lambda entry: (entry[0], entry[1].value))
    iri_to_id = {e_iri: element_id for element_id, e_iri, _s, _e in read}
    edges = []
    for element_id, _e_iri, by_pred, _element in read:
        out = []
        for predicate, values in by_pred.items():
            label = V.IRI_TO_EDGE_LABEL.get(predicate)
            if label is None:
                continue
            for value in values:
                target = iri_to_id.get(value) if isinstance(value, IRI) else None
                if target is not None:
                    out.append((label, target))
        out.sort()
        edges.extend((element_id, label, target) for label, target in out)
    return SchemaView(
        schema_name,
        tuple(entry[3] for entry in read),
        tuple(edges),
        (s_iri,) + tuple(entry[1] for entry in read),
        canonical,
    )


def schema_from_view(view: SchemaView) -> SchemaGraph:
    """Build a fresh :class:`SchemaGraph` from a :class:`SchemaView`."""
    graph = SchemaGraph(view.name)
    add_element = graph.add_element
    for element_id, name, kind, datatype, documentation, annotations in view.elements:
        add_element(SchemaElement(
            element_id=element_id,
            name=name,
            kind=kind,
            datatype=datatype,
            documentation=documentation,
            annotations=dict(annotations),
        ))
    add_edge = graph.add_edge
    for subject, label, obj in view.edges:
        add_edge(subject, label, obj)
    return graph


def rdf_to_schema(
    store: TripleStore,
    schema_name: str,
    views: Optional[Dict[str, SchemaView]] = None,
) -> SchemaGraph:
    """Reconstruct a schema graph from its triples.

    The graph iterates its elements in element-id order and each
    element's out-edges in (label, target id) order, so a given store
    always reads back the same way.  When *views* is given and every
    element IRI is canonical, the :class:`SchemaView` the graph was
    built from is stored in it under *schema_name*.
    """
    view = _read_schema(store, schema_name)
    graph = schema_from_view(view)
    if views is not None and view.canonical:
        views[schema_name] = view
    return graph


def schemas_in_store(store: TripleStore) -> List[str]:
    """Names of all schemas present in the store."""
    names = []
    for subject in store.subjects(V.RDF_TYPE, V.SCHEMA_CLASS):
        lit = store.object(subject, V.NAME)
        if isinstance(lit, Literal):
            names.append(lit.lexical)
    return sorted(names)


# -- mapping matrix -> RDF --------------------------------------------------------

#: process-wide bulk/delta matrix-serialization counters; surfaced via
#: :meth:`HarmonyEngine.fastpath_stats` and asserted in perf_smoke.py
_SERIALIZATION_STATS = {
    "matrix_bulk_serializations": 0,
    "matrix_delta_serializations": 0,
    "matrix_triples_written": 0,
    "matrix_triples_removed": 0,
    "matrix_triples_unchanged": 0,
    "schema_bulk_serializations": 0,
    "schema_delta_serializations": 0,
    "schema_triples_written": 0,
    "schema_triples_removed": 0,
    "schema_triples_unchanged": 0,
}


def serialization_stats() -> Dict[str, int]:
    """A snapshot of the matrix/schema-serialization counters."""
    return dict(_SERIALIZATION_STATS)


def reset_serialization_stats() -> None:
    for key in _SERIALIZATION_STATS:
        _SERIALIZATION_STATS[key] = 0


def _matrix_slices(
    matrix: MappingMatrix,
) -> "Tuple[Dict[object, Dict[IRI, List[object]]], int]":
    """The canonical matrix layout as ``{subject: {predicate: [objects]}}``.

    This is the single source of truth for the matrix→RDF shape.  Both
    :func:`matrix_triples` (which flattens it) and the delta branch of
    :func:`serialize_matrix` (which diffs it against the store's index
    slices without materializing a :class:`Triple` per statement) build
    on it, so bulk and delta serialization can never drift apart.

    The matrix name is quoted once and every row/column identifier is
    interned in a dict, so the cell loop — the bulk of a big matrix —
    reuses the quoted ids instead of re-quoting three per cell.  Returns
    the nested slices plus the total statement count.
    """
    qname = _quote(matrix.name)
    m_iri = matrix_iri(matrix.name)
    slices: Dict[object, Dict[IRI, List[object]]] = {}
    total = 0

    def _slot(subject: object, predicate: IRI) -> List[object]:
        by_pred = slices.get(subject)
        if by_pred is None:
            by_pred = slices[subject] = {}
        objs = by_pred.get(predicate)
        if objs is None:
            objs = by_pred[predicate] = []
        return objs

    m_slice: Dict[IRI, List[object]] = slices.setdefault(m_iri, {})
    m_slice[V.RDF_TYPE] = [V.MATRIX_CLASS]
    m_slice[V.NAME] = [literal(matrix.name)]
    total += 2
    if matrix.code:
        m_slice[V.CODE] = [literal(matrix.code)]
        total += 1
    quoted_ids: Dict[str, str] = {}

    def _qid(element_id: str) -> str:
        quoted = quoted_ids.get(element_id)
        if quoted is None:
            quoted = quoted_ids[element_id] = _quote(element_id)
        return quoted

    term = MATRIX_BASE.term
    row_iris: Dict[str, IRI] = {}
    col_iris: Dict[str, IRI] = {}
    has_rows = m_slice.setdefault(V.HAS_ROW, [])
    for element_id in matrix.row_ids:
        header = matrix.row(element_id)
        r_iri = term(f"{qname}/row/{_qid(element_id)}")
        row_iris[element_id] = r_iri
        has_rows.append(r_iri)
        r_slice: Dict[IRI, List[object]] = {
            V.RDF_TYPE: [V.ROW_CLASS],
            V.ROW_ELEMENT: [element_iri(header.schema_name, element_id)],
            V.NAME: [literal(element_id)],
            V.IS_COMPLETE: [literal(header.is_complete)],
        }
        total += 5
        if header.variable_name:
            r_slice[V.VARIABLE_NAME] = [literal(header.variable_name)]
            total += 1
        slices[r_iri] = r_slice
    has_columns = m_slice.setdefault(V.HAS_COLUMN, [])
    for element_id in matrix.column_ids:
        header = matrix.column(element_id)
        c_iri = term(f"{qname}/col/{_qid(element_id)}")
        col_iris[element_id] = c_iri
        has_columns.append(c_iri)
        c_slice: Dict[IRI, List[object]] = {
            V.RDF_TYPE: [V.COLUMN_CLASS],
            V.COLUMN_ELEMENT: [element_iri(header.schema_name, element_id)],
            V.NAME: [literal(element_id)],
            V.IS_COMPLETE: [literal(header.is_complete)],
        }
        total += 5
        if header.code:
            c_slice[V.CODE] = [literal(header.code)]
            total += 1
        slices[c_iri] = c_slice
    has_cells = m_slice.setdefault(V.HAS_CELL, [])
    rdf_type, cell_class = V.RDF_TYPE, V.CELL_CLASS
    cell_row, cell_column = V.CELL_ROW, V.CELL_COLUMN
    confidence_score, is_user_defined = V.CONFIDENCE_SCORE, V.IS_USER_DEFINED
    for cell in matrix.cells():
        source_id, target_id = cell.source_id, cell.target_id
        c_iri = term(f"{qname}/cell/{_qid(source_id)}/{_qid(target_id)}")
        r_iri = row_iris.get(source_id)
        if r_iri is None:
            r_iri = term(f"{qname}/row/{_qid(source_id)}")
        col_iri_ = col_iris.get(target_id)
        if col_iri_ is None:
            col_iri_ = term(f"{qname}/col/{_qid(target_id)}")
        has_cells.append(c_iri)
        slices[c_iri] = {
            rdf_type: [cell_class],
            cell_row: [r_iri],
            cell_column: [col_iri_],
            confidence_score: [literal(float(cell.confidence))],
            is_user_defined: [literal(cell.is_user_defined)],
        }
        total += 6
    for predicate in (V.HAS_ROW, V.HAS_COLUMN, V.HAS_CELL):
        if not m_slice[predicate]:
            del m_slice[predicate]
    return slices, total


def matrix_triples(matrix: MappingMatrix) -> List[Triple]:
    """The canonical triple layout of a matrix, as one list.

    Flattens :func:`_matrix_slices`, so it is byte-identical in content
    to what the delta serializer diffs.  Shared by :func:`matrix_to_rdf`
    and :func:`serialize_matrix`.
    """
    slices, total = _matrix_slices(matrix)
    triples: List[Triple] = []
    append = triples.append
    for subject, by_pred in slices.items():
        for predicate, objs in by_pred.items():
            for obj in objs:
                append(Triple(subject, predicate, obj))
    return triples


def _matrix_part_iris(store: TripleStore, m_iri: IRI) -> List[IRI]:
    """The row/column/cell resources a stored matrix links to."""
    parts: List[IRI] = []
    for predicate in (V.HAS_ROW, V.HAS_COLUMN, V.HAS_CELL):
        parts.extend(
            obj for obj in store.objects(m_iri, predicate)
            if isinstance(obj, IRI)
        )
    return parts


def remove_matrix(store: TripleStore, matrix_name: str) -> int:
    """Remove a matrix and all its row/column/cell triples.

    Also strips triples *pointing at* the parts (annotations on cells),
    so nothing dangles.  Returns the number of triples removed; zero if
    no such matrix is stored.
    """
    m_iri = matrix_iri(matrix_name)
    parts = _matrix_part_iris(store, m_iri)
    removed = store.remove_matching(subject=m_iri)
    for part in parts:
        removed += store.remove_matching(subject=part)
        removed += store.remove_matching(obj=part)
    return removed


def matrix_to_rdf(matrix: MappingMatrix, store: TripleStore) -> IRI:
    """Write a mapping matrix into the store; returns the matrix IRI.

    Idempotent: a previously stored matrix of the same name is removed
    first (:func:`remove_matrix`), so re-serializing after a rematch can
    never leave superseded cell triples behind.
    """
    m_iri = matrix_iri(matrix.name)
    if V.MATRIX_CLASS in store.objects(m_iri, V.RDF_TYPE):
        remove_matrix(store, matrix.name)
    store.add_many(matrix_triples(matrix))
    return m_iri


#: the matrix subject's links to its parts
_LINKS = (V.HAS_ROW, V.HAS_COLUMN, V.HAS_CELL)


class MatrixView:
    """The typed projection of one stored mapping matrix.

    What :func:`rdf_to_matrix` reads from the store, before it becomes a
    :class:`MappingMatrix`:

    * ``code`` — the matrix-level code;
    * ``rows`` / ``columns`` — ``element_id -> (element_id, schema_name,
      is_complete, variable_name or code)`` in element-id order;
    * ``cells`` — ``(source_id, target_id) -> (source_id, target_id,
      confidence, is_user_defined)`` in pair order;
    * ``row_iris`` / ``column_iris`` / ``cell_iris`` — each part's IRI.

    :func:`matrix_from_view` builds the matrix from it, so a matrix
    built from a kept view equals a fresh read of the same store.

    The view also carries what the delta write of :func:`serialize_matrix`
    needs to touch only the parts that changed:

    * ``dirty`` — parts whose stored statements are not exactly the
      canonical layout of their entry (a provenance entry on a cell, a
      missing or extra statement); a delta write reconciles them in full;
    * ``orphans`` — ``(predicate, object)`` links of the matrix subject
      that match no entry;
    * ``problem`` — None when a fresh read of the store returns exactly
      this projection, else why it would not (a read rejects the stored
      matrix, or a write left statements the projection does not show).
    """

    __slots__ = ("name", "code", "rows", "columns", "cells", "row_iris",
                 "column_iris", "cell_iris", "dirty", "orphans", "problem")

    def __init__(self, name: str) -> None:
        self.name = name
        self.code = ""
        self.rows: Dict[str, tuple] = {}
        self.columns: Dict[str, tuple] = {}
        self.cells: Dict[Tuple[str, str], tuple] = {}
        self.row_iris: Dict[str, IRI] = {}
        self.column_iris: Dict[str, IRI] = {}
        self.cell_iris: Dict[Tuple[str, str], IRI] = {}
        self.dirty: set = set()
        self.orphans: set = set()
        self.problem: Optional[str] = None

    def subjects(self) -> List[IRI]:
        """Every subject the view describes: the matrix and its parts."""
        subjects = [matrix_iri(self.name)]
        subjects.extend(self.row_iris.values())
        subjects.extend(self.column_iris.values())
        subjects.extend(self.cell_iris.values())
        return subjects

    def note_cell(self, store: TripleStore, c_iri: IRI, cell: Correspondence) -> bool:
        """Patch the view for a :func:`write_cell` of *cell* just made.

        Returns False when a fresh read would fail on the cell (its row
        or column is not in the matrix), so the view must be dropped.
        """
        source_id, target_id = cell.source_id, cell.target_id
        if source_id not in self.rows or target_id not in self.columns:
            return False
        pair = (source_id, target_id)
        added = pair not in self.cells
        self.cells[pair] = (source_id, target_id, float(cell.confidence),
                            cell.is_user_defined)
        if added:
            self.cell_iris[pair] = c_iri
            _resort(self.cells)
        if store.count_matching(subject=c_iri) == 5:
            self.dirty.discard(c_iri)
        else:
            self.dirty.add(c_iri)
        return True


def _quoter() -> Callable[[str], str]:
    """:func:`_quote` memoized for one pass: ids repeat across cells."""
    quoted: Dict[str, str] = {}

    def qid(element_id: str) -> str:
        q = quoted.get(element_id)
        if q is None:
            q = quoted[element_id] = _quote(element_id)
        return q

    return qid


def _schema_of(element_ref: Optional[object]) -> str:
    if isinstance(element_ref, IRI) and element_ref in ELEMENT_BASE:
        path = ELEMENT_BASE.local_name(element_ref)
        return urllib.parse.unquote(path.split("/", 1)[0])
    return ""


def _axis_slice(entry: tuple, cls: IRI, element_pred: IRI, extra_pred: IRI) -> Dict[IRI, tuple]:
    """The canonical statements of a row or column (see :func:`_matrix_slices`)."""
    element_id, schema_name, complete, extra = entry
    want = {
        V.RDF_TYPE: (cls,),
        element_pred: (element_iri(schema_name, element_id),),
        V.NAME: (literal(element_id),),
        V.IS_COMPLETE: (literal(complete),),
    }
    if extra:
        want[extra_pred] = (literal(extra),)
    return want


def _cell_slice(entry: tuple, r_iri: IRI, col_iri: IRI) -> Dict[IRI, tuple]:
    """The canonical statements of a cell (see :func:`_matrix_slices`)."""
    return {
        V.RDF_TYPE: (V.CELL_CLASS,),
        V.CELL_ROW: (r_iri,),
        V.CELL_COLUMN: (col_iri,),
        V.CONFIDENCE_SCORE: (literal(entry[2]),),
        V.IS_USER_DEFINED: (literal(entry[3]),),
    }


def _read_axis(store: TripleStore, iri: IRI, cls: IRI, element_pred: IRI,
               extra_pred: IRI) -> Tuple[tuple, bool]:
    """One row or column: its entry, and whether it is stored canonically."""
    by_pred = store.subject_slice(iri)
    name = _one(by_pred, iri, V.NAME)
    element_id = name.lexical if isinstance(name, Literal) else ""
    ref = _one(by_pred, iri, element_pred)
    schema_name = _schema_of(ref)
    complete_lit = _one(by_pred, iri, V.IS_COMPLETE)
    complete = bool(complete_lit.to_python()) if isinstance(complete_lit, Literal) else False
    extra_lit = _one(by_pred, iri, extra_pred)
    extra = extra_lit.lexical if isinstance(extra_lit, Literal) else ""
    entry = (element_id, schema_name, complete, extra)
    clean = (
        store.count_matching(subject=iri) == (5 if extra else 4)
        and cls in (by_pred.get(V.RDF_TYPE) or ())
        and ref == element_iri(schema_name, element_id)
        and name == literal(element_id)
        and complete_lit == literal(complete)
        and (not extra or extra_lit == literal(extra))
    )
    return entry, clean


def read_matrix_view(store: TripleStore, matrix_name: str) -> MatrixView:
    """Read one stored matrix into a :class:`MatrixView`; never fails.

    Anything a read must reject — a missing matrix, a link that is not
    the canonical IRI of its part, a multi-valued or unparsable
    property — is recorded as the view's ``problem`` (which
    :func:`rdf_to_matrix` raises) and becomes an orphan link or a dirty
    part, which a delta write over this view reconciles in full.
    """
    m_iri = matrix_iri(matrix_name)
    m_slice = store.subject_slice(m_iri)
    view = MatrixView(matrix_name)

    def reject(problem: str) -> None:
        if view.problem is None:
            view.problem = problem

    if V.MATRIX_CLASS not in (m_slice.get(V.RDF_TYPE) or ()):
        reject(f"no mapping matrix named {matrix_name!r} in the store")
        view.orphans = {(p, o) for p in _LINKS for o in m_slice.get(p) or ()}
        return view
    try:
        code = _one(m_slice, m_iri, V.CODE)
    except StoreError as exc:
        reject(str(exc))
        code = None
    if isinstance(code, Literal):
        view.code = code.lexical
    qname = _quote(matrix_name)
    term = MATRIX_BASE.term
    qid = _quoter()

    def orphan(predicate: IRI, obj: object, problem: str) -> None:
        reject(f"{obj} {problem}")
        view.orphans.add((predicate, obj))

    for link, axis, iris, kind, cls, element_pred, extra_pred in (
        (V.HAS_ROW, view.rows, view.row_iris, "row", V.ROW_CLASS,
         V.ROW_ELEMENT, V.VARIABLE_NAME),
        (V.HAS_COLUMN, view.columns, view.column_iris, "col", V.COLUMN_CLASS,
         V.COLUMN_ELEMENT, V.CODE),
    ):
        for iri in m_slice.get(link) or ():
            if not isinstance(iri, IRI):
                orphan(link, iri, f"is not a {kind} IRI")
                continue
            try:
                entry, clean = _read_axis(store, iri, cls, element_pred, extra_pred)
            except StoreError as exc:
                orphan(link, iri, f"is unreadable: {exc}")
                continue
            if iri != term(f"{qname}/{kind}/{qid(entry[0])}"):
                orphan(link, iri, f"is not the canonical {kind} IRI of {entry[0]!r}")
                continue
            axis[entry[0]] = entry
            iris[entry[0]] = iri
            if not clean:
                view.dirty.add(iri)
    cell_prefix = f"{MATRIX_BASE.base}{qname}/cell/"
    row_iris, column_iris = view.row_iris, view.column_iris
    for cl in m_slice.get(V.HAS_CELL) or ():
        parts = cl.value[len(MATRIX_BASE.base):].split("/") if isinstance(cl, IRI) else ()
        # <matrix>/cell/<source>/<target>
        if len(parts) != 4 or parts[1] != "cell" or cl not in MATRIX_BASE:
            orphan(V.HAS_CELL, cl, "is a malformed cell IRI")
            continue
        source_id = urllib.parse.unquote(parts[2])
        target_id = urllib.parse.unquote(parts[3])
        if cl.value != f"{cell_prefix}{qid(source_id)}/{qid(target_id)}":
            orphan(V.HAS_CELL, cl, "is not the canonical cell IRI of its pair")
            continue
        by_pred = store.subject_slice(cl)
        try:
            conf = _one(by_pred, cl, V.CONFIDENCE_SCORE)
            user = _one(by_pred, cl, V.IS_USER_DEFINED)
            confidence = float(conf.to_python()) if isinstance(conf, Literal) else 0.0
        except (StoreError, ValueError) as exc:
            reject(f"{cl} is unreadable: {exc}")
            conf = user = None
            confidence = 0.0
        user_defined = bool(user.to_python()) if isinstance(user, Literal) else False
        pair = (source_id, target_id)
        view.cells[pair] = (source_id, target_id, confidence, user_defined)
        view.cell_iris[pair] = cl
        r_iri = row_iris.get(source_id)
        col_iri = column_iris.get(target_id)
        if not (
            store.count_matching(subject=cl) == 5
            and conf == literal(confidence)
            and user == literal(user_defined)
            and V.CELL_CLASS in (by_pred.get(V.RDF_TYPE) or ())
            and (r_iri or term(f"{qname}/row/{qid(source_id)}"))
            in (by_pred.get(V.CELL_ROW) or ())
            and (col_iri or term(f"{qname}/col/{qid(target_id)}"))
            in (by_pred.get(V.CELL_COLUMN) or ())
        ):
            view.dirty.add(cl)
    view.rows = dict(sorted(view.rows.items()))
    view.columns = dict(sorted(view.columns.items()))
    view.cells = dict(sorted(view.cells.items()))
    return view


def matrix_from_view(view: MatrixView) -> MappingMatrix:
    """Build a fresh :class:`MappingMatrix` from a :class:`MatrixView`."""
    matrix = MappingMatrix(view.name)
    matrix.code = view.code
    for element_id, schema_name, complete, variable in view.rows.values():
        header = matrix.add_row(element_id, schema_name=schema_name)
        header.is_complete = complete
        header.variable_name = variable
    for element_id, schema_name, complete, code in view.columns.values():
        header = matrix.add_column(element_id, schema_name=schema_name)
        header.is_complete = complete
        header.code = code
    matrix.load_cells(view.cells.values())
    return matrix


def _resort(entries: dict) -> None:
    """Put a view's entries back in key order, in place."""
    items = sorted(entries.items())
    entries.clear()
    entries.update(items)


def _delta_matrix(
    matrix: MappingMatrix, store: TripleStore, view: MatrixView
) -> Tuple[int, int, int]:
    """Write *matrix* over the stored version *view* describes.

    Compares the matrix with the view entry by entry and reconciles only
    the subjects that may differ: changed, added and removed parts,
    dirty parts, orphan links and the matrix subject's own statements.
    The store ends exactly as a full diff of the canonical layout
    against every stored matrix subject would leave it.  *view* is
    updated in place to describe the written matrix.  Returns
    ``(written, removed, layout size)``.
    """
    name = matrix.name
    m_iri = matrix_iri(name)
    qname = _quote(name)
    term = MATRIX_BASE.term
    slice_of = store.subject_slice
    count_of = store.count_matching
    fresh: List[Triple] = []
    stale: List[Triple] = []
    checks: List[Tuple[IRI, int]] = []
    dirty = view.dirty
    orphans = view.orphans
    orphan_subjects = {obj for _pred, obj in orphans}
    matched: set = set()
    removed: set = set()
    qid = _quoter()

    def reconcile(subject: IRI, want: Dict[IRI, tuple], full: bool = True,
                  skip: tuple = ()) -> None:
        stored = slice_of(subject)
        for predicate, objs in want.items():
            have = stored.get(predicate)
            for obj in objs:
                if not have or obj not in have:
                    fresh.append(Triple(subject, predicate, obj))
        if full:
            for predicate, objs in stored.items():
                if predicate in skip:
                    continue
                keep = want.get(predicate)
                for obj in objs:
                    if not keep or obj not in keep:
                        stale.append(Triple(subject, predicate, obj))

    def drop(subject: object) -> None:
        if subject in removed or not isinstance(subject, IRI):
            return
        removed.add(subject)
        for predicate, objs in slice_of(subject).items():
            for obj in objs:
                stale.append(Triple(subject, predicate, obj))

    def place(link: IRI, subject: IRI, want: Dict[IRI, tuple]) -> None:
        """A part the view does not hold: link it and write its layout."""
        if (link, subject) in orphans:
            matched.add((link, subject))
            reconcile(subject, want)
            return
        fresh.append(Triple(m_iri, link, subject))
        if subject in orphan_subjects:
            reconcile(subject, want)
        elif count_of(subject=subject):
            reconcile(subject, want, full=False)
            checks.append((subject, len(want)))
        else:
            for predicate, objs in want.items():
                fresh.append(Triple(subject, predicate, objs[0]))

    # the matrix subject in full, except its links, diffed part by part below
    m_want: Dict[IRI, tuple] = {
        V.RDF_TYPE: (V.MATRIX_CLASS,), V.NAME: (literal(name),)}
    if matrix.code:
        m_want[V.CODE] = (literal(matrix.code),)
    reconcile(m_iri, m_want, skip=_LINKS)
    total = len(m_want)

    for link, kind, cls, element_pred, extra_pred, ids, header_of, extra_attr, entries, iris in (
        (V.HAS_ROW, "row", V.ROW_CLASS, V.ROW_ELEMENT, V.VARIABLE_NAME,
         matrix.row_ids, matrix.row, "variable_name", view.rows, view.row_iris),
        (V.HAS_COLUMN, "col", V.COLUMN_CLASS, V.COLUMN_ELEMENT, V.CODE,
         matrix.column_ids, matrix.column, "code", view.columns, view.column_iris),
    ):
        added = False
        for element_id in ids:
            header = header_of(element_id)
            entry = (element_id, header.schema_name, header.is_complete,
                     getattr(header, extra_attr))
            total += 6 if entry[3] else 5
            before = entries.get(element_id)
            if before == entry and not (dirty and iris[element_id] in dirty):
                continue
            if before is not None:
                reconcile(iris[element_id],
                          _axis_slice(entry, cls, element_pred, extra_pred))
            else:
                iri = iris[element_id] = term(f"{qname}/{kind}/{qid(element_id)}")
                place(link, iri, _axis_slice(entry, cls, element_pred, extra_pred))
                added = True
            entries[element_id] = entry
        if len(entries) > len(ids):
            kept = set(ids)
            for element_id in [e for e in entries if e not in kept]:
                del entries[element_id]
                iri = iris.pop(element_id)
                stale.append(Triple(m_iri, link, iri))
                drop(iri)
        if added:
            _resort(entries)

    cells, cell_iris = view.cells, view.cell_iris
    row_iris, column_iris = view.row_iris, view.column_iris
    added = False
    for cell in matrix.cells():
        source_id, target_id = pair = cell.pair
        confidence = float(cell.confidence)
        entry = (source_id, target_id, confidence, cell.is_user_defined)
        before = cells.get(pair)
        # 0.0 and -0.0 compare equal but are written as different literals
        if (before == entry and (confidence or str(before[2]) == str(confidence))
                and not (dirty and cell_iris[pair] in dirty)):
            continue
        want = _cell_slice(entry, row_iris[source_id], column_iris[target_id])
        if before is not None:
            reconcile(cell_iris[pair], want)
        else:
            iri = cell_iris[pair] = term(
                f"{qname}/cell/{qid(source_id)}/{qid(target_id)}")
            place(V.HAS_CELL, iri, want)
            added = True
        cells[pair] = entry
    total += 6 * matrix.cell_count()
    if len(cells) > matrix.cell_count():
        for pair in [p for p in cells if matrix.peek(*p) is None]:
            del cells[pair]
            iri = cell_iris.pop(pair)
            stale.append(Triple(m_iri, V.HAS_CELL, iri))
            drop(iri)
    if added:
        _resort(cells)

    if orphans:
        parts = set(row_iris.values())
        parts.update(column_iris.values())
        parts.update(cell_iris.values())
        for link, obj in orphans - matched:
            stale.append(Triple(m_iri, link, obj))
            if obj not in parts:
                drop(obj)

    stale.sort(key=Triple.sort_key)
    store.remove_many(stale)
    store.add_many(fresh)
    view.code = matrix.code
    view.dirty = {iri for iri, size in checks if count_of(subject=iri) != size}
    view.orphans = set()
    view.problem = "a new part kept extra statements" if view.dirty else None
    return len(fresh), len(stale), total


def serialize_matrix(
    matrix: MappingMatrix,
    store: TripleStore,
    delta: bool = False,
    previous: Optional[MatrixView] = None,
) -> IRI:
    """Matrix serialization (bulk, or the delta write matcher rounds use).

    Both modes are idempotent and produce the same stored matrix state
    as :func:`matrix_to_rdf`:

    * **bulk** (``delta=False``) — remove any stored matrix of the same
      name, then land the precomputed triple list in one ``add_many``;
    * **delta** (``delta=True``) — diff the matrix against *previous*,
      the :class:`MatrixView` of the stored version, and remove the
      stale / add the fresh statements of the parts that changed, so
      re-serializing after a rematch costs O(changed cells).  Without
      *previous* the stored version is read first.  Every statement on
      the matrix subject and on its stored parts that is not in the
      canonical layout is removed; *inbound* triples pointing at
      surviving parts are preserved.  *previous* is updated in place to
      describe the written matrix.

    *previous* must describe the store as it is: the blackboard keeps
    its views exact by dropping one whenever a subject it was read from
    changes.
    """
    stats = _SERIALIZATION_STATS
    m_iri = matrix_iri(matrix.name)
    if not delta:
        desired = matrix_triples(matrix)
        removed = 0
        if V.MATRIX_CLASS in store.objects(m_iri, V.RDF_TYPE):
            removed = remove_matrix(store, matrix.name)
        store.add_many(desired)
        stats["matrix_bulk_serializations"] += 1
        stats["matrix_triples_written"] += len(desired)
        stats["matrix_triples_removed"] += removed
        return m_iri

    if previous is None or previous.name != matrix.name:
        previous = read_matrix_view(store, matrix.name)
    written, removed, total = _delta_matrix(matrix, store, previous)
    stats["matrix_delta_serializations"] += 1
    stats["matrix_triples_written"] += written
    stats["matrix_triples_removed"] += removed
    stats["matrix_triples_unchanged"] += total - written
    return m_iri


def write_cell(store: TripleStore, matrix_name: str, cell: Correspondence) -> IRI:
    """Write (or refresh) one mapping cell's triples."""
    c_iri = cell_iri(matrix_name, cell.source_id, cell.target_id)
    m_iri = matrix_iri(matrix_name)
    store.add(m_iri, V.HAS_CELL, c_iri)
    store.add(c_iri, V.RDF_TYPE, V.CELL_CLASS)
    store.add(c_iri, V.CELL_ROW, row_iri(matrix_name, cell.source_id))
    store.add(c_iri, V.CELL_COLUMN, column_iri(matrix_name, cell.target_id))
    store.set_value(c_iri, V.CONFIDENCE_SCORE, literal(float(cell.confidence)))
    store.set_value(c_iri, V.IS_USER_DEFINED, literal(cell.is_user_defined))
    return c_iri


def rdf_to_matrix(
    store: TripleStore,
    matrix_name: str,
    views: Optional[Dict[str, MatrixView]] = None,
) -> MappingMatrix:
    """Reconstruct a mapping matrix from its triples.

    Rows and columns come in element-id order and cells in pair order,
    so a given store always reads back the same way.  A part linked
    under an IRI other than its canonical one raises
    :class:`StoreError`.  When *views* is given, the
    :class:`MatrixView` the matrix was built from is stored in it under
    *matrix_name*.
    """
    view = read_matrix_view(store, matrix_name)
    if view.problem is not None:
        raise StoreError(view.problem)
    matrix = matrix_from_view(view)
    if views is not None:
        views[matrix_name] = view
    return matrix


def matrices_in_store(store: TripleStore) -> List[str]:
    names = []
    for subject in store.subjects(V.RDF_TYPE, V.MATRIX_CLASS):
        lit = store.object(subject, V.NAME)
        if isinstance(lit, Literal):
            names.append(lit.lexical)
    return sorted(names)
