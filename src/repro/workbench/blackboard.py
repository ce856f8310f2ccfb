"""The integration blackboard (Section 5.1).

*"The integration blackboard (IB) is a shared repository for information
relevant to schema integration that is intended to be accessed by multiple
tools, including schemata, mappings, and their component elements."*

Everything lives as RDF triples in one :class:`~repro.rdf.TripleStore`;
this class is the typed facade tools use: put/get schema graphs and
mapping matrices, cell-level updates, the shared focus context
(Section 5.1.3), and durable save/load so a blackboard can be *"shared
across multiple workbench instances"*.

The triples stay the only state.  Next to them the blackboard keeps one
typed view per schema and matrix it has read or written
(:class:`~repro.rdf.schema_rdf.SchemaView`,
:class:`~repro.rdf.schema_rdf.MatrixView`), so a refinement round that
re-reads unchanged schemas parses no RDF and a matrix write touches only
the cells that changed.  The store's own batch change stream keeps the
views exact: a change to any subject a view was read from or written to
drops that view, whoever made the change.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.correspondence import Correspondence
from ..core.errors import StoreError
from ..core.graph import SchemaGraph
from ..core.matrix import MappingMatrix
from ..rdf import schema_rdf
from ..rdf.durability import DurableStore
from ..rdf.namespace import IW_NS
from ..rdf.store import TripleStore
from ..rdf.serialize import from_ntriples, to_ntriples
from ..rdf.term import IRI, Literal, literal
from ..rdf.triple import Triple
from ..rdf import vocabulary as V

#: Well-known subject carrying workbench-wide state (focus, etc.).
_WORKBENCH = IW_NS.workbench


class IntegrationBlackboard:
    """Typed access to the shared RDF repository.

    By default the repository is memory-only.  Passing ``durable=`` (a
    directory path) puts a :class:`~repro.rdf.durability.DurableStore`
    underneath instead: every mutation is write-ahead logged, the
    directory is recovered on open (so a session survives a crash or
    restart), :meth:`checkpoint` compacts the log, and the WAL frame
    stream can feed read-only replicas.  ``fsync`` and
    ``auto_checkpoint_bytes`` pass through to the durable layer.

    Reads are served from typed views where possible: :meth:`get_schema`
    and :meth:`get_matrix` build the object from the view of the last
    read or write instead of parsing RDF, and always return exactly what
    a fresh :func:`~repro.rdf.schema_rdf.rdf_to_schema` /
    :func:`~repro.rdf.schema_rdf.rdf_to_matrix` of the store would (same
    content, iteration order and graph ``revision``).  A view is dropped
    as soon as any triple of a subject it was read from changes —
    through this class, a direct ``store`` write, a transaction
    rollback, a provenance entry or a replicated delta alike.
    :meth:`stats` counts view hits, misses and how matrix writes were
    diffed.
    """

    def __init__(
        self,
        store: Optional[TripleStore] = None,
        durable: Optional[str] = None,
        fsync: str = "commit",
        auto_checkpoint_bytes: Optional[int] = None,
    ) -> None:
        if durable is not None:
            if store is not None:
                raise StoreError(
                    "pass either store= or durable=, not both — a durable "
                    "blackboard owns its recovered store")
            self.durability: Optional[DurableStore] = DurableStore(
                durable, fsync=fsync,
                auto_checkpoint_bytes=auto_checkpoint_bytes,
            )
            self.store = self.durability.store
        else:
            self.durability = None
            self.store = store if store is not None else TripleStore()
        self._schema_views: Dict[str, schema_rdf.SchemaView] = {}
        self._matrix_views: Dict[str, schema_rdf.MatrixView] = {}
        #: subject -> (the views dict, the name) of the view read from it;
        #: entries of dropped views stay and at worst drop a later view
        self._view_of: Dict[object, Tuple[dict, str]] = {}
        self._watching = False
        self._stats = dict.fromkeys((
            "schema_view_hits", "schema_view_misses",
            "matrix_view_hits", "matrix_view_misses",
            "matrix_writes_viewed", "matrix_writes_cold",
        ), 0)

    # -- typed views ----------------------------------------------------------------

    def _keep(self, views: dict, name: str, view: object,
              subjects: Sequence[object]) -> None:
        """Keep ``views[name] = view``, dropped when any of *subjects*
        changes (subjects of the view registered before stay watched)."""
        views[name] = view
        if not self._watching:
            # a weak reference: the store must not keep the blackboard
            # (and its views) alive, nor form a cycle with it
            board = weakref.ref(self)

            def on_changes(changes: Sequence[Tuple[bool, Triple]]) -> None:
                live = board()
                if live is not None:
                    live._invalidate(changes)

            self.store.subscribe_batch(on_changes)
            self._watching = True
        entry = (views, name)
        view_of = self._view_of
        for subject in subjects:
            view_of[subject] = entry

    def _invalidate(self, changes: Sequence[Tuple[bool, Triple]]) -> None:
        if not (self._schema_views or self._matrix_views):
            return
        view_of = self._view_of
        for _added, triple in changes:
            entry = view_of.get(triple.subject)
            if entry is not None:
                entry[0].pop(entry[1], None)

    def stats(self) -> Dict[str, int]:
        """View counters: hits and misses of :meth:`get_schema` and
        :meth:`get_matrix`, and delta matrix writes diffed against a
        view (``matrix_writes_viewed``) or after a cold read of the
        stored matrix (``matrix_writes_cold``)."""
        return dict(self._stats)

    # -- schemata -----------------------------------------------------------------

    def put_schema(
        self,
        graph: SchemaGraph,
        delta: bool = False,
        previous: Optional[SchemaGraph] = None,
    ) -> IRI:
        """Write (or replace) a schema graph.

        With ``delta=True`` the write goes through
        :func:`~repro.rdf.schema_rdf.serialize_schema`'s diffing path:
        only statements that actually changed relative to the stored
        version are touched, and passing *previous* (the stored
        version, as ``evolve_and_rematch`` does) narrows the diff to
        the changed elements — O(delta) instead of O(schema).
        """
        if delta:
            return schema_rdf.serialize_schema(
                graph, self.store, delta=True, previous=previous
            )
        if graph.name in self.schema_names():
            self.remove_schema(graph.name)
        return schema_rdf.schema_to_rdf(graph, self.store)

    def get_schema(self, name: str) -> SchemaGraph:
        """The stored schema graph, as a new object.

        Built from the schema's view when the stored triples did not
        change since the last read; otherwise read with
        :func:`~repro.rdf.schema_rdf.rdf_to_schema`, which keeps the view.
        """
        view = self._schema_views.get(name)
        if view is not None:
            self._stats["schema_view_hits"] += 1
            return schema_rdf.schema_from_view(view)
        self._stats["schema_view_misses"] += 1
        read: Dict[str, schema_rdf.SchemaView] = {}
        graph = schema_rdf.rdf_to_schema(self.store, name, views=read)
        if name in read:
            self._keep(self._schema_views, name, read[name], read[name].subjects)
        return graph

    def has_schema(self, name: str) -> bool:
        return name in self.schema_names()

    def schema_names(self) -> List[str]:
        return schema_rdf.schemas_in_store(self.store)

    def remove_schema(self, name: str) -> int:
        """Remove a schema and all its element triples."""
        return schema_rdf.remove_schema(self.store, name)

    # -- mapping matrices ---------------------------------------------------------------

    def put_matrix(self, matrix: MappingMatrix, delta: bool = False) -> IRI:
        """Write (or replace) a whole mapping matrix.

        With ``delta=True`` (how the matcher tool, evolutions and serving
        write) the write diffs the matrix against the stored version's view
        (:func:`~repro.rdf.schema_rdf.serialize_matrix` with
        ``previous=``) and touches only the triples of changed parts,
        so a refinement round's write costs O(changed cells); without a
        current view it reads the stored matrix first
        (:func:`~repro.rdf.schema_rdf.read_matrix_view`).  Idempotent
        either way, never leaving stale cells behind.  After a delta
        write the written matrix's view is kept, so the next
        :meth:`get_matrix` parses no RDF.
        """
        view = self._matrix_views.pop(matrix.name, None)
        if not delta:
            return schema_rdf.serialize_matrix(matrix, self.store)
        if view is None:
            self._stats["matrix_writes_cold"] += 1
            view = schema_rdf.read_matrix_view(self.store, matrix.name)
        else:
            self._stats["matrix_writes_viewed"] += 1
        m_iri = schema_rdf.serialize_matrix(
            matrix, self.store, delta=True, previous=view)
        if view.problem is None:
            self._keep(self._matrix_views, matrix.name, view, view.subjects())
        return m_iri

    def get_matrix(self, name: str) -> MappingMatrix:
        """The stored mapping matrix, as a new object.

        Built from the matrix's view when no stored triple of it changed
        since the last read or write; otherwise read with
        :func:`~repro.rdf.schema_rdf.rdf_to_matrix`, which keeps the view.
        """
        view = self._matrix_views.get(name)
        if view is not None:
            self._stats["matrix_view_hits"] += 1
            return schema_rdf.matrix_from_view(view)
        self._stats["matrix_view_misses"] += 1
        read: Dict[str, schema_rdf.MatrixView] = {}
        matrix = schema_rdf.rdf_to_matrix(self.store, name, views=read)
        self._keep(self._matrix_views, name, read[name], read[name].subjects())
        return matrix

    def has_matrix(self, name: str) -> bool:
        return name in self.matrix_names()

    def matrix_names(self) -> List[str]:
        return schema_rdf.matrices_in_store(self.store)

    def remove_matrix(self, name: str) -> int:
        return schema_rdf.remove_matrix(self.store, name)

    # -- cell-level updates (what match tools write) --------------------------------------

    def update_cell(
        self,
        matrix_name: str,
        source_id: str,
        target_id: str,
        confidence: float,
        user_defined: bool = False,
    ) -> Correspondence:
        """Write one cell's confidence directly into the triple layout.

        The matrix's view, when current, is patched for the cell, so the
        next :meth:`get_matrix` is still served from memory.
        """
        cell = Correspondence(source_id, target_id)
        if user_defined:
            if confidence >= 1.0:
                cell.accept()
            else:
                cell.reject()
        else:
            cell.suggest(confidence)
        view = self._matrix_views.pop(matrix_name, None)
        c_iri = schema_rdf.write_cell(self.store, matrix_name, cell)
        if view is not None and view.note_cell(self.store, c_iri, cell):
            self._keep(self._matrix_views, matrix_name, view, (c_iri,))
        return cell

    def cell_confidence(
        self, matrix_name: str, source_id: str, target_id: str
    ) -> Optional[Tuple[float, bool]]:
        """Read one cell: (confidence, is_user_defined), or None."""
        c_iri = schema_rdf.cell_iri(matrix_name, source_id, target_id)
        conf = self.store.object(c_iri, V.CONFIDENCE_SCORE)
        if not isinstance(conf, Literal):
            return None
        user = self.store.object(c_iri, V.IS_USER_DEFINED)
        return (
            float(conf.to_python()),
            bool(user.to_python()) if isinstance(user, Literal) else False,
        )

    def set_row_variable(self, matrix_name: str, source_id: str, variable: str) -> None:
        r_iri = schema_rdf.row_iri(matrix_name, source_id)
        self.store.set_value(r_iri, V.VARIABLE_NAME, literal(variable))

    def set_column_code(self, matrix_name: str, target_id: str, code: str) -> None:
        c_iri = schema_rdf.column_iri(matrix_name, target_id)
        self.store.set_value(c_iri, V.CODE, literal(code))

    def set_matrix_code(self, matrix_name: str, code: str) -> None:
        m_iri = schema_rdf.matrix_iri(matrix_name)
        self.store.set_value(m_iri, V.CODE, literal(code))

    # -- shared focus context (Section 5.1.3) ------------------------------------------------

    def set_focus(self, element_id: Optional[str]) -> None:
        """Share the engineer's current sub-schema focus across tools."""
        self.store.remove_matching(subject=_WORKBENCH, predicate=V.FOCUS)
        if element_id is not None:
            self.store.add(_WORKBENCH, V.FOCUS, literal(element_id))

    def get_focus(self) -> Optional[str]:
        value = self.store.object(_WORKBENCH, V.FOCUS)
        if isinstance(value, Literal):
            return value.lexical
        return None

    # -- durability ---------------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Compact the durable layer (snapshot + WAL truncate)."""
        if self.durability is None:
            raise StoreError("checkpoint() requires a durable blackboard")
        self.durability.checkpoint()

    def close(self) -> None:
        """Flush and release the durable layer (no-op when in-memory)."""
        # a closed durable store still applies a mutation before its WAL
        # listener rejects it, and that rejection stops the view listener
        self._schema_views.clear()
        self._matrix_views.clear()
        if self.durability is not None:
            self.durability.close()

    def dumps(self) -> str:
        """Serialize the whole blackboard as N-Triples."""
        return to_ntriples(self.store)

    @classmethod
    def loads(cls, text: str) -> "IntegrationBlackboard":
        return cls(store=from_ntriples(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    @classmethod
    def load(cls, path: str) -> "IntegrationBlackboard":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:
        return (
            f"IntegrationBlackboard(schemas={len(self.schema_names())}, "
            f"matrices={len(self.matrix_names())}, triples={len(self.store)})"
        )
