"""Differential tests for the blackboard's typed views.

``IntegrationBlackboard`` serves ``get_schema`` / ``get_matrix`` from a
typed view of the last read or write and writes a matrix by diffing it
against that view.  Two oracles hold it to account after every step of
a random session, on an in-memory and on a durable blackboard:

* every read equals a cold :func:`rdf_to_schema` / :func:`rdf_to_matrix`
  of the store — content, element/row/column/cell order, each element's
  out- and in-edge order and the graph ``revision`` — or fails the same
  way;
* every delta ``put_matrix`` leaves the store equal, triple for triple,
  to the full slice diff of ``matrix_oracle``, and writes and removes
  the same number of triples.

The session mixes everything that can change a stored schema or matrix:
bulk and delta puts, cell updates, header and code annotations,
provenance entries, direct store adds and removes, rolled-back
transactions and (durable) reopens.
"""

import gc
import shutil
import tempfile
import weakref

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from matrix_oracle import oracle_store_after
from repro.core import ElementKind, MappingMatrix, SchemaElement, SchemaGraph
from repro.rdf import schema_rdf
from repro.rdf import vocabulary as V
from repro.rdf.namespace import IW_NS
from repro.rdf.term import literal
from repro.rdf.triple import Triple
from repro.workbench import IntegrationBlackboard
from repro.workbench.provenance import ProvenanceLog
from repro.workbench.transactions import Transaction

# names with a space and a '%' exercise the IRI quoting
SOURCE, TARGET = "src db", "tgt"
MATRIX = f"{SOURCE}->{TARGET}"


def _schema(name: str, variant: int = 0) -> SchemaGraph:
    """A small schema; variant 1 moves, renames and adds an attribute."""
    graph = SchemaGraph.create(name)
    orders, items = f"{name}/orders", f"{name}/items"
    graph.add_child(name, SchemaElement(
        orders, "orders", ElementKind.TABLE, documentation="Customer orders"))
    graph.add_child(name, SchemaElement(items, "items", ElementKind.TABLE))
    graph.add_child(orders, SchemaElement(
        f"{orders}/id", "order id" if variant else "id",
        ElementKind.ATTRIBUTE, datatype="integer"))
    graph.add_child(items if variant else orders, SchemaElement(
        f"{orders}/ship to", "ship to", ElementKind.ATTRIBUTE,
        datatype="string", annotations={"nullable": True, "units": "n/a"}))
    graph.add_child(items, SchemaElement(
        f"{items}/sku%", "sku%", ElementKind.ATTRIBUTE, datatype="string"))
    if variant:
        graph.add_child(items, SchemaElement(
            f"{items}/qty", "qty", ElementKind.ATTRIBUTE, datatype="integer"))
    graph.add_edge(items, "references", orders)
    return graph


ROWS = sorted(set(_schema(SOURCE, 1).element_ids) - {SOURCE}) + ["ghost"]
COLUMNS = sorted(set(_schema(TARGET).element_ids) - {TARGET})
CONFIDENCES = [0.0, -0.0, 0.25, 0.5, 0.9, -0.3, 1.0]

SUBJECTS = (
    [schema_rdf.schema_iri(SOURCE), schema_rdf.schema_iri(TARGET),
     schema_rdf.matrix_iri(MATRIX)]
    + [schema_rdf.element_iri(SOURCE, e) for e in _schema(SOURCE, 1).element_ids]
    + [schema_rdf.element_iri(TARGET, e) for e in _schema(TARGET).element_ids]
    + [schema_rdf.row_iri(MATRIX, r) for r in ROWS]
    + [schema_rdf.column_iri(MATRIX, c) for c in COLUMNS]
    + [schema_rdf.cell_iri(MATRIX, r, c) for r in ROWS[:3] for c in COLUMNS[:3]]
)
PREDICATES = [IW_NS["note"], V.NAME, V.CODE, V.CONFIDENCE_SCORE,
              V.IS_USER_DEFINED, V.VARIABLE_NAME, V.RDF_TYPE, V.IS_COMPLETE,
              V.HAS_CELL, V.HAS_ROW, V.HAS_ELEMENT]
# objects include a cell IRI, a row IRI and another schema's element, so
# links can point at parts that are not canonical for their subject
VALUES = [literal("x"), literal(0.5), literal(True), literal(3),
          V.CELL_CLASS, SUBJECTS[-1], schema_rdf.row_iri(MATRIX, ROWS[0]),
          schema_rdf.element_iri(TARGET, f"{TARGET}/items")]

edits = st.lists(st.one_of(
    st.tuples(st.just("set"), st.sampled_from(ROWS), st.sampled_from(COLUMNS),
              st.sampled_from(CONFIDENCES)),
    st.tuples(st.just("decide"), st.sampled_from(ROWS),
              st.sampled_from(COLUMNS), st.sampled_from([1.0, -1.0])),
    st.tuples(st.just("remove_row"), st.sampled_from(ROWS)),
    st.tuples(st.just("remove_column"), st.sampled_from(COLUMNS)),
    st.tuples(st.just("add_row"), st.sampled_from(ROWS)),
    st.tuples(st.just("add_column"), st.sampled_from(COLUMNS)),
    st.tuples(st.just("variable"), st.sampled_from(ROWS),
              st.sampled_from(["", "v", "w"])),
    st.tuples(st.just("column_code"), st.sampled_from(COLUMNS),
              st.sampled_from(["", "$v", "$w"])),
    st.tuples(st.just("complete"), st.sampled_from(ROWS), st.booleans()),
    st.tuples(st.just("matrix_code"), st.sampled_from(["", "for $x ..."])),
), max_size=6)


def _edit(matrix: MappingMatrix, steps) -> None:
    for step in steps:
        kind, args = step[0], step[1:]
        if kind == "set" and args[0] in matrix.row_ids and args[1] in matrix.column_ids:
            matrix.set_confidence(*args)
        elif kind == "decide" and args[0] in matrix.row_ids and args[1] in matrix.column_ids:
            matrix.set_confidence(*args, user_defined=True)
        elif kind == "remove_row":
            matrix.remove_row(args[0])
        elif kind == "remove_column":
            matrix.remove_column(args[0])
        elif kind == "add_row":
            matrix.add_row(args[0], schema_name=SOURCE)
        elif kind == "add_column":
            matrix.add_column(args[0], schema_name=TARGET)
        elif kind == "variable" and args[0] in matrix.row_ids:
            matrix.set_row_variable(*args)
        elif kind == "column_code" and args[0] in matrix.column_ids:
            matrix.set_column_code(*args)
        elif kind == "complete" and args[0] in matrix.row_ids:
            matrix.mark_row_complete(*args)
        elif kind == "matrix_code":
            matrix.code = args[0]


def _graph_signature(graph: SchemaGraph):
    return (
        graph.name,
        graph.revision,
        [(e.element_id, e.name, e.kind, e.datatype, e.documentation,
          list(e.annotations.items())) for e in graph],
        [(eid,
          [(edge.label, edge.object) for edge in graph.out_edges(eid)],
          [(edge.subject, edge.label) for edge in graph.in_edges(eid)])
         for eid in graph.element_ids],
    )


def _matrix_signature(matrix: MappingMatrix):
    def header(h):
        return (h.element_id, h.schema_name, h.variable_name, h.code,
                h.is_complete, h.annotations)

    return (
        matrix.name,
        matrix.code,
        matrix.annotations,
        [header(matrix.row(r)) for r in matrix.row_ids],
        [header(matrix.column(c)) for c in matrix.column_ids],
        [(c.source_id, c.target_id, repr(c.confidence),
          type(c.confidence), c.is_user_defined, c.annotations)
         for c in matrix.cells()],
    )


def _outcome(read):
    try:
        return ("ok", read())
    except Exception as exc:  # the cold read defines which failures are right
        return ("error", type(exc).__name__)


class BlackboardViews(RuleBasedStateMachine):
    durable = False

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="views-") if self.durable else None
        self.board = self._open()

    def _open(self) -> IntegrationBlackboard:
        if self.durable:
            return IntegrationBlackboard(durable=self.directory, fsync="never")
        return IntegrationBlackboard()

    def teardown(self):
        self.board.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)

    # -- the oracles -----------------------------------------------------------

    @invariant()
    def reads_equal_cold_reads(self):
        store = self.board.store
        for name in (SOURCE, TARGET):
            cold = _outcome(lambda: _graph_signature(
                schema_rdf.rdf_to_schema(store, name)))
            for _ in range(2):  # a miss, then (if the read worked) a hit
                assert _outcome(lambda: _graph_signature(
                    self.board.get_schema(name))) == cold
        cold = _outcome(lambda: _matrix_signature(
            schema_rdf.rdf_to_matrix(store, MATRIX)))
        for _ in range(2):
            assert _outcome(lambda: _matrix_signature(
                self.board.get_matrix(MATRIX))) == cold

    def _put_matrix(self, matrix: MappingMatrix, delta: bool) -> None:
        before = self.board.store.snapshot()
        counts = schema_rdf.serialization_stats()
        self.board.put_matrix(matrix, delta=delta)
        if delta:
            want, written, removed = oracle_store_after(matrix, before)
            assert self.board.store.snapshot() == want
            after = schema_rdf.serialization_stats()
            assert after["matrix_triples_written"] - counts["matrix_triples_written"] == written
            assert after["matrix_triples_removed"] - counts["matrix_triples_removed"] == removed

    def _base_matrix(self, fresh: bool) -> MappingMatrix:
        if not fresh:
            read = _outcome(lambda: self.board.get_matrix(MATRIX))
            if read[0] == "ok":
                return read[1]
        matrix = MappingMatrix.from_schemas(_schema(SOURCE), _schema(TARGET))
        matrix.name = MATRIX
        return matrix

    # -- the session -------------------------------------------------------------

    @rule(variant=st.sampled_from([(SOURCE, 0), (SOURCE, 1), (TARGET, 0)]),
          delta=st.booleans())
    def put_schema(self, variant, delta):
        graph = _schema(*variant)
        previous = None
        if delta:
            read = _outcome(lambda: self.board.get_schema(graph.name))
            previous = read[1] if read[0] == "ok" else None
        self.board.put_schema(graph, delta=delta, previous=previous)

    @rule(steps=edits, delta=st.booleans(), fresh=st.booleans())
    def put_matrix(self, steps, delta, fresh):
        matrix = self._base_matrix(fresh)
        _edit(matrix, steps)
        self._put_matrix(matrix, delta)

    @rule(row=st.sampled_from(ROWS), column=st.sampled_from(COLUMNS),
          confidence=st.sampled_from(CONFIDENCES), user=st.booleans())
    def update_cell(self, row, column, confidence, user):
        self.board.update_cell(MATRIX, row, column, confidence,
                               user_defined=user)

    @rule(row=st.sampled_from(ROWS), variable=st.sampled_from(["", "v", "w"]))
    def set_row_variable(self, row, variable):
        self.board.set_row_variable(MATRIX, row, variable)

    @rule(column=st.sampled_from(COLUMNS), code=st.sampled_from(["$v", "$w"]))
    def set_column_code(self, column, code):
        self.board.set_column_code(MATRIX, column, code)

    @rule(code=st.sampled_from(["", "for $x ..."]))
    def set_matrix_code(self, code):
        self.board.set_matrix_code(MATRIX, code)

    def _stored_cells(self):
        links = self.board.store.objects(schema_rdf.matrix_iri(MATRIX), V.HAS_CELL)
        return sorted(links, key=str)

    def _subjects(self):
        return sorted(set(SUBJECTS) | set(self._stored_cells()), key=str)

    @rule(row=st.sampled_from(ROWS), column=st.sampled_from(COLUMNS),
          index=st.integers(min_value=0, max_value=10_000), stored=st.booleans())
    def record_provenance(self, row, column, index, stored):
        """A provenance entry on a stored cell (or any pair) and on the
        matrix: history triples on the matrix's own subjects."""
        log = ProvenanceLog(self.board.store)
        cells = self._stored_cells()
        if stored and cells:
            log.store.add(cells[index % len(cells)], V.GENERATED_BY,
                          literal(f"mapper@{index}"))
        else:
            log.record_cell(MATRIX, row, column, "mapper")
        log.record_matrix(MATRIX, "harmony", derived_from="library")

    @rule(index=st.integers(min_value=0, max_value=10_000),
          predicate=st.sampled_from(PREDICATES), value=st.sampled_from(VALUES))
    def direct_add(self, index, predicate, value):
        subjects = self._subjects()
        self.board.store.add(subjects[index % len(subjects)], predicate, value)

    @rule(index=st.integers(min_value=0, max_value=10_000))
    def direct_remove(self, index):
        pool = set(self._subjects())
        triples = sorted((t for t in self.board.store.snapshot() if t.subject in pool),
                         key=Triple.sort_key)
        if triples:
            self.board.store.remove_triple(triples[index % len(triples)])

    @rule(steps=edits, row=st.sampled_from(ROWS),
          column=st.sampled_from(COLUMNS))
    def rolled_back_round(self, steps, row, column):
        transaction = Transaction(self.board.store)
        self.board.update_cell(MATRIX, row, column, 1.0, user_defined=True)
        matrix = self._base_matrix(fresh=False)
        _edit(matrix, steps)
        self._put_matrix(matrix, delta=True)
        _outcome(lambda: self.board.get_matrix(MATRIX))
        transaction.rollback()

    @precondition(lambda self: self.durable)
    @rule()
    def reopen(self):
        self.board.close()
        self.board = self._open()


class DurableBlackboardViews(BlackboardViews):
    durable = True


_SETTINGS = settings(max_examples=40, stateful_step_count=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])
TestInMemoryBlackboardViews = BlackboardViews.TestCase
TestInMemoryBlackboardViews.settings = _SETTINGS
TestDurableBlackboardViews = DurableBlackboardViews.TestCase
TestDurableBlackboardViews.settings = _SETTINGS


class TestExactness:
    def test_delta_write_removes_annotations_on_matrix_subjects(self):
        """Provenance on a cell and library tags on the matrix subject are
        not matrix layout: a delta write diffed against a view removes
        them exactly as the full slice diff does."""
        board = IntegrationBlackboard()
        matrix = MappingMatrix.from_schemas(_schema(SOURCE), _schema(TARGET))
        matrix.name = MATRIX
        pairs = [(f"{SOURCE}/orders/id", COLUMNS[0]),
                 (f"{SOURCE}/items", COLUMNS[1])]
        for source_id, target_id in pairs:
            matrix.set_confidence(source_id, target_id, 0.5)
        board.put_matrix(matrix, delta=True)
        ProvenanceLog(board.store).record_cell(MATRIX, *pairs[0], "mapper")
        board.store.set_value(schema_rdf.matrix_iri(MATRIX), V.SOURCE_SCHEMA,
                              literal(SOURCE))
        matrix = board.get_matrix(MATRIX)          # a cold read: the view sees both
        matrix.set_confidence(*pairs[1], 0.75)
        before = board.store.snapshot()
        board.put_matrix(matrix, delta=True)
        want, _written, _removed = oracle_store_after(matrix, before)
        assert board.store.snapshot() == want
        assert board.stats()["matrix_writes_viewed"] == 1


    def _board(self):
        board = IntegrationBlackboard()
        matrix = MappingMatrix.from_schemas(_schema(SOURCE), _schema(TARGET))
        matrix.name = MATRIX
        board.put_matrix(matrix, delta=True)
        return board

    def _assert_delta_write_matches_oracle(self, board, matrix):
        before = board.store.snapshot()
        board.put_matrix(matrix, delta=True)
        want, _written, _removed = oracle_store_after(matrix, before)
        assert board.store.snapshot() == want

    def test_negative_zero_is_a_change(self):
        """0.0 and -0.0 compare equal but are different literals."""
        board = self._board()
        pair = (f"{SOURCE}/items", COLUMNS[0])
        matrix = board.get_matrix(MATRIX)
        matrix.set_confidence(*pair, 0.0)
        board.put_matrix(matrix, delta=True)
        matrix = board.get_matrix(MATRIX)
        matrix.set_confidence(*pair, -0.0)
        self._assert_delta_write_matches_oracle(board, matrix)
        assert repr(board.get_matrix(MATRIX).peek(*pair).confidence) == "-0.0"

    def test_an_updated_cell_keeps_statements_it_did_not_write(self):
        """A cell first written by ``update_cell`` over an earlier
        provenance entry carries a statement outside the layout; the
        patched view marks it, so the next write removes it as the full
        diff does."""
        board = self._board()
        pair = (f"{SOURCE}/items", COLUMNS[1])
        ProvenanceLog(board.store).record_cell(MATRIX, *pair, "mapper")
        board.update_cell(MATRIX, *pair, 0.5)
        matrix = board.get_matrix(MATRIX)
        assert board.stats()["matrix_view_hits"] == 1
        self._assert_delta_write_matches_oracle(board, matrix)


class TestViewCounters:
    def test_unchanged_objects_are_read_from_views(self):
        rows = [f"{SOURCE}/orders/id", f"{SOURCE}/items", f"{SOURCE}/items/sku%"]
        board = IntegrationBlackboard()
        board.put_schema(_schema(SOURCE))
        board.put_schema(_schema(TARGET))
        matrix = MappingMatrix.from_schemas(_schema(SOURCE), _schema(TARGET))
        matrix.name = MATRIX
        matrix.set_confidence(rows[0], COLUMNS[0], 0.5)
        board.put_matrix(matrix, delta=True)
        for _ in range(3):
            board.get_schema(SOURCE)
            matrix = board.get_matrix(MATRIX)
            matrix.set_confidence(rows[1], COLUMNS[1], 0.75)
            board.put_matrix(matrix, delta=True)
            board.update_cell(MATRIX, rows[2], COLUMNS[2], 1.0, user_defined=True)
        # the first write reads the (absent) stored matrix and keeps the
        # written matrix's view, so every matrix read is served from it
        assert board.stats() == {
            "schema_view_hits": 2, "schema_view_misses": 1,
            "matrix_view_hits": 3, "matrix_view_misses": 0,
            "matrix_writes_viewed": 3, "matrix_writes_cold": 1,
        }

    def test_a_direct_store_write_drops_the_view(self):
        board = IntegrationBlackboard()
        board.put_schema(_schema(SOURCE))
        board.get_schema(SOURCE)
        element = schema_rdf.element_iri(SOURCE, f"{SOURCE}/items")
        board.store.set_value(element, V.NAME, literal("line items"))
        assert board.get_schema(SOURCE).element(f"{SOURCE}/items").name == "line items"
        assert board.stats()["schema_view_misses"] == 2

    def test_replicated_deltas_drop_the_replica_side_view(self, tmp_path):
        """A blackboard over a mirror store sees a durable primary's writes
        arrive as bulk remove_many / add_many batches, the way WAL replay
        applies a logged frame, which drop its views like any other
        change."""
        primary = IntegrationBlackboard(durable=str(tmp_path / "primary"))
        mirror = IntegrationBlackboard()
        shipped = set()

        def ship():
            current = primary.store.snapshot()
            removed = mirror.store.remove_many(shipped - current)
            assert mirror.store.add_many(current - shipped)
            shipped.clear()
            shipped.update(current)
            return removed

        matrix = MappingMatrix.from_schemas(_schema(SOURCE), _schema(TARGET))
        matrix.name = MATRIX
        primary.put_matrix(matrix, delta=True)
        ship()
        assert mirror.get_matrix(MATRIX).cell_count() == 0
        pair = (f"{SOURCE}/items", COLUMNS[0])
        removed = 0
        for confidence in (0.5, 0.75):
            primary.update_cell(MATRIX, *pair, confidence)
            removed += ship()
            assert _matrix_signature(mirror.get_matrix(MATRIX)) == _matrix_signature(
                schema_rdf.rdf_to_matrix(mirror.store, MATRIX))
            assert mirror.get_matrix(MATRIX).peek(*pair).confidence == confidence
        assert removed
        assert mirror.get_matrix(MATRIX).cell_count() == 1
        stats = mirror.stats()
        assert (stats["matrix_view_hits"], stats["matrix_view_misses"]) == (3, 3)
        primary.close()

    def test_a_link_to_another_schemas_element_keeps_no_view(self):
        """Two schemas' reads can share a subject only through a link to
        a non-canonical element IRI; such a read keeps no view, so a
        change to the shared element cannot leave a stale one behind."""
        board = IntegrationBlackboard()
        board.put_schema(_schema(SOURCE))
        board.put_schema(_schema(TARGET))
        shared = schema_rdf.element_iri(TARGET, f"{TARGET}/items")
        board.store.add(schema_rdf.schema_iri(SOURCE), V.HAS_ELEMENT, shared)
        board.get_schema(SOURCE)
        board.get_schema(TARGET)
        board.store.set_value(shared, V.NAME, literal("renamed"))
        for name in (SOURCE, TARGET):
            assert _graph_signature(board.get_schema(name)) == _graph_signature(
                schema_rdf.rdf_to_schema(board.store, name))

    def test_views_keep_no_reference_cycle(self):
        """The store's change listener holds the blackboard weakly, so a
        dropped blackboard is freed at once, not by the cyclic GC."""
        store_holder = []
        gc.disable()
        try:
            board = IntegrationBlackboard()
            board.put_schema(_schema(SOURCE))
            board.get_schema(SOURCE)
            store_holder.append(board.store)
            ref = weakref.ref(board)
            del board
            assert ref() is None
        finally:
            gc.enable()
        # the orphaned listener of the freed blackboard is harmless
        store_holder[0].add(schema_rdf.schema_iri(SOURCE), V.NAME, literal("x"))
