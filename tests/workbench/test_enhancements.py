"""Tests for the Section 5.1.3 enhancements: queries, provenance,
versioning, and the mapping library."""

import pytest

from repro.core import ElementKind, MappingMatrix, SchemaElement, SchemaGraph
from repro.workbench import (
    IntegrationBlackboard,
    MappingLibrary,
    ProvenanceLog,
    SchemaVersionStore,
    diff_schemas,
    elements_of_kind,
    matrix_progress,
    strong_cells,
    undocumented_elements,
    user_decided_cells,
)


class TestCannedQueries:
    def test_strong_cells(self, figure3_matrix):
        blackboard = IntegrationBlackboard()
        blackboard.put_matrix(figure3_matrix)
        rows = strong_cells(blackboard.store, figure3_matrix.name, threshold=0.5)
        assert len(rows) == 4  # the 0.8 suggestion plus three accepted +1 cells
        assert rows[0][1] == 1.0  # sorted strongest first

    def test_strong_cells_order_is_total(self):
        """Ties are listed by cell IRI, so two stores holding the same
        cells, written in different orders, return identical lists."""
        cells = [(f"s/e{i}", f"t/e{i}", 0.8) for i in range(6)]
        cells.append(("s/e0", "t/e1", 0.9))
        answers = []
        for order in (cells, cells[::-1]):
            matrix = MappingMatrix("m")
            for source_id, target_id, _ in order:
                matrix.add_row(source_id)
                matrix.add_column(target_id)
            matrix.set_cells(order)
            blackboard = IntegrationBlackboard()
            blackboard.put_matrix(matrix)
            answers.append(strong_cells(blackboard.store, "m"))
        assert answers[0] == answers[1]
        assert [confidence for _, confidence in answers[0]] == [0.9] + [0.8] * 6
        assert answers[0] == sorted(answers[0], key=lambda row: (-row[1], row[0]))

    def test_user_decided_cells(self, figure3_matrix):
        blackboard = IntegrationBlackboard()
        blackboard.put_matrix(figure3_matrix)
        decided = user_decided_cells(blackboard.store, figure3_matrix.name)
        assert len(decided) == 9

    def test_undocumented_elements(self, orders_graph):
        blackboard = IntegrationBlackboard()
        blackboard.put_schema(orders_graph)
        names = undocumented_elements(blackboard.store, "orders")
        assert "status" in names            # no comment in the DDL
        assert "first_name" not in names    # documented

    def test_elements_of_kind(self, orders_graph):
        blackboard = IntegrationBlackboard()
        blackboard.put_schema(orders_graph)
        assert elements_of_kind(blackboard.store, "orders", "table") == [
            "customer", "purchase_order",
        ]

    def test_matrix_progress_query(self, figure3_matrix):
        figure3_matrix.mark_row_complete("po/purchaseOrder/shipTo/subtotal")
        blackboard = IntegrationBlackboard()
        blackboard.put_matrix(figure3_matrix)
        progress = matrix_progress(blackboard.store, figure3_matrix.name)
        assert progress == pytest.approx(figure3_matrix.progress())


class TestProvenance:
    def test_matrix_history_ordered(self, figure3_matrix):
        blackboard = IntegrationBlackboard()
        blackboard.put_matrix(figure3_matrix)
        log = ProvenanceLog(blackboard.store)
        log.record_matrix(figure3_matrix.name, "harmony")
        log.record_matrix(figure3_matrix.name, "mapper")
        log.record_matrix(figure3_matrix.name, "codegen")
        history = log.history(figure3_matrix.name)
        assert [tool for tool, _ in history] == ["harmony", "mapper", "codegen"]
        ticks = [tick for _, tick in history]
        assert ticks == sorted(ticks)

    def test_cell_history(self, figure3_matrix):
        blackboard = IntegrationBlackboard()
        blackboard.put_matrix(figure3_matrix)
        log = ProvenanceLog(blackboard.store)
        log.record_cell(figure3_matrix.name, "po/purchaseOrder/shipTo",
                        "sn/shippingInfo", "harmony")
        log.record_cell(figure3_matrix.name, "po/purchaseOrder/shipTo",
                        "sn/shippingInfo", "engineer")
        history = log.cell_history(
            figure3_matrix.name, "po/purchaseOrder/shipTo", "sn/shippingInfo")
        assert [tool for tool, _ in history] == ["harmony", "engineer"]

    def test_derivation(self, figure3_matrix):
        blackboard = IntegrationBlackboard()
        blackboard.put_matrix(figure3_matrix)
        log = ProvenanceLog(blackboard.store)
        log.record_matrix(figure3_matrix.name, "library", derived_from="old-mapping")
        assert log.derived_from(figure3_matrix.name) == ["old-mapping"]

    def test_provenance_survives_serialization(self, figure3_matrix):
        blackboard = IntegrationBlackboard()
        blackboard.put_matrix(figure3_matrix)
        ProvenanceLog(blackboard.store).record_matrix(figure3_matrix.name, "harmony")
        restored = IntegrationBlackboard.loads(blackboard.dumps())
        history = ProvenanceLog(restored.store).history(figure3_matrix.name)
        assert [tool for tool, _ in history] == ["harmony"]


class TestVersioning:
    def _v1(self) -> SchemaGraph:
        graph = SchemaGraph.create("s")
        graph.add_child("s", SchemaElement("s/T", "T", ElementKind.TABLE),
                        label="contains-element")
        graph.add_child("s/T", SchemaElement("s/T/a", "a", ElementKind.ATTRIBUTE,
                                             datatype="string", documentation="Doc A."))
        graph.add_child("s/T", SchemaElement("s/T/b", "b", ElementKind.ATTRIBUTE))
        return graph

    def _v2(self) -> SchemaGraph:
        graph = self._v1()
        graph.remove_element("s/T/b")
        graph.element("s/T/a").datatype = "integer"
        graph.element("s/T/a").documentation = "Doc A, revised."
        graph.add_child("s/T", SchemaElement("s/T/c", "c", ElementKind.ATTRIBUTE))
        return graph

    def test_diff(self):
        diff = diff_schemas(self._v1(), self._v2())
        assert diff.added == ["s/T/c"]
        assert diff.removed == ["s/T/b"]
        assert diff.retyped == [("s/T/a", "string", "integer")]
        assert diff.redocumented == ["s/T/a"]
        assert "s/T/a" in diff.affected_ids()

    def test_diff_empty_for_identical(self):
        diff = diff_schemas(self._v1(), self._v1())
        assert diff.is_empty

    def test_rename_detected(self):
        v1 = self._v1()
        v2 = self._v1()
        v2.element("s/T/a").name = "alpha"
        diff = diff_schemas(v1, v2)
        assert diff.renamed == [("s/T/a", "a", "alpha")]

    def test_version_store_chain(self):
        blackboard = IntegrationBlackboard()
        store = SchemaVersionStore(blackboard)
        assert store.put_version(self._v1()) == 1
        assert store.put_version(self._v2()) == 2
        assert store.versions("s") == [1, 2]
        assert store.latest_version("s") == 2
        v1 = store.get_version("s", 1)
        assert "s/T/b" in v1
        latest = store.get_version("s")
        assert "s/T/c" in latest and latest.name == "s"

    def test_version_diff(self):
        blackboard = IntegrationBlackboard()
        store = SchemaVersionStore(blackboard)
        store.put_version(self._v1())
        store.put_version(self._v2())
        diff = store.diff("s", 1, 2)
        assert diff.added == ["s/T/c"]

    def test_missing_version_rejected(self):
        store = SchemaVersionStore(IntegrationBlackboard())
        with pytest.raises(KeyError):
            store.get_version("ghost")


class TestMappingLibrary:
    def _finished_matrix(self, name="m1") -> MappingMatrix:
        matrix = MappingMatrix(name)
        matrix.add_row("po/a")
        matrix.add_row("po/b")
        matrix.add_column("sn/x")
        matrix.add_column("sn/y")
        matrix.set_confidence("po/a", "sn/x", 1.0, user_defined=True)
        matrix.set_confidence("po/b", "sn/y", 1.0, user_defined=True)
        return matrix

    def test_add_and_find(self):
        library = MappingLibrary(IntegrationBlackboard())
        library.add(self._finished_matrix(), "po", "sn")
        assert len(library.entries()) == 1
        assert library.find(source_schema="po")[0].target_schema == "sn"
        assert library.find(source_schema="zzz") == []

    def test_warm_start_suggestions(self):
        """Past accepted links become high-confidence machine suggestions."""
        library = MappingLibrary(IntegrationBlackboard())
        library.add(self._finished_matrix(), "po", "sn")
        fresh = MappingMatrix("fresh")
        fresh.add_row("po/a")
        fresh.add_row("po/b")
        fresh.add_column("sn/x")
        fresh.add_column("sn/y")
        written = library.suggest_for("po", "sn", fresh)
        assert written == 2
        cell = fresh.cell("po/a", "sn/x")
        assert cell.confidence == pytest.approx(0.9)
        assert not cell.is_user_defined

    def test_warm_start_respects_decisions(self):
        library = MappingLibrary(IntegrationBlackboard())
        library.add(self._finished_matrix(), "po", "sn")
        fresh = MappingMatrix("fresh")
        fresh.add_row("po/a")
        fresh.add_column("sn/x")
        fresh.set_confidence("po/a", "sn/x", -1.0, user_defined=True)
        assert library.suggest_for("po", "sn", fresh) == 0
        assert fresh.cell("po/a", "sn/x").confidence == -1.0

    def test_composition(self):
        """A→B and B→C in the library compose to a candidate A→C."""
        blackboard = IntegrationBlackboard()
        library = MappingLibrary(blackboard)
        ab = MappingMatrix("ab")
        ab.add_row("a/1")
        ab.add_column("b/1")
        ab.set_confidence("a/1", "b/1", 0.9)
        bc = MappingMatrix("bc")
        bc.add_row("b/1")
        bc.add_column("c/1")
        bc.set_confidence("b/1", "c/1", 0.8)
        library.add(ab, "a", "b")
        library.add(bc, "b", "c")
        composed = library.compose("ab", "bc", name="ac")
        cell = composed.cell("a/1", "c/1")
        assert cell.confidence == pytest.approx(0.72)

    def test_composition_drops_nonpositive_links(self):
        blackboard = IntegrationBlackboard()
        library = MappingLibrary(blackboard)
        ab = MappingMatrix("ab")
        ab.add_row("a/1")
        ab.add_column("b/1")
        ab.set_confidence("a/1", "b/1", -0.5)
        bc = MappingMatrix("bc")
        bc.add_row("b/1")
        bc.add_column("c/1")
        bc.set_confidence("b/1", "c/1", 0.8)
        library.add(ab, "a", "b")
        library.add(bc, "b", "c")
        composed = library.compose("ab", "bc")
        assert list(composed.cells()) == []
