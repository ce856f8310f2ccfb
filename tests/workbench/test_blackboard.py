"""Tests for the integration blackboard (Section 5.1)."""

import pytest

from repro.core import MappingMatrix, StoreError
from repro.harmony import EngineConfig, HarmonyEngine
from repro.rdf import literal, matrix_iri, schema_iri
from repro.rdf import vocabulary as V
from repro.workbench import IntegrationBlackboard, MatcherTool, WorkbenchManager


class TestSchemas:
    def test_put_get_roundtrip(self, purchase_order_graph):
        blackboard = IntegrationBlackboard()
        blackboard.put_schema(purchase_order_graph)
        restored = blackboard.get_schema("po")
        assert sorted(restored.element_ids) == sorted(purchase_order_graph.element_ids)

    def test_put_replaces(self, purchase_order_graph):
        blackboard = IntegrationBlackboard()
        blackboard.put_schema(purchase_order_graph)
        modified = purchase_order_graph.copy()
        modified.element("po/purchaseOrder").documentation = "Updated."
        blackboard.put_schema(modified)
        assert blackboard.get_schema("po").element("po/purchaseOrder").documentation == "Updated."
        assert blackboard.schema_names() == ["po"]

    def test_remove_schema_clears_triples(self, purchase_order_graph):
        blackboard = IntegrationBlackboard()
        blackboard.put_schema(purchase_order_graph)
        triples_before = len(blackboard.store)
        removed = blackboard.remove_schema("po")
        assert removed == triples_before
        assert len(blackboard.store) == 0
        assert not blackboard.has_schema("po")

    def test_schema_names_sorted(self, purchase_order_graph, shipping_notice_graph):
        blackboard = IntegrationBlackboard()
        blackboard.put_schema(shipping_notice_graph)
        blackboard.put_schema(purchase_order_graph)
        assert blackboard.schema_names() == ["po", "sn"]

    @pytest.mark.parametrize("delta", [False, True])
    def test_put_schema_ignores_a_corrupted_neighbour(
            self, purchase_order_graph, shipping_notice_graph, delta):
        """A second ``iw:name`` on schema "sn" makes listing every schema
        raise; writing and finding schema "po" reads only po's own
        triples, so both still work."""
        blackboard = IntegrationBlackboard()
        blackboard.put_schema(purchase_order_graph)
        blackboard.put_schema(shipping_notice_graph)
        blackboard.store.add(schema_iri("sn"), V.NAME, literal("sn-too"))
        with pytest.raises(StoreError):
            blackboard.schema_names()

        modified = purchase_order_graph.copy()
        modified.element("po/purchaseOrder").documentation = "Updated."
        blackboard.put_schema(modified, delta=delta)
        assert blackboard.has_schema("po")
        assert not blackboard.has_schema("nowhere")
        assert blackboard.get_schema("po").element(
            "po/purchaseOrder").documentation == "Updated."


class TestMatrices:
    def test_put_get_roundtrip(self, figure3_matrix):
        blackboard = IntegrationBlackboard()
        blackboard.put_matrix(figure3_matrix)
        restored = blackboard.get_matrix(figure3_matrix.name)
        assert len(list(restored.cells())) == len(list(figure3_matrix.cells()))

    def test_update_cell_direct(self, figure3_matrix):
        blackboard = IntegrationBlackboard()
        blackboard.put_matrix(figure3_matrix)
        blackboard.update_cell(
            figure3_matrix.name, "po/purchaseOrder/shipTo", "sn/shippingInfo",
            1.0, user_defined=True)
        confidence, user = blackboard.cell_confidence(
            figure3_matrix.name, "po/purchaseOrder/shipTo", "sn/shippingInfo")
        assert confidence == 1.0 and user is True

    def test_cell_confidence_missing(self):
        blackboard = IntegrationBlackboard()
        assert blackboard.cell_confidence("m", "a", "b") is None

    def test_axis_annotations(self, figure3_matrix):
        blackboard = IntegrationBlackboard()
        blackboard.put_matrix(figure3_matrix)
        blackboard.set_row_variable(figure3_matrix.name, "po/purchaseOrder/shipTo", "$s2")
        blackboard.set_column_code(figure3_matrix.name, "sn/shippingInfo/total", "$x * 2")
        blackboard.set_matrix_code(figure3_matrix.name, "full mapping")
        restored = blackboard.get_matrix(figure3_matrix.name)
        assert restored.row("po/purchaseOrder/shipTo").variable_name == "$s2"
        assert restored.column("sn/shippingInfo/total").code == "$x * 2"
        assert restored.code == "full mapping"

    def test_remove_matrix(self, figure3_matrix):
        blackboard = IntegrationBlackboard()
        blackboard.put_matrix(figure3_matrix)
        blackboard.remove_matrix(figure3_matrix.name)
        assert blackboard.matrix_names() == []
        assert len(blackboard.store) == 0

    def test_has_matrix_ignores_a_corrupted_neighbour(
            self, purchase_order_graph, shipping_notice_graph, figure3_matrix):
        """A second ``iw:name`` on matrix "b" makes listing every matrix
        raise; finding matrix "po->sn" and matching into it read only
        its own triples, so both still work."""
        manager = WorkbenchManager()
        manager.register(MatcherTool(HarmonyEngine(config=EngineConfig.fast())))
        blackboard = manager.blackboard
        blackboard.put_schema(purchase_order_graph)
        blackboard.put_schema(shipping_notice_graph)
        manager.invoke("harmony", source_schema="po", target_schema="sn")
        neighbour = figure3_matrix.copy()
        neighbour.name = "b"
        blackboard.put_matrix(neighbour)
        blackboard.store.add(matrix_iri("b"), V.NAME, literal("b-too"))
        with pytest.raises(StoreError):
            blackboard.matrix_names()

        assert blackboard.has_matrix("po->sn")
        assert not blackboard.has_matrix("nowhere")
        matrix = manager.invoke("harmony", source_schema="po", target_schema="sn")
        assert matrix.cell_count() == blackboard.get_matrix("po->sn").cell_count()

    def test_repr_ignores_corrupted_names(
            self, purchase_order_graph, shipping_notice_graph, figure3_matrix):
        """repr counts typed subjects and reads no name, so a schema and a
        matrix with two names each cannot make it raise."""
        blackboard = IntegrationBlackboard()
        blackboard.put_schema(purchase_order_graph)
        blackboard.put_schema(shipping_notice_graph)
        blackboard.put_matrix(figure3_matrix)
        blackboard.store.add(schema_iri("sn"), V.NAME, literal("sn-too"))
        blackboard.store.add(
            matrix_iri(figure3_matrix.name), V.NAME, literal("other"))
        with pytest.raises(StoreError):
            blackboard.schema_names()
        with pytest.raises(StoreError):
            blackboard.matrix_names()
        assert repr(blackboard) == (
            f"IntegrationBlackboard(schemas=2, matrices=1, "
            f"triples={len(blackboard.store)})")


class TestFocus:
    def test_focus_shared(self):
        """Section 5.1.3: focus context shared across tools."""
        blackboard = IntegrationBlackboard()
        assert blackboard.get_focus() is None
        blackboard.set_focus("po/purchaseOrder/shipTo")
        assert blackboard.get_focus() == "po/purchaseOrder/shipTo"
        blackboard.set_focus("other")
        assert blackboard.get_focus() == "other"
        blackboard.set_focus(None)
        assert blackboard.get_focus() is None


class TestDurability:
    def test_dumps_loads_roundtrip(self, purchase_order_graph, figure3_matrix):
        blackboard = IntegrationBlackboard()
        blackboard.put_schema(purchase_order_graph)
        blackboard.put_matrix(figure3_matrix)
        blackboard.set_focus("po/purchaseOrder")
        restored = IntegrationBlackboard.loads(blackboard.dumps())
        assert restored.schema_names() == ["po"]
        assert restored.matrix_names() == [figure3_matrix.name]
        assert restored.get_focus() == "po/purchaseOrder"

    def test_save_load_file(self, tmp_path, purchase_order_graph):
        blackboard = IntegrationBlackboard()
        blackboard.put_schema(purchase_order_graph)
        path = str(tmp_path / "ib.nt")
        blackboard.save(path)
        restored = IntegrationBlackboard.load(path)
        assert restored.schema_names() == ["po"]
        # shared across workbench instances: both see the same contents
        assert len(restored.store) == len(blackboard.store)
