"""Tests for schema/matrix ↔ RDF conversions (the IB's triple layout)."""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ElementKind, SchemaElement, SchemaGraph, StoreError
from repro.rdf import (
    TripleStore,
    cell_iri,
    element_iri,
    matrices_in_store,
    matrix_to_rdf,
    matrix_triples,
    rdf_to_matrix,
    rdf_to_schema,
    remove_matrix,
    remove_schema,
    reset_serialization_stats,
    schema_to_rdf,
    schema_triples,
    schemas_in_store,
    serialization_stats,
    serialize_matrix,
    serialize_schema,
)
from repro.core import MappingMatrix


_READ_BACK = """
import json, sys
from repro.workbench import IntegrationBlackboard
board = IntegrationBlackboard.load(sys.argv[1])
graph = board.get_schema(sys.argv[2])
matrix = board.get_matrix(sys.argv[3])
print(json.dumps([
    [[eid, [str(e) for e in graph.out_edges(eid)],
      [str(e) for e in graph.in_edges(eid)]] for eid in graph.element_ids],
    matrix.row_ids, matrix.column_ids, [list(c.pair) for c in matrix.cells()],
]))
"""


class TestStableReadOrder:
    def test_reads_do_not_depend_on_the_hash_seed(self, tmp_path):
        """The same N-Triples blackboard reads back identically — element,
        edge, row, column and cell order — under two hash seeds (blocking
        pads candidates in element order, so this keeps matches equal
        across processes)."""
        from repro.workbench import IntegrationBlackboard

        graph = _evolution_graph(3, size=40, name="seeded")
        for seed in range(8):
            _mutate(graph, seed)
        target = _evolution_graph(4, size=30, name="other")
        matrix = MappingMatrix.from_schemas(graph, target)
        for index, (row, column) in enumerate(
                zip(matrix.row_ids * 2, matrix.column_ids * 3)):
            matrix.set_confidence(row, column, (index % 9) / 10)
        board = IntegrationBlackboard()
        board.put_schema(graph)
        board.put_matrix(matrix)
        path = str(tmp_path / "board.nt")
        board.save(path)

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

        def read(seed):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", _READ_BACK, path, graph.name, matrix.name],
                env=env, capture_output=True, text=True, check=True)
            return json.loads(out.stdout)

        first, second = read(1), read(2)
        assert first == second
        assert [row[0] for row in first[0]] == sorted(graph.element_ids)


class TestSchemaRoundtrip:
    def test_structure_preserved(self, purchase_order_graph):
        store = TripleStore()
        schema_to_rdf(purchase_order_graph, store)
        restored = rdf_to_schema(store, "po")
        assert sorted(restored.element_ids) == sorted(purchase_order_graph.element_ids)
        assert restored.edges == purchase_order_graph.edges

    def test_element_metadata_preserved(self, purchase_order_graph):
        store = TripleStore()
        schema_to_rdf(purchase_order_graph, store)
        restored = rdf_to_schema(store, "po")
        original = purchase_order_graph.element("po/purchaseOrder/shipTo/subtotal")
        element = restored.element("po/purchaseOrder/shipTo/subtotal")
        assert element.name == original.name
        assert element.kind is ElementKind.ATTRIBUTE
        assert element.datatype == "decimal"
        assert element.documentation == original.documentation

    def test_annotations_roundtrip(self):
        graph = SchemaGraph.create("s")
        element = SchemaElement("s/a", "a", ElementKind.ATTRIBUTE)
        element.annotate("nullable", True)
        element.annotate("units", "feet")
        graph.add_child("s", element)
        store = TripleStore()
        schema_to_rdf(graph, store)
        restored = rdf_to_schema(store, "s")
        assert restored.element("s/a").annotation("nullable") is True
        assert restored.element("s/a").annotation("units") == "feet"

    def test_special_characters_in_ids(self):
        graph = SchemaGraph.create("my schema")
        graph.add_child(
            "my schema",
            SchemaElement("my schema/T#1", "T#1", ElementKind.TABLE),
            label="contains-element",
        )
        store = TripleStore()
        schema_to_rdf(graph, store)
        restored = rdf_to_schema(store, "my schema")
        assert "my schema/T#1" in restored

    def test_schemas_in_store(self, purchase_order_graph, shipping_notice_graph):
        store = TripleStore()
        schema_to_rdf(purchase_order_graph, store)
        schema_to_rdf(shipping_notice_graph, store)
        assert schemas_in_store(store) == ["po", "sn"]

    def test_missing_schema_raises(self):
        with pytest.raises(StoreError):
            rdf_to_schema(TripleStore(), "ghost")


class TestMatrixRoundtrip:
    def test_figure3_roundtrip(self, figure3_matrix):
        store = TripleStore()
        matrix_to_rdf(figure3_matrix, store)
        restored = rdf_to_matrix(store, figure3_matrix.name)
        assert sorted(restored.row_ids) == sorted(figure3_matrix.row_ids)
        assert sorted(restored.column_ids) == sorted(figure3_matrix.column_ids)
        for cell in figure3_matrix.cells():
            restored_cell = restored.cell(cell.source_id, cell.target_id)
            assert restored_cell.confidence == pytest.approx(cell.confidence)
            assert restored_cell.is_user_defined == cell.is_user_defined

    def test_annotations_roundtrip(self, figure3_matrix):
        store = TripleStore()
        matrix_to_rdf(figure3_matrix, store)
        restored = rdf_to_matrix(store, figure3_matrix.name)
        assert restored.row("po/purchaseOrder/shipTo").variable_name == "$shipto"
        assert "concat" in restored.column("sn/shippingInfo/name").code
        assert restored.code == figure3_matrix.code

    def test_completion_flags_roundtrip(self, figure3_matrix):
        figure3_matrix.mark_row_complete("po/purchaseOrder/shipTo/firstName")
        store = TripleStore()
        matrix_to_rdf(figure3_matrix, store)
        restored = rdf_to_matrix(store, figure3_matrix.name)
        assert restored.row("po/purchaseOrder/shipTo/firstName").is_complete
        assert not restored.row("po/purchaseOrder/shipTo").is_complete

    def test_matrices_in_store(self, figure3_matrix):
        store = TripleStore()
        matrix_to_rdf(figure3_matrix, store)
        assert matrices_in_store(store) == [figure3_matrix.name]

    def test_missing_matrix_raises(self):
        with pytest.raises(StoreError):
            rdf_to_matrix(TripleStore(), "ghost")

    def test_full_serialization_roundtrip(self, figure3_matrix, purchase_order_graph):
        """Schema + matrix survive a trip through N-Triples text."""
        from repro.rdf import from_ntriples, to_ntriples

        store = TripleStore()
        schema_to_rdf(purchase_order_graph, store)
        matrix_to_rdf(figure3_matrix, store)
        restored_store = from_ntriples(to_ntriples(store))
        restored = rdf_to_matrix(restored_store, figure3_matrix.name)
        assert len(list(restored.cells())) == len(list(figure3_matrix.cells()))


def _store_state(store):
    return set(store)


def _matrix_state(matrix):
    return {
        (c.source_id, c.target_id): (c.confidence, c.is_user_defined)
        for c in matrix.cells()
    }


class TestMatrixIdempotence:
    def test_reserialize_is_idempotent(self, figure3_matrix):
        """Regression: re-serializing used to append without clearing."""
        store = TripleStore()
        matrix_to_rdf(figure3_matrix, store)
        first = _store_state(store)
        matrix_to_rdf(figure3_matrix, store)
        assert _store_state(store) == first

    def test_reserialize_after_rematch_drops_stale_cells(self, figure3_matrix):
        """serialize → change cells → re-serialize → read back equality."""
        store = TripleStore()
        matrix_to_rdf(figure3_matrix, store)
        # a rematch moves one confidence and abandons a whole row
        figure3_matrix.set_confidence(
            "po/purchaseOrder/shipTo", "sn/shippingInfo", 0.95
        )
        removed_row = "po/purchaseOrder/shipTo/firstName"
        figure3_matrix.remove_row(removed_row)
        matrix_to_rdf(figure3_matrix, store)
        restored = rdf_to_matrix(store, figure3_matrix.name)
        assert _matrix_state(restored) == _matrix_state(figure3_matrix)
        stale = cell_iri(figure3_matrix.name, removed_row, "sn/shippingInfo")
        assert not list(store.match(subject=stale))

    def test_remove_matrix(self, figure3_matrix):
        store = TripleStore()
        matrix_to_rdf(figure3_matrix, store)
        removed = remove_matrix(store, figure3_matrix.name)
        assert removed > 0
        assert matrices_in_store(store) == []
        assert len(store) == 0
        assert remove_matrix(store, figure3_matrix.name) == 0

    def test_remove_matrix_strips_inbound_annotations(self, figure3_matrix):
        from repro.rdf import IW_NS, literal

        store = TripleStore()
        matrix_to_rdf(figure3_matrix, store)
        target = cell_iri(
            figure3_matrix.name, "po/purchaseOrder/shipTo", "sn/shippingInfo"
        )
        store.add(IW_NS.term("note"), IW_NS.term("about"), target)
        remove_matrix(store, figure3_matrix.name)
        assert not list(store.match(obj=target))


class TestSerializeMatrix:
    def test_matrix_triples_matches_matrix_to_rdf(self, figure3_matrix):
        store = TripleStore()
        matrix_to_rdf(figure3_matrix, store)
        assert set(matrix_triples(figure3_matrix)) == _store_state(store)

    def test_bulk_equals_matrix_to_rdf(self, figure3_matrix):
        bulk_store, legacy_store = TripleStore(), TripleStore()
        serialize_matrix(figure3_matrix, bulk_store)
        matrix_to_rdf(figure3_matrix, legacy_store)
        assert _store_state(bulk_store) == _store_state(legacy_store)

    def test_delta_equals_bulk_final_state(self, figure3_matrix):
        bulk_store, delta_store = TripleStore(), TripleStore()
        serialize_matrix(figure3_matrix, delta_store, delta=True)  # cold delta
        figure3_matrix.set_confidence(
            "po/purchaseOrder/shipTo", "sn/shippingInfo", 0.95
        )
        figure3_matrix.remove_row("po/purchaseOrder/shipTo/firstName")
        serialize_matrix(figure3_matrix, bulk_store)
        serialize_matrix(figure3_matrix, delta_store, delta=True)
        assert _store_state(delta_store) == _store_state(bulk_store)
        restored = rdf_to_matrix(delta_store, figure3_matrix.name)
        assert _matrix_state(restored) == _matrix_state(figure3_matrix)

    def test_delta_touches_only_changed_cells(self, figure3_matrix):
        store = TripleStore()
        serialize_matrix(figure3_matrix, store, delta=True)
        reset_serialization_stats()
        figure3_matrix.set_confidence(
            "po/purchaseOrder/shipTo", "sn/shippingInfo", 0.95
        )
        serialize_matrix(figure3_matrix, store, delta=True)
        stats = serialization_stats()
        assert stats["matrix_delta_serializations"] == 1
        # one confidence literal replaced: one removal, one write
        assert stats["matrix_triples_removed"] == 1
        assert stats["matrix_triples_written"] == 1
        assert stats["matrix_triples_unchanged"] > 0

    def test_delta_noop_writes_nothing(self, figure3_matrix):
        store = TripleStore()
        serialize_matrix(figure3_matrix, store, delta=True)
        revision = store.revision
        serialize_matrix(figure3_matrix, store, delta=True)
        assert store.revision == revision

    def test_delta_preserves_inbound_annotations(self, figure3_matrix):
        """Unlike the bulk path, delta keeps triples pointing at parts."""
        from repro.rdf import IW_NS

        store = TripleStore()
        serialize_matrix(figure3_matrix, store, delta=True)
        target = cell_iri(
            figure3_matrix.name, "po/purchaseOrder/shipTo", "sn/shippingInfo"
        )
        note = (IW_NS.term("note"), IW_NS.term("about"), target)
        store.add(*note)
        figure3_matrix.set_confidence(
            "po/purchaseOrder/shipTo", "sn/shippingInfo", 0.95
        )
        serialize_matrix(figure3_matrix, store, delta=True)
        assert list(store.match(obj=target))

    def test_bulk_counters(self, figure3_matrix):
        reset_serialization_stats()
        store = TripleStore()
        serialize_matrix(figure3_matrix, store)
        stats = serialization_stats()
        assert stats["matrix_bulk_serializations"] == 1
        assert stats["matrix_triples_written"] == len(store)


# -- serialize_schema: bulk + O(delta) ----------------------------------------


def _evolution_graph(seed, size=12, name="ev"):
    rng = random.Random(seed)
    graph = SchemaGraph.create(name)
    ids = [name]
    for i in range(size):
        element = SchemaElement(
            f"{name}/e{i}",
            f"elem{i}",
            ElementKind.ATTRIBUTE if i % 2 else ElementKind.ENTITY,
            datatype=rng.choice(["string", "decimal", None]),
            documentation=rng.choice(["documented field", None]),
        )
        if rng.random() < 0.5:
            element.annotate("nullable", rng.random() < 0.5)
        graph.add_child(rng.choice(ids), element)
        ids.append(element.element_id)
    return graph


def _mutate(graph, seed):
    """One seeded evolution step: add/remove/retype/redocument/re-edge."""
    rng = random.Random(seed)
    ids = [e for e in graph.element_ids if graph.element(e).kind is not ElementKind.SCHEMA]
    op = rng.randrange(6)
    if op == 0 or not ids:
        new_id = f"{graph.name}/new{seed}"
        while new_id in graph:
            new_id += "x"
        graph.add_child(
            rng.choice(graph.element_ids),
            SchemaElement(new_id, f"added{seed}", ElementKind.ATTRIBUTE),
        )
    elif op == 1 and len(ids) > 1:
        graph.remove_element(rng.choice(ids))
    elif op == 2:
        graph.element(rng.choice(ids)).name = f"renamed{seed}"
    elif op == 3:
        graph.element(rng.choice(ids)).datatype = rng.choice(["string", "int", None])
    elif op == 4:
        graph.element(rng.choice(ids)).documentation = rng.choice(
            [f"docs {seed}", None]
        )
    else:
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b:
            graph.add_edge(a, "references", b)
    return graph


class TestSerializeSchema:
    def test_schema_triples_matches_schema_to_rdf(self, purchase_order_graph):
        store = TripleStore()
        schema_to_rdf(purchase_order_graph, store)
        assert set(schema_triples(purchase_order_graph)) == _store_state(store)

    def test_bulk_and_delta_cold_writes_match(self, purchase_order_graph):
        bulk_store = TripleStore()
        schema_to_rdf(purchase_order_graph, bulk_store)
        serialized = TripleStore()
        serialize_schema(purchase_order_graph, serialized)
        delta_store = TripleStore()
        serialize_schema(purchase_order_graph, delta_store, delta=True)
        assert _store_state(bulk_store) == _store_state(serialized)
        assert _store_state(bulk_store) == _store_state(delta_store)

    def test_reserialize_is_idempotent(self, purchase_order_graph):
        store = TripleStore()
        serialize_schema(purchase_order_graph, store)
        before = _store_state(store)
        serialize_schema(purchase_order_graph, store)
        assert _store_state(store) == before
        serialize_schema(purchase_order_graph, store, delta=True)
        assert _store_state(store) == before

    def test_unchanged_delta_materializes_zero_triples(
        self, purchase_order_graph, monkeypatch
    ):
        """Regression: an unchanged re-serialize must never build a Triple."""
        from repro.rdf import schema_rdf as schema_rdf_mod

        store = TripleStore()
        serialize_schema(purchase_order_graph, store)
        counter = {"built": 0}
        real_triple = schema_rdf_mod.Triple

        def counting_triple(*args, **kwargs):
            counter["built"] += 1
            return real_triple(*args, **kwargs)

        counting_triple.sort_key = real_triple.sort_key
        monkeypatch.setattr(schema_rdf_mod, "Triple", counting_triple)
        serialize_schema(
            purchase_order_graph, store, delta=True, previous=purchase_order_graph
        )
        assert counter["built"] == 0

    def test_delta_with_previous_touches_only_dirty_subjects(self):
        graph = _evolution_graph(7)
        store = TripleStore()
        serialize_schema(graph, store)
        evolved = graph.copy()
        evolved.element(f"{graph.name}/e3").documentation = "fresh docs"
        reset_serialization_stats()
        serialize_schema(evolved, store, delta=True, previous=graph)
        stats = serialization_stats()
        assert stats["schema_delta_serializations"] == 1
        assert stats["schema_triples_written"] == 1
        assert stats["schema_triples_removed"] <= 1
        reference = TripleStore()
        schema_to_rdf(evolved, reference)
        assert _store_state(store) == _store_state(reference)

    def test_delta_preserves_inbound_annotations(self):
        from repro.rdf.namespace import IW_NS

        graph = _evolution_graph(9)
        store = TripleStore()
        serialize_schema(graph, store)
        target = element_iri(graph.name, f"{graph.name}/e2")
        note = (IW_NS.term("note"), IW_NS.term("about"), target)
        store.add(*note)
        evolved = graph.copy()
        evolved.element(f"{graph.name}/e2").name = "renamed"
        serialize_schema(evolved, store, delta=True, previous=graph)
        assert list(store.match(obj=target))

    def test_delta_cleans_inbound_to_removed_elements(self):
        from repro.rdf.namespace import IW_NS

        graph = _evolution_graph(11)
        store = TripleStore()
        serialize_schema(graph, store)
        doomed = f"{graph.name}/e5"
        target = element_iri(graph.name, doomed)
        store.add(IW_NS.term("note"), IW_NS.term("about"), target)
        evolved = graph.copy()
        evolved.remove_element(doomed)
        serialize_schema(evolved, store, delta=True, previous=graph)
        assert not list(store.match(obj=target))
        reference = TripleStore()
        schema_to_rdf(evolved, reference)
        assert _store_state(store) == _store_state(reference)

    def test_stale_previous_name_falls_back_to_full_diff(self):
        graph = _evolution_graph(13)
        other = _evolution_graph(14, name="other")
        store = TripleStore()
        serialize_schema(graph, store)
        evolved = graph.copy()
        evolved.element(f"{graph.name}/e1").name = "renamed"
        serialize_schema(evolved, store, delta=True, previous=other)
        reference = TripleStore()
        schema_to_rdf(evolved, reference)
        assert _store_state(store) == _store_state(reference)

    def test_remove_schema_helper_strips_everything(self, purchase_order_graph):
        store = TripleStore()
        serialize_schema(purchase_order_graph, store)
        removed = remove_schema(store, purchase_order_graph.name)
        assert removed == len(schema_triples(purchase_order_graph))
        assert len(store) == 0
        assert remove_schema(store, purchase_order_graph.name) == 0

    def test_bulk_counters(self):
        graph = _evolution_graph(15)
        reset_serialization_stats()
        store = TripleStore()
        serialize_schema(graph, store)
        stats = serialization_stats()
        assert stats["schema_bulk_serializations"] == 1
        assert stats["schema_triples_written"] == len(store)
        assert stats["schema_triples_removed"] == 0

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_evolution_chain_delta_equals_from_scratch(self, seed, steps):
        """Delta-serializing each evolution step lands the exact triple
        set a from-scratch ``schema_to_rdf`` of that version produces."""
        graph = _evolution_graph(seed)
        store = TripleStore()
        serialize_schema(graph, store)
        for step_seed in steps:
            previous = graph.copy()
            _mutate(graph, step_seed)
            serialize_schema(graph, store, delta=True, previous=previous)
            reference = TripleStore()
            schema_to_rdf(graph, reference)
            assert _store_state(store) == _store_state(reference)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_evolution_chain_without_previous(self, seed, steps):
        """The delta path reconciles correctly even with no *previous*
        narrowing — every subject is diffed, same final state."""
        graph = _evolution_graph(seed)
        store = TripleStore()
        serialize_schema(graph, store)
        for step_seed in steps:
            _mutate(graph, step_seed)
            serialize_schema(graph, store, delta=True)
            reference = TripleStore()
            schema_to_rdf(graph, reference)
            assert _store_state(store) == _store_state(reference)

    def test_roundtrip_after_delta_chain(self):
        graph = _evolution_graph(21)
        store = TripleStore()
        serialize_schema(graph, store)
        for step_seed in (1, 2, 3, 4, 5):
            previous = graph.copy()
            _mutate(graph, step_seed)
            serialize_schema(graph, store, delta=True, previous=previous)
        restored = rdf_to_schema(store, graph.name)
        assert sorted(restored.element_ids) == sorted(graph.element_ids)
        assert restored.edges == graph.edges
