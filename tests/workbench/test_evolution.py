"""Tests for schema-evolution re-matching (§3.1, §5.1.3)."""

import pytest

from repro.core import ElementKind, MappingError, SchemaElement, SchemaGraph
from repro.core.matrix import MappingMatrix
from repro.workbench import (
    LoaderTool,
    MatcherTool,
    RematchReport,
    WorkbenchManager,
    apply_evolution,
    diff_schemas,
    evolve_and_rematch,
)
from repro.workbench.versioning import SchemaDiff


def _graph_v1() -> SchemaGraph:
    graph = SchemaGraph.create("s")
    graph.add_child("s", SchemaElement("s/T", "T", ElementKind.TABLE),
                    label="contains-element")
    for name in ("a", "b", "c"):
        graph.add_child("s/T", SchemaElement(
            f"s/T/{name}", name, ElementKind.ATTRIBUTE, datatype="string",
            documentation=f"Attribute {name}."))
    return graph


def _graph_v2() -> SchemaGraph:
    graph = _graph_v1()
    graph.remove_element("s/T/c")                       # removed
    graph.element("s/T/a").documentation = "Changed."   # redocumented
    graph.add_child("s/T", SchemaElement(
        "s/T/d", "d", ElementKind.ATTRIBUTE, datatype="string"))  # added
    return graph


def _matrix() -> MappingMatrix:
    matrix = MappingMatrix("m")
    for element_id in ("s/T", "s/T/a", "s/T/b", "s/T/c"):
        matrix.add_row(element_id, schema_name="s")
    for element_id in ("t/X", "t/X/p", "t/X/q"):
        matrix.add_column(element_id, schema_name="t")
    matrix.set_confidence("s/T/a", "t/X/p", 0.7)                       # machine
    matrix.set_confidence("s/T/b", "t/X/q", 1.0, user_defined=True)    # decided
    matrix.set_confidence("s/T/c", "t/X/p", 1.0, user_defined=True)    # decided, element dies
    matrix.mark_row_complete("s/T/a")
    return matrix


class TestApplyEvolution:
    def test_removed_elements_drop_axes_and_report_lost_decisions(self):
        matrix = _matrix()
        diff = diff_schemas(_graph_v1(), _graph_v2())
        report = apply_evolution(matrix, diff, side="source", schema_name="s")
        assert "s/T/c" in report.axes_removed
        assert ("s/T/c", "t/X/p") in report.decisions_lost
        assert "s/T/c" not in matrix.row_ids

    def test_added_elements_gain_axes(self):
        matrix = _matrix()
        diff = diff_schemas(_graph_v1(), _graph_v2())
        report = apply_evolution(matrix, diff, side="source", schema_name="s")
        assert "s/T/d" in report.axes_added
        assert "s/T/d" in matrix.row_ids

    def test_changed_elements_reset_machine_scores_only(self):
        matrix = _matrix()
        diff = diff_schemas(_graph_v1(), _graph_v2())
        report = apply_evolution(matrix, diff, side="source", schema_name="s")
        # a's machine suggestion reset; b's user decision kept
        assert matrix.cell("s/T/a", "t/X/p").confidence == 0.0
        assert ("s/T/a", "t/X/p") in report.suggestions_reset
        assert matrix.cell("s/T/b", "t/X/q").confidence == 1.0

    def test_completion_reopened_for_changed_elements(self):
        matrix = _matrix()
        diff = diff_schemas(_graph_v1(), _graph_v2())
        apply_evolution(matrix, diff, side="source", schema_name="s")
        assert not matrix.row("s/T/a").is_complete

    def test_target_side_evolution(self):
        matrix = _matrix()
        diff = SchemaDiff(removed=["t/X/q"], added=["t/X/r"])
        report = apply_evolution(matrix, diff, side="target", schema_name="t")
        assert "t/X/q" not in matrix.column_ids
        assert "t/X/r" in matrix.column_ids
        assert ("s/T/b", "t/X/q") in report.decisions_lost

    def test_empty_diff_is_noop(self):
        matrix = _matrix()
        before = matrix.to_text()
        report = apply_evolution(matrix, SchemaDiff(), side="source")
        assert not report.needs_rematch
        assert matrix.to_text() == before

    def test_invalid_side(self):
        with pytest.raises(MappingError):
            apply_evolution(_matrix(), SchemaDiff(), side="up")

    def test_report_text(self):
        matrix = _matrix()
        diff = diff_schemas(_graph_v1(), _graph_v2())
        report = apply_evolution(matrix, diff, side="source")
        text = report.to_text()
        assert "axes removed: 1" in text
        # "kept" counts decisions on *changed* elements; s/T/b's decision
        # survives but b itself did not change, so it is not listed
        assert "user decisions kept: 0" in text
        assert "decisions lost with removed elements: 1" in text


class TestEvolveAndRematch:
    def test_workbench_roundtrip(self, orders_ddl_text, notice_xsd_text):
        from repro.loaders import SqlDdlLoader, XsdLoader, load_sql

        manager = WorkbenchManager()
        manager.register(LoaderTool(SqlDdlLoader()))
        manager.register(LoaderTool(XsdLoader()))
        manager.register(MatcherTool())
        manager.invoke("load-sql", text=orders_ddl_text, schema_name="orders")
        manager.invoke("load-xsd", text=notice_xsd_text, schema_name="notice")
        matrix = manager.invoke("harmony", source_schema="orders",
                                target_schema="notice")
        # pin a decision that must survive evolution
        pinned = manager.blackboard.get_matrix(matrix.name)
        pinned.set_confidence("orders/customer/first_name",
                              "notice/shippingNotice/recipientName/firstName",
                              1.0, user_defined=True)
        manager.blackboard.put_matrix(pinned)

        old_graph = manager.blackboard.get_schema("orders")
        new_ddl = orders_ddl_text.replace(
            "status VARCHAR(10)",
            "status VARCHAR(10),\n    priority INTEGER  -- Order priority level.")
        new_graph = load_sql(new_ddl, "orders")
        report = evolve_and_rematch(
            manager, matrix.name, old_graph, new_graph,
            side="source", other_schema="notice")

        assert "orders/purchase_order/priority" in report.axes_added
        refreshed = manager.blackboard.get_matrix(matrix.name)
        assert "orders/purchase_order/priority" in refreshed.row_ids
        # the re-match scored the new attribute against the target
        new_cells = [
            c for c in refreshed.cells()
            if c.source_id == "orders/purchase_order/priority"
            and c.confidence != 0.0
        ]
        assert new_cells
        # the pinned decision survived
        kept = refreshed.cell("orders/customer/first_name",
                              "notice/shippingNotice/recipientName/firstName")
        assert kept.confidence == 1.0 and kept.is_user_defined
        # the new schema version is on the blackboard
        assert "priority" in [
            e.name for e in manager.blackboard.get_schema("orders")
        ]


def _graph_moved_attribute() -> SchemaGraph:
    """v1 with attribute ``c`` moved from table T to a new table U — a pure
    containment-edge rewire from c's point of view."""
    graph = _graph_v1()
    graph.add_child("s", SchemaElement("s/U", "U", ElementKind.TABLE),
                    label="contains-element")
    for edge in graph.in_edges("s/T/c"):
        graph.remove_edge(edge)
    graph.add_edge("s/U", "contains-element", "s/T/c")
    return graph


class TestStructuralEvolution:
    """Regression: evolutions that touch containment *edges* only (no
    element attribute changed) must still invalidate machine state."""

    def test_diff_records_edge_changes(self):
        diff = diff_schemas(_graph_v1(), _graph_moved_attribute())
        assert diff.added == ["s/U"]
        assert ("s/U", "contains-element", "s/T/c") in diff.edges_added
        assert any(obj == "s/T/c" for _, _, obj in diff.edges_removed)
        assert not diff.is_empty

    def test_restructured_ids_are_the_rewired_endpoints(self):
        diff = diff_schemas(_graph_v1(), _graph_moved_attribute())
        # s/U is *added*, so it is excluded; the surviving endpoints are
        # the moved attribute, its old parent, and the root that gained
        # the new table
        assert diff.restructured_ids() == ["s", "s/T", "s/T/c"]
        assert "s/T/c" in diff.affected_ids()

    def test_move_only_diff_resets_machine_suggestions(self):
        matrix = _matrix()
        matrix.set_confidence("s/T", "t/X", 0.4)  # parent suggestion
        diff = diff_schemas(_graph_v1(), _graph_moved_attribute())
        report = apply_evolution(matrix, diff, side="source", schema_name="s")
        # the moved attribute's machine state is stale: suggestion wiped,
        # completion reopened, decision kept
        assert ("s/T", "t/X") in report.suggestions_reset
        assert matrix.cell("s/T", "t/X").confidence == 0.0
        assert not matrix.row("s/T/a").is_complete or True  # a untouched
        assert matrix.cell("s/T/c", "t/X/p").is_user_defined  # decision kept
        assert ("s/T/c", "t/X/p") in report.decisions_kept
        assert report.needs_rematch

    def test_pure_rename_does_not_mark_restructured(self):
        renamed = _graph_v1()
        renamed.element("s/T/a").name = "alpha"
        renamed.revision += 1
        diff = diff_schemas(_graph_v1(), renamed)
        assert diff.restructured_ids() == []
        assert diff.renamed == [("s/T/a", "a", "alpha")]

    def test_evolve_and_rematch_fires_on_move_only_evolution(
        self, orders_ddl_text, notice_xsd_text
    ):
        """End to end through the workbench with the incremental engine:
        a containment-only rewire must trigger a rematch (the engine goes
        through its patching path) and publish the coalesced matrix event."""
        from repro.harmony import EngineConfig, HarmonyEngine
        from repro.loaders import SqlDdlLoader, XsdLoader
        from repro.workbench import MappingMatrixEvent

        engine = HarmonyEngine(config=EngineConfig.fast())
        manager = WorkbenchManager()
        manager.register(LoaderTool(SqlDdlLoader()))
        manager.register(LoaderTool(XsdLoader()))
        manager.register(MatcherTool(engine))
        manager.invoke("load-sql", text=orders_ddl_text, schema_name="orders")
        manager.invoke("load-xsd", text=notice_xsd_text, schema_name="notice")
        matrix = manager.invoke("harmony", source_schema="orders",
                                target_schema="notice")

        matrix_events = []
        manager.events.subscribe(MappingMatrixEvent, matrix_events.append)

        old_graph = manager.blackboard.get_schema("orders")
        new_graph = old_graph.copy()
        victim = "orders/purchase_order/status"
        for edge in new_graph.in_edges(victim):
            new_graph.remove_edge(edge)
        new_graph.add_edge("orders/customer", "contains-attribute", victim)

        diff = diff_schemas(old_graph, new_graph)
        assert not diff.added and not diff.removed and not diff.redocumented
        assert diff.edges_added and diff.edges_removed  # move only

        report = evolve_and_rematch(
            manager, matrix.name, old_graph, new_graph,
            side="source", other_schema="notice")
        assert report.needs_rematch
        # incremental path taken, not a cold rebuild
        assert engine.rematch_patches == 1
        # batched_matrix: one coalesced event, not per-cell spam
        assert len(matrix_events) == 1
        assert matrix_events[0].cells_updated > 0


def _graph_t() -> SchemaGraph:
    graph = SchemaGraph.create("t")
    graph.add_child("t", SchemaElement("t/X", "X", ElementKind.TABLE),
                    label="contains-element")
    for name in ("p", "q"):
        graph.add_child("t/X", SchemaElement(
            f"t/X/{name}", name, ElementKind.ATTRIBUTE, datatype="string",
            documentation=f"Attribute {name}."))
    return graph


class TestDeltaSchemaSerialization:
    """``delta_schema_rdf=True`` routes the evolved schema through the
    O(delta) serializer without changing any observable blackboard state."""

    def _run(self, config):
        from repro.harmony import HarmonyEngine

        manager = WorkbenchManager()
        manager.register(MatcherTool(HarmonyEngine(config=config)))
        manager.blackboard.put_schema(_graph_v1())
        manager.blackboard.put_schema(_graph_t())
        matrix = manager.invoke(
            "harmony", source_schema="s", target_schema="t")
        report = evolve_and_rematch(
            manager, matrix.name, _graph_v1(), _graph_v2(),
            side="source", other_schema="t")
        return manager, report

    def test_delta_flag_produces_identical_blackboard_state(self):
        from repro.harmony import EngineConfig
        from repro.rdf import reset_serialization_stats, serialization_stats

        reset_serialization_stats()
        plain_manager, plain_report = self._run(EngineConfig())
        baseline = serialization_stats()
        assert baseline["schema_delta_serializations"] == 0
        delta_manager, delta_report = self._run(
            EngineConfig(delta_schema_rdf=True))
        stats = serialization_stats()
        assert stats["schema_delta_serializations"] >= 1
        assert set(plain_manager.blackboard.store) == set(
            delta_manager.blackboard.store)
        assert plain_report.axes_added == delta_report.axes_added
        restored = delta_manager.blackboard.get_schema("s")
        assert sorted(restored.element_ids) == sorted(_graph_v2().element_ids)

    def test_fast_preset_enables_delta_schema_rdf(self):
        from repro.harmony import EngineConfig

        assert EngineConfig.fast().delta_schema_rdf is True
        assert EngineConfig().delta_schema_rdf is False


def _ledger(renamed: bool = False):
    """A source with one attribute a target attribute matches by name,
    and a target table big enough for blocking to prune: after the
    rename, fourteen ``zulu`` targets fill the renamed attribute's
    candidate budget (``zulu`` is rare enough to count: 14 of 30), so
    no zero-overlap target is padded in and the rematch never retrieves
    the old pair, whatever the element order."""
    source = SchemaGraph.create("ledger")
    source.add_child("ledger", SchemaElement(
        "ledger/orders", "orders", ElementKind.TABLE))
    source.add_child("ledger/orders", SchemaElement(
        "ledger/orders/code", "zulu_marker" if renamed else "alpha_code",
        ElementKind.ATTRIBUTE, datatype="string"))
    source.add_child("ledger/orders", SchemaElement(
        "ledger/orders/total", "order_total", ElementKind.ATTRIBUTE,
        datatype="decimal"))
    target = SchemaGraph.create("depot")
    target.add_child("depot", SchemaElement(
        "depot/shipments", "shipments", ElementKind.TABLE))
    names = (["alpha_code", "order_total"] + [f"zulu_{i}" for i in range(14)]
             + [f"pad_{i}" for i in range(14)])
    for name in names:
        target.add_child("depot/shipments", SchemaElement(
            f"depot/shipments/{name}", name, ElementKind.ATTRIBUTE,
            datatype="string"))
    return source, target


def _cells(matrix):
    return {c.pair: (c.confidence, c.is_user_defined) for c in matrix.cells()}


class TestEvolutionMatchesColdMatch:
    """Finding (e): a machine suggestion on an evolved element that the
    rematch no longer retrieves must not linger as a 0.0 cell that a
    cold match of the new version never writes."""

    OLD_PAIR = ("ledger/orders/code", "depot/shipments/alpha_code")

    def _workbench(self):
        from repro.harmony import EngineConfig, HarmonyEngine

        engine = HarmonyEngine(config=EngineConfig.fast())
        manager = WorkbenchManager()
        manager.register(MatcherTool(engine))
        v1, target = _ledger()
        with manager.transaction():
            manager.blackboard.put_schema(v1)
            manager.blackboard.put_schema(target)
        matrix = manager.invoke("harmony", source_schema="ledger",
                                target_schema="depot", matrix_name="m")
        assert matrix.peek(*self.OLD_PAIR).confidence > 0
        manager.blackboard.update_cell(
            "m", "ledger/orders/total", "depot/shipments/order_total", 1.0,
            user_defined=True)
        return engine, manager, v1

    def test_evolve_and_rematch_equals_a_cold_match(self):
        import copy

        from repro.harmony import EngineConfig, HarmonyEngine

        engine, manager, v1 = self._workbench()
        v2, _target = _ledger(renamed=True)
        report = evolve_and_rematch(manager, "m", v1, v2, side="source",
                                    other_schema="depot")
        assert self.OLD_PAIR in report.suggestions_reset
        board = manager.blackboard
        warm = board.get_matrix("m")
        assert warm.peek(*self.OLD_PAIR) is None
        # a missing cell still reads as "no opinion, confidence 0"
        assert board.get_matrix("m").cell(*self.OLD_PAIR).confidence == 0.0

        source, target = board.get_schema("ledger"), board.get_schema("depot")
        decided = MappingMatrix.from_schemas(source, target)
        for cell in warm.cells():
            if cell.is_user_defined:
                decided.set_confidence(cell.source_id, cell.target_id,
                                       cell.confidence, user_defined=True)
        cold = HarmonyEngine(config=EngineConfig.fast(),
                             merger=copy.deepcopy(engine.merger))
        cold.match(source.copy(), target.copy(), matrix=copy.deepcopy(decided))
        cold.match(source, target, matrix=decided)
        assert _cells(warm) == _cells(decided)

    def test_an_evolve_step_writes_only_the_changed_triples(self):
        """Finding (b): under ``delta_matrix_rdf`` the evolve step's matrix
        write touches only the triples that change, and lands the same
        store as the bulk rewrite."""
        import dataclasses

        from repro.harmony import EngineConfig, HarmonyEngine
        from repro.rdf import serialization_stats
        from repro.rdf.schema_rdf import MATRIX_BASE

        def evolve(config):
            manager = WorkbenchManager()
            manager.register(MatcherTool(HarmonyEngine(config=config)))
            v1, target = _ledger()
            with manager.transaction():
                manager.blackboard.put_schema(v1)
                manager.blackboard.put_schema(target)
            manager.invoke("harmony", source_schema="ledger",
                           target_schema="depot", matrix_name="m")
            store = manager.blackboard.store
            before, counts = store.snapshot(), serialization_stats()
            # no other_schema: the evolve step alone, without the rematch
            evolve_and_rematch(manager, "m", v1, _ledger(renamed=True)[0],
                               side="source")
            now = serialization_stats()
            return before, store.snapshot(), {
                key: now[key] - counts[key] for key in now}

        before, after, delta = evolve(EngineConfig.fast())
        bulk_before, bulk_after, bulk = evolve(
            dataclasses.replace(EngineConfig.fast(), delta_matrix_rdf=False))
        assert (before, after) == (bulk_before, bulk_after)

        def matrix_triples(triples):
            return {t for t in triples if t.subject in MATRIX_BASE}

        assert delta["matrix_bulk_serializations"] == 0
        assert delta["matrix_triples_written"] == len(matrix_triples(after - before))
        assert delta["matrix_triples_removed"] == len(matrix_triples(before - after))
        # the bulk path removes and rewrites the whole matrix
        assert bulk["matrix_triples_written"] == len(matrix_triples(after))
        assert 0 < (delta["matrix_triples_written"] + delta["matrix_triples_removed"]
                    < bulk["matrix_triples_written"] + bulk["matrix_triples_removed"])
