"""Tests for repro.core.graph."""

import pytest

from repro.core import (
    CONTAINS_ATTRIBUTE,
    DuplicateElementError,
    ElementKind,
    HAS_DOMAIN,
    SchemaElement,
    SchemaError,
    SchemaGraph,
    UnknownElementError,
)


@pytest.fixture
def small_graph() -> SchemaGraph:
    graph = SchemaGraph.create("s")
    graph.add_child("s", SchemaElement("s/T", "T", ElementKind.TABLE),
                    label="contains-element")
    graph.add_child("s/T", SchemaElement("s/T/a", "a", ElementKind.ATTRIBUTE))
    graph.add_child("s/T", SchemaElement("s/T/b", "b", ElementKind.ATTRIBUTE))
    graph.add_child("s", SchemaElement("s/D", "D", ElementKind.DOMAIN),
                    label="contains-element")
    graph.add_child("s/D", SchemaElement("s/D/x", "x", ElementKind.DOMAIN_VALUE))
    return graph


class TestConstruction:
    def test_create_adds_root(self):
        graph = SchemaGraph.create("s")
        assert graph.root.kind is ElementKind.SCHEMA
        assert graph.root.element_id == "s"

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            SchemaGraph("")

    def test_duplicate_element_rejected(self, small_graph):
        with pytest.raises(DuplicateElementError):
            small_graph.add_element(SchemaElement("s/T", "T2"))

    def test_edge_requires_both_endpoints(self, small_graph):
        with pytest.raises(UnknownElementError):
            small_graph.add_edge("s/T", "references", "missing")
        with pytest.raises(UnknownElementError):
            small_graph.add_edge("missing", "references", "s/T")

    def test_edge_requires_label(self, small_graph):
        with pytest.raises(SchemaError):
            small_graph.add_edge("s/T", "", "s/T/a")

    def test_edges_deduplicate(self, small_graph):
        before = len(small_graph.edges)
        small_graph.add_edge("s/T", CONTAINS_ATTRIBUTE, "s/T/a")  # already exists
        assert len(small_graph.edges) == before

    def test_default_containment_labels(self):
        graph = SchemaGraph.create("s")
        table = graph.add_child("s", SchemaElement("s/t", "t", ElementKind.TABLE))
        attr = graph.add_child("s/t", SchemaElement("s/t/a", "a", ElementKind.ATTRIBUTE))
        labels = {e.label for e in graph.edges}
        assert "contains-table" in labels
        assert "contains-attribute" in labels


class TestStructureQueries:
    def test_children(self, small_graph):
        names = sorted(c.name for c in small_graph.children("s/T"))
        assert names == ["a", "b"]

    def test_parent(self, small_graph):
        assert small_graph.parent("s/T/a").element_id == "s/T"
        assert small_graph.parent("s") is None

    def test_depth(self, small_graph):
        assert small_graph.depth("s") == 0
        assert small_graph.depth("s/T") == 1
        assert small_graph.depth("s/T/a") == 2

    def test_subtree_bfs(self, small_graph):
        ids = [e.element_id for e in small_graph.subtree("s/T")]
        assert ids[0] == "s/T"
        assert set(ids) == {"s/T", "s/T/a", "s/T/b"}

    def test_ancestors(self, small_graph):
        assert [a.element_id for a in small_graph.ancestors("s/T/a")] == ["s/T", "s"]

    def test_path_names(self, small_graph):
        assert small_graph.path("s/T/a") == ["s", "T", "a"]

    def test_leaves(self, small_graph):
        leaf_ids = {e.element_id for e in small_graph.leaves()}
        assert leaf_ids == {"s/T/a", "s/T/b", "s/D/x"}

    def test_domain_of(self, small_graph):
        small_graph.add_edge("s/T/a", HAS_DOMAIN, "s/D")
        assert small_graph.domain_of("s/T/a").element_id == "s/D"
        assert small_graph.domain_of("s/T/b") is None

    def test_walk_yields_depths(self, small_graph):
        depths = {e.element_id: d for e, d in small_graph.walk()}
        assert depths["s"] == 0
        assert depths["s/T/a"] == 2

    def test_find_by_name(self, small_graph):
        assert [e.element_id for e in small_graph.find_by_name("a")] == ["s/T/a"]

    def test_elements_of_kind(self, small_graph):
        tables = small_graph.elements_of_kind(ElementKind.TABLE)
        assert [t.element_id for t in tables] == ["s/T"]

    def test_unknown_element_raises(self, small_graph):
        with pytest.raises(UnknownElementError):
            small_graph.element("nope")
        assert small_graph.get("nope") is None


class TestMutation:
    def test_remove_element_removes_edges(self, small_graph):
        small_graph.remove_element("s/T/a")
        assert "s/T/a" not in small_graph
        assert all(e.object != "s/T/a" for e in small_graph.edges)

    def test_remove_edge(self, small_graph):
        edge = small_graph.out_edges("s/T", CONTAINS_ATTRIBUTE)[0]
        small_graph.remove_edge(edge)
        assert edge not in small_graph.edges

    def test_copy_is_deep(self, small_graph):
        clone = small_graph.copy("s2")
        clone.element("s/T").name = "renamed"
        clone.remove_element("s/T/b")
        assert small_graph.element("s/T").name == "T"
        assert "s/T/b" in small_graph

    def test_copy_preserves_structure(self, small_graph):
        clone = small_graph.copy()
        assert sorted(clone.element_ids) == sorted(small_graph.element_ids)
        assert clone.edges == small_graph.edges

    def test_copy_keeps_edge_order(self):
        """A copy iterates its elements and each element's out- and
        in-edges in the original's order, whatever the hash seed."""
        graph = SchemaGraph.create("s")
        for i in reversed(range(30)):
            graph.add_child("s", SchemaElement(f"s/T{i}", f"T{i}", ElementKind.TABLE))
        for i in range(29):
            graph.add_edge(f"s/T{29 - i}", "references", f"s/T{i}")
            graph.add_edge(f"s/T{i}", "references", "s/T0" if i else "s/T29")
        graph.remove_edge(graph.out_edges("s")[3])
        clone = graph.copy()

        def order(g):
            return [(eid, g.out_edges(eid), g.in_edges(eid)) for eid in g.element_ids]

        assert order(clone) == order(graph)
        assert clone.revision == len(graph) + len(graph.edges)


class TestValidation:
    def test_valid_graph_has_no_problems(self, small_graph):
        assert small_graph.validate() == []

    def test_unreachable_element_reported(self, small_graph):
        small_graph.add_element(SchemaElement("s/orphan", "orphan"))
        problems = small_graph.validate()
        assert any("orphan" in p for p in problems)

    def test_bad_domain_edge_reported(self, small_graph):
        small_graph.add_edge("s/T/a", HAS_DOMAIN, "s/T/b")  # not a DOMAIN
        problems = small_graph.validate()
        assert any("has-domain" in p for p in problems)

    def test_multiple_containment_parents_detected(self, small_graph):
        small_graph.add_edge("s/D", CONTAINS_ATTRIBUTE, "s/T/a")
        with pytest.raises(SchemaError):
            small_graph.parent("s/T/a")

    def test_key_elements_reachable_via_has_key(self):
        graph = SchemaGraph.create("s")
        graph.add_child("s", SchemaElement("s/t", "t", ElementKind.TABLE))
        graph.add_child("s/t", SchemaElement("s/t/#pk", "pk", ElementKind.KEY),
                        label="has-key")
        assert graph.validate() == []

    def test_to_text_renders_tree(self, small_graph):
        text = small_graph.to_text()
        assert "T [table]" in text
        assert "  " in text  # indentation
