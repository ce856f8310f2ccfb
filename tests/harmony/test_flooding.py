"""Tests for similarity flooding (classic and directional)."""

import pytest

from repro.core import ElementKind, SchemaElement, SchemaGraph
from repro.harmony import (
    DirectionalConfig,
    FloodingConfig,
    FloodingState,
    directional_flooding_compiled,
    flooded_ranking,
)


def _parallel_graphs():
    """Two isomorphic entity/attribute trees with unrelated names."""
    def build(name, entity, attrs):
        graph = SchemaGraph.create(name)
        graph.add_child(name, SchemaElement(f"{name}/{entity}", entity, ElementKind.ENTITY),
                        label="contains-element")
        for attr in attrs:
            graph.add_child(f"{name}/{entity}",
                            SchemaElement(f"{name}/{entity}/{attr}", attr, ElementKind.ATTRIBUTE))
        return graph

    source = build("s", "Person", ["alpha", "beta"])
    target = build("t", "Human", ["uno", "dos"])
    return source, target


class TestClassicFlooding:
    def test_structure_propagates_similarity(self):
        source, target = _parallel_graphs()
        # seed only the attribute pair (alpha, uno)
        initial = {("s/Person/alpha", "t/Human/uno"): 1.0}
        result = FloodingState().flood(source, target, initial)
        # similarity flows to the parent pair through the shared edge label
        assert result[("s/Person", "t/Human")] > 0.0

    def test_result_normalized(self):
        source, target = _parallel_graphs()
        initial = {("s/Person/alpha", "t/Human/uno"): 0.5}
        result = FloodingState().flood(source, target, initial)
        assert max(result.values()) == pytest.approx(1.0)
        assert all(v >= 0.0 for v in result.values())

    def test_converges_quickly_on_small_graphs(self):
        source, target = _parallel_graphs()
        config = FloodingConfig(max_iterations=500, epsilon=1e-6)
        result = FloodingState().flood(source, target, {("s/Person", "t/Human"): 1.0}, config)
        assert result  # no blow-up, fixpoint reached

    def test_empty_seed(self):
        source, target = _parallel_graphs()
        result = FloodingState().flood(source, target, {})
        assert all(v == 0.0 for v in result.values())

    def test_ranking_helper(self):
        source, target = _parallel_graphs()
        result = FloodingState().flood(source, target, {("s/Person", "t/Human"): 1.0})
        top = flooded_ranking(result, top=3)
        assert len(top) <= 3
        assert top[0][1] >= top[-1][1]


class TestDirectionalFlooding:
    def test_positive_propagates_up(self):
        """Matching attributes boost their parents (Section 4)."""
        source, target = _parallel_graphs()
        scores = {
            ("s/Person", "t/Human"): 0.1,
            ("s/Person/alpha", "t/Human/uno"): 0.9,
            ("s/Person/beta", "t/Human/dos"): 0.8,
        }
        adjusted = directional_flooding_compiled(source, target, scores)
        assert adjusted[("s/Person", "t/Human")] > 0.1

    def test_negative_trickles_down(self):
        """'Two attributes are unlikely to match if their parent entities
        do not match.'"""
        source, target = _parallel_graphs()
        scores = {
            ("s/Person", "t/Human"): -0.8,
            ("s/Person/alpha", "t/Human/uno"): 0.5,
        }
        adjusted = directional_flooding_compiled(source, target, scores)
        assert adjusted[("s/Person/alpha", "t/Human/uno")] < 0.5

    def test_positive_does_not_trickle_down(self):
        source, target = _parallel_graphs()
        scores = {
            ("s/Person", "t/Human"): 0.9,
            ("s/Person/alpha", "t/Human/uno"): 0.2,
        }
        adjusted = directional_flooding_compiled(source, target, scores)
        assert adjusted[("s/Person/alpha", "t/Human/uno")] == pytest.approx(0.2)

    def test_negative_does_not_propagate_up(self):
        source, target = _parallel_graphs()
        scores = {
            ("s/Person", "t/Human"): 0.3,
            ("s/Person/alpha", "t/Human/uno"): -0.9,
            ("s/Person/beta", "t/Human/dos"): -0.9,
        }
        adjusted = directional_flooding_compiled(source, target, scores)
        assert adjusted[("s/Person", "t/Human")] == pytest.approx(0.3)

    def test_pinned_pairs_untouched(self):
        """Section 4.3: the engine never modifies decided links."""
        source, target = _parallel_graphs()
        scores = {
            ("s/Person", "t/Human"): -0.8,
            ("s/Person/alpha", "t/Human/uno"): 1.0,
        }
        adjusted = directional_flooding_compiled(
            source, target, scores, pinned={("s/Person/alpha", "t/Human/uno")}
        )
        assert adjusted[("s/Person/alpha", "t/Human/uno")] == 1.0

    def test_scores_stay_in_machine_range(self):
        source, target = _parallel_graphs()
        scores = {
            ("s/Person", "t/Human"): 0.95,
            ("s/Person/alpha", "t/Human/uno"): 0.95,
            ("s/Person/beta", "t/Human/dos"): 0.95,
        }
        config = DirectionalConfig(up_rate=1.0, down_rate=1.0, iterations=5)
        adjusted = directional_flooding_compiled(source, target, scores, config=config)
        assert all(-0.99 <= v <= 0.99 for v in adjusted.values())

    def test_zero_iterations_is_identity(self):
        source, target = _parallel_graphs()
        scores = {("s/Person", "t/Human"): 0.4}
        config = DirectionalConfig(iterations=0)
        assert directional_flooding_compiled(source, target, scores, config=config) == scores
