"""Differential harness: compiled flooding vs the reference fixpoints.

``classic_flooding`` / ``directional_flooding`` are the clarity-first
references — dict-keyed PCG nodes, per-iteration dict allocation.
``CompiledPCG`` / ``FloodingState`` / ``directional_flooding_compiled``
are the edge-array mirrors the fast path runs on (interned int ids,
parallel ``array('l')``/``array('d')`` edge arrays, preallocated
buffers).

This file is what lets the engine flip between them without a
correctness argument in prose:

* cold compiled runs are *bit-identical* to the reference — the edge
  arrays are flattened from the reference adjacency in its exact
  iteration order, so every float accumulates in the same sequence;
* a *patched* PCG (incremental rematch after schema evolution) is
  structurally identical to a fresh compile — same node set, same
  per-node/per-label successor multisets — and its fixpoint agrees with
  a cold run to ``TOLERANCE`` (drift only from edge-order float
  reassociation);
* warm-start semantics: a warm run reuses *structure only* and always
  iterates from σ⁰, so after any evolution the engine's warm rematch
  matrix equals a cold engine's matrix on the evolved schemas.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ElementKind, SchemaElement, SchemaGraph
from repro.core.graph import CONTAINMENT_LABELS, CONTAINS_ELEMENT
from repro.harmony import BlockingConfig, EngineConfig, HarmonyEngine, graph_delta
from repro.harmony.flooding import (
    DirectionalConfig,
    FloodingConfig,
    FloodingState,
    _pcg_edges,
    classic_flooding,
    compile_pcg,
    directional_flooding,
    directional_flooding_compiled,
)

TOLERANCE = 1e-12

seeds = st.integers(min_value=0, max_value=10_000)


# -- generators ---------------------------------------------------------------


def _random_graph(name, seed, size=14):
    """A random containment tree with occasional extra (non-tree) edges."""
    rng = random.Random(seed)
    graph = SchemaGraph.create(name)
    ids = [name]
    for i in range(size):
        element_id = f"{name}/e{i}"
        kind = (
            ElementKind.ENTITY if i % 4 == 0
            else ElementKind.ATTRIBUTE if i % 4 in (1, 2)
            else ElementKind.DOMAIN
        )
        element = SchemaElement(
            element_id, f"elem{i}", kind,
            documentation=f"doc {i} alpha beta" if i % 3 == 0 else "",
        )
        graph.add_child(rng.choice(ids), element)
        ids.append(element_id)
    # a few cross edges exercise non-containment labels in the PCG
    for _ in range(3):
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b:
            graph.add_edge(a, "references", b)
    return graph, ids


def _random_initial(source_ids, target_ids, seed, n=25, signed=False):
    rng = random.Random(seed)
    low = -1.0 if signed else 0.0
    return {
        (rng.choice(source_ids), rng.choice(target_ids)): rng.uniform(low, 1.0)
        for _ in range(n)
    }


def _random_evolution(graph, ids, seed, ops=4):
    """Apply a few random mutations to a copy of *graph*.

    Covers the cases the incremental path must patch: renames (no PCG
    change), re-documentation (corpus change), element add/remove, and
    pure containment rewires (edge-only change, the regression case).
    """
    rng = random.Random(seed)
    evolved = graph.copy()
    mutable = [i for i in ids if i != graph.name]
    for k in range(ops):
        op = rng.choice(["rename", "redoc", "add", "remove", "move"])
        victim = rng.choice(mutable)
        if victim not in evolved:
            continue
        if op == "rename":
            evolved.element(victim).name += f"_v{k}"
            evolved.revision += 1
        elif op == "redoc":
            evolved.element(victim).documentation = f"new words {seed} {k}"
            evolved.revision += 1
        elif op == "add":
            new_id = f"{graph.name}/new{k}"
            if new_id not in evolved:
                evolved.add_child(
                    victim,
                    SchemaElement(new_id, f"fresh{k}", ElementKind.ATTRIBUTE),
                )
        elif op == "remove":
            # keep the graph non-trivial; never remove a subtree root with
            # many descendants, just leaves
            if not evolved.children(victim):
                evolved.remove_element(victim)
        elif op == "move":
            new_parent = rng.choice(mutable)
            if new_parent == victim or new_parent not in evolved:
                continue
            descendants = {e.element_id for e in evolved.subtree(victim)}
            if new_parent in descendants:
                continue
            for edge in evolved.in_edges(victim):
                if edge.label in CONTAINMENT_LABELS:
                    evolved.remove_edge(edge)
            evolved.add_edge(new_parent, CONTAINS_ELEMENT, victim)
    return evolved


# -- classic: compiled vs reference -------------------------------------------


class TestCompiledClassic:
    @given(seeds, seeds, seeds)
    @settings(max_examples=40, deadline=None)
    def test_cold_compiled_is_bit_identical(self, s1, s2, s3):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        initial = _random_initial(sids, tids, s3)
        reference = classic_flooding(source, target, initial)
        compiled = compile_pcg(source, target).run(initial)
        assert compiled == reference  # exact, not approximate

    @given(seeds, seeds, seeds)
    @settings(max_examples=40, deadline=None)
    def test_sparse_restriction_matches(self, s1, s2, s3):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        initial = _random_initial(sids, tids, s3)
        restrict = set(initial)
        reference = classic_flooding(source, target, initial, restrict_to=restrict)
        compiled = FloodingState().flood(source, target, initial, restrict_to=restrict)
        assert compiled == reference

    def test_epoch_reuse_skips_recompile(self):
        source, sids = _random_graph("s", 5)
        target, tids = _random_graph("t", 6)
        initial = _random_initial(sids, tids, 7)
        state = FloodingState()
        first = state.flood(source, target, initial, restrict_to=set(initial))
        second = state.flood(source, target, initial, restrict_to=set(initial))
        assert first == second
        assert state.compiles == 1 and state.patches == 0

    def test_empty_initial_and_disjoint_graphs(self):
        source, _ = _random_graph("s", 1)
        target, _ = _random_graph("t", 2)
        assert compile_pcg(source, target).run({}) == classic_flooding(
            source, target, {}
        )
        lone = {("s/nowhere", "t/nowhere"): 0.7}
        assert compile_pcg(source, target).run(lone) == classic_flooding(
            source, target, lone
        )

    @given(seeds, seeds, seeds, st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_custom_config_matches(self, s1, s2, s3, iterations):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        initial = _random_initial(sids, tids, s3)
        config = FloodingConfig(max_iterations=iterations, epsilon=0.0)
        reference = classic_flooding(source, target, initial, config)
        compiled = compile_pcg(source, target).run(initial, config)
        assert compiled == reference


# -- directional: compiled vs reference ---------------------------------------


class TestCompiledDirectional:
    @given(seeds, seeds, seeds, st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_compiled_is_bit_identical(self, s1, s2, s3, pin_count):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        scores = _random_initial(sids, tids, s3, signed=True)
        pinned = set(list(scores)[:pin_count])
        reference = directional_flooding(source, target, scores, pinned=pinned)
        compiled = directional_flooding_compiled(source, target, scores, pinned=pinned)
        assert compiled == reference

    @given(seeds, seeds, seeds)
    @settings(max_examples=20, deadline=None)
    def test_many_iterations_match(self, s1, s2, s3):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        scores = _random_initial(sids, tids, s3, signed=True)
        config = DirectionalConfig(up_rate=0.45, down_rate=0.2, iterations=6)
        assert directional_flooding_compiled(
            source, target, scores, config=config
        ) == directional_flooding(source, target, scores, config=config)


# -- golden graphs ------------------------------------------------------------


def _golden_pair():
    """A frozen, handcrafted pair exercising every PCG edge label class:
    containment, has-domain, contains-value and references."""
    def build(name, entity, attrs, values):
        graph = SchemaGraph.create(name)
        entity_id = f"{name}/{entity}"
        graph.add_child(name, SchemaElement(entity_id, entity, ElementKind.ENTITY),
                        label="contains-element")
        domain_id = f"{name}/dom"
        graph.add_child(name, SchemaElement(domain_id, "codes", ElementKind.DOMAIN),
                        label="contains-element")
        for value in values:
            graph.add_child(domain_id,
                            SchemaElement(f"{domain_id}/{value}", value,
                                          ElementKind.DOMAIN_VALUE))
        for i, attr in enumerate(attrs):
            attr_id = f"{entity_id}/{attr}"
            graph.add_child(entity_id,
                            SchemaElement(attr_id, attr, ElementKind.ATTRIBUTE))
            if i == 0:
                graph.add_edge(attr_id, "has-domain", domain_id)
        return graph

    source = build("gs", "Person", ["code", "age", "name"], ["a", "b"])
    target = build("gt", "Human", ["kind", "years"], ["x", "y"])
    source.add_edge("gs/Person/name", "references", "gs/Person/age")
    target.add_edge("gt/Human/kind", "references", "gt/Human/years")
    return source, target


GOLDEN_INITIAL = {
    ("gs/Person", "gt/Human"): 0.8,
    ("gs/Person/code", "gt/Human/kind"): 0.6,
    ("gs/Person/age", "gt/Human/years"): 0.55,
    ("gs/dom", "gt/dom"): 0.3,
    ("gs/dom/a", "gt/dom/x"): 0.2,
}


class TestGoldenGraphs:
    def test_classic_compiled_matches_reference(self):
        source, target = _golden_pair()
        reference = classic_flooding(source, target, GOLDEN_INITIAL)
        compiled = compile_pcg(source, target).run(GOLDEN_INITIAL)
        assert compiled == reference
        assert max(compiled.values()) == pytest.approx(1.0)

    def test_directional_compiled_matches_reference(self):
        source, target = _golden_pair()
        scores = dict(GOLDEN_INITIAL)
        scores[("gs/Person/name", "gt/Human/kind")] = -0.7
        assert directional_flooding_compiled(
            source, target, scores
        ) == directional_flooding(source, target, scores)

    def test_compiled_arrays_mirror_reference_adjacency(self):
        """The flattened edge arrays are the reference adjacency verbatim."""
        source, target = _golden_pair()
        adjacency = _pcg_edges(source, target)
        compiled = compile_pcg(source, target)
        rebuilt = {}
        for k in range(compiled.edge_count):
            node = compiled.nodes[compiled.edge_src[k]]
            neighbor = compiled.nodes[compiled.edge_dst[k]]
            rebuilt.setdefault(node, []).append((neighbor, compiled.edge_weight[k]))
        assert rebuilt == {n: list(neigh) for n, neigh in adjacency.items()}


# -- incremental patch: warm vs cold ------------------------------------------


def _structure_of(compiled):
    """Order-insensitive view of the PCG structure: node → label →
    successor multiset."""
    return {
        node: {
            label: sorted(successors)
            for label, successors in by_label.items()
        }
        for node, by_label in compiled.out_by_label.items()
    }


class TestIncrementalPatch:
    @given(seeds, seeds, seeds, seeds)
    @settings(max_examples=40, deadline=None)
    def test_patched_pcg_equals_fresh_compile(self, s1, s2, s3, s4):
        from repro.harmony import graph_delta

        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        initial = _random_initial(sids, tids, s3)
        restrict = set(initial)

        state = FloodingState()
        state.flood(source, target, initial, restrict_to=restrict)

        evolved = _random_evolution(source, sids, s4)
        delta = graph_delta(source, evolved)
        state.note_evolution(delta.structural | delta.added | delta.removed, ())
        warm = state.flood(evolved, target, initial, restrict_to=restrict)
        assert state.patches == 1 and state.compiles == 1

        fresh = compile_pcg(evolved, target, restrict_to=restrict)
        assert _structure_of(state.compiled) == _structure_of(fresh)
        assert set(state.compiled.node_index) == set(fresh.node_index)

        cold = classic_flooding(evolved, target, initial, restrict_to=restrict)
        assert set(warm) == set(cold)
        for pair, value in warm.items():
            assert abs(value - cold[pair]) <= TOLERANCE

    @given(seeds, seeds, seeds, seeds)
    @settings(max_examples=25, deadline=None)
    def test_patched_full_pcg_equals_fresh_compile(self, s1, s2, s3, s4):
        """Same, without the sparse restriction (no frontier delta)."""
        from repro.harmony import graph_delta

        source, sids = _random_graph("s", s1, size=8)
        target, tids = _random_graph("t", s2, size=8)
        initial = _random_initial(sids, tids, s3, n=12)

        state = FloodingState()
        state.flood(source, target, initial)
        evolved = _random_evolution(source, sids, s4)
        delta = graph_delta(source, evolved)
        state.note_evolution(delta.structural | delta.added | delta.removed, ())
        warm = state.flood(evolved, target, initial)
        assert state.patches == 1

        fresh = compile_pcg(evolved, target)
        assert _structure_of(state.compiled) == _structure_of(fresh)
        cold = classic_flooding(evolved, target, initial)
        assert set(warm) == set(cold)
        for pair, value in warm.items():
            assert abs(value - cold[pair]) <= TOLERANCE

    @given(seeds, seeds, seeds, seeds)
    @settings(max_examples=15, deadline=None)
    def test_equal_revision_evolution_is_patched(self, s1, s2, s3, s4):
        """An evolved graph carrying the same revision as the one before
        it — as blackboard reads do — matches the epoch: a noted
        structural change must still patch the PCG, not read as a hit."""
        source, sids = _random_graph("s", s1, size=8)
        target, tids = _random_graph("t", s2, size=8)
        initial = _random_initial(sids, tids, s3, n=12)

        state = FloodingState()
        state.flood(source, target, initial)
        evolved = _random_evolution(source, sids, s4)
        evolved.revision = source.revision
        delta = graph_delta(source, evolved)
        dirty = delta.structural | delta.added | delta.removed
        state.note_evolution(dirty, ())
        warm = state.flood(evolved, target, initial)
        assert (state.patches, state.hits) == ((1, 0) if dirty else (0, 1))

        fresh = compile_pcg(evolved, target)
        assert _structure_of(state.compiled) == _structure_of(fresh)
        cold = classic_flooding(evolved, target, initial)
        assert set(warm) == set(cold)
        for pair, value in warm.items():
            assert abs(value - cold[pair]) <= TOLERANCE

    def test_containment_only_rewire_is_patched(self):
        """Regression: moving an element between parents changes *edges
        only* — the flooding state must still invalidate and repatch."""
        from repro.harmony import graph_delta

        source, sids = _random_graph("s", 11)
        target, tids = _random_graph("t", 12)
        initial = _random_initial(sids, tids, 13)
        restrict = set(initial)

        state = FloodingState()
        state.flood(source, target, initial, restrict_to=restrict)

        evolved = source.copy()
        victim = next(
            i for i in sids[1:]
            if i in evolved and not evolved.children(i)
        )
        old_parent = evolved.parent(victim).element_id
        new_parent = next(
            i for i in sids
            if i in evolved and i not in (victim, old_parent)
            and evolved.element(i).kind is not ElementKind.DOMAIN_VALUE
        )
        for edge in evolved.in_edges(victim):
            if edge.label in CONTAINMENT_LABELS:
                evolved.remove_edge(edge)
        evolved.add_edge(new_parent, CONTAINS_ELEMENT, victim)

        delta = graph_delta(source, evolved)
        assert not delta.added and not delta.removed and not delta.changed
        assert delta.structural  # the whole point: edge-only evolution
        state.note_evolution(delta.structural, ())
        warm = state.flood(evolved, target, initial, restrict_to=restrict)
        assert state.patches == 1
        fresh = compile_pcg(evolved, target, restrict_to=restrict)
        assert _structure_of(state.compiled) == _structure_of(fresh)
        cold = classic_flooding(evolved, target, initial, restrict_to=restrict)
        for pair, value in warm.items():
            assert abs(value - cold[pair]) <= TOLERANCE


# -- engine level: warm rematch == cold match ---------------------------------


def _cells(matrix):
    return {
        (c.source_id, c.target_id): (c.confidence, c.is_user_defined)
        for c in matrix.cells()
    }


def _assert_close(warm_cells, cold_cells):
    """Same cells and decisions, confidences within ``TOLERANCE`` (a
    patched PCG reassociates edge-order float sums)."""
    assert set(warm_cells) == set(cold_cells)
    for pair, (confidence, decided) in warm_cells.items():
        cold_conf, cold_decided = cold_cells[pair]
        assert decided == cold_decided
        assert abs(confidence - cold_conf) <= TOLERANCE


class TestEngineWarmVsCold:
    """Both entry points — ``rematch`` and a plain ``match`` on the
    evolved copies — take the same content-keyed patch path."""

    @given(seeds, seeds, seeds)
    @settings(max_examples=10, deadline=None)
    def test_rematch_matrix_identical_to_cold(self, s1, s2, s4):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        evolved = _random_evolution(source, sids, s4)
        changed = not graph_delta(source, evolved).is_empty

        cold = HarmonyEngine(config=EngineConfig.fast())
        cold_cells = _cells(cold.match(evolved, target).matrix)
        for method in ("rematch", "match"):
            warm = HarmonyEngine(config=EngineConfig.fast())
            warm.match(source, target)
            warm_run = getattr(warm, method)(evolved, target)
            assert _cells(warm_run.matrix) == cold_cells, method
            assert warm.rematch_patches == int(changed)
            assert warm.context_builds == 1
            assert warm_run.reused_context

    @given(seeds, seeds, seeds)
    @settings(max_examples=6, deadline=None)
    def test_rematch_identical_under_classic_flooding(self, s1, s2, s4):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        evolved = _random_evolution(source, sids, s4)
        config = dict(flooding="classic")

        cold = HarmonyEngine(config=EngineConfig.fast(**config))
        cold_cells = _cells(cold.match(evolved, target).matrix)
        for method in ("rematch", "match"):
            warm = HarmonyEngine(config=EngineConfig.fast(**config))
            warm.match(source, target)
            warm_cells = _cells(getattr(warm, method)(evolved, target).matrix)
            _assert_close(warm_cells, cold_cells)

    @given(seeds, seeds, seeds)
    @settings(max_examples=6, deadline=None)
    def test_equal_revision_evolution_identical_to_cold(self, s1, s2, s4):
        """The evolved copy carries the revision of the version before
        it, as blackboard reads do: ``match`` must still patch the
        blocking index and the compiled PCG instead of serving them
        stale under a matching epoch."""
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        evolved = _random_evolution(source, sids, s4)
        evolved.revision = source.revision
        config = dict(flooding="classic", blocking=BlockingConfig(budget=2))

        warm = HarmonyEngine(config=EngineConfig.fast(**config))
        warm.match(source, target)
        warm_cells = _cells(warm.match(evolved, target).matrix)
        cold = HarmonyEngine(config=EngineConfig.fast(**config))
        _assert_close(warm_cells, _cells(cold.match(evolved, target).matrix))

    def test_rematch_of_target_side(self):
        source, sids = _random_graph("s", 21)
        target, tids = _random_graph("t", 22)
        evolved = _random_evolution(target, tids, 23)

        warm = HarmonyEngine(config=EngineConfig.fast())
        warm.match(source, target)
        warm_run = warm.rematch(source, evolved)
        cold_run = HarmonyEngine(config=EngineConfig.fast()).match(source, evolved)
        assert _cells(warm_run.matrix) == _cells(cold_run.matrix)

    def test_rematch_falls_back_without_flag(self):
        source, sids = _random_graph("s", 31)
        target, tids = _random_graph("t", 32)
        engine = HarmonyEngine(config=EngineConfig())
        engine.match(source, target)
        evolved = _random_evolution(source, sids, 33)
        run = engine.rematch(evolved, target)
        assert engine.rematch_patches == 0
        assert not run.reused_context

    def test_rematch_with_no_change_reuses_everything(self):
        """New graph objects, identical content (the workbench tool path
        re-fetches schemas every invoke): the patch is a no-op rebind."""
        source, _ = _random_graph("s", 41)
        target, _ = _random_graph("t", 42)
        engine = HarmonyEngine(config=EngineConfig.fast())
        engine.match(source, target)
        builds = engine.context_builds
        run = engine.rematch(source.copy(), target.copy())
        assert engine.context_builds == builds  # no context rebuild
        assert engine.rematch_patches == 0  # nothing to patch: a hit
        assert run.reused_context
