"""Tests for the fast match path: blocking, caching, parallelism."""

import copy

import pytest

from repro.core import ElementKind, MappingMatrix, SchemaElement
from repro.core.graph import CONTAINMENT_LABELS, CONTAINS_ELEMENT
from repro.eval import (
    ScenarioConfig,
    air_traffic_model,
    evaluate_matrix,
    generate_scenario,
    standard_suite,
)
from repro.harmony import (
    BlockingConfig,
    BlockingIndex,
    CandidateBlocker,
    EngineConfig,
    HarmonyEngine,
    MatchContext,
    MatchSession,
    evolution_closure,
    graph_delta,
)
from repro.workbench import IntegrationBlackboard, MatcherTool, WorkbenchManager


def _pair_ids(pairs):
    return {(s.element_id, t.element_id) for s, t in pairs}


class TestBlocking:
    def test_ground_truth_survives_default_budget(self):
        """Recall property: blocking never drops a true correspondence
        that the exhaustive pipeline would have scored."""
        blocker = CandidateBlocker(BlockingConfig())
        for scenario in standard_suite():
            context = MatchContext(scenario.source, scenario.target)
            exhaustive = _pair_ids(context.candidate_pairs())
            blocked = _pair_ids(blocker.candidates(context).pairs)
            lost = (scenario.alignment.pairs & exhaustive) - blocked
            assert not lost, f"{scenario.name}: blocking lost {sorted(lost)}"

    def test_blocked_pairs_subset_of_exhaustive(self, orders_graph, notice_graph):
        context = MatchContext(orders_graph, notice_graph)
        result = CandidateBlocker().candidates(context)
        assert _pair_ids(result.pairs) <= _pair_ids(context.candidate_pairs())
        assert result.total_pairs == len(context.candidate_pairs())

    def test_small_families_never_pruned(self, orders_graph, notice_graph):
        # every kind family in the fixtures is below the default budget,
        # so blocking must keep the full candidate set
        context = MatchContext(orders_graph, notice_graph)
        result = CandidateBlocker().candidates(context)
        assert _pair_ids(result.pairs) == _pair_ids(context.candidate_pairs())
        assert result.pruning_ratio == 0.0

    def test_budget_caps_large_families(self):
        scenario = standard_suite(seeds=(7,))[0]
        budget = 3
        context = MatchContext(scenario.source, scenario.target)
        result = CandidateBlocker(BlockingConfig(budget=budget)).candidates(context)
        per_source = {}
        for source_el, _ in result.pairs:
            per_source[source_el.element_id] = per_source.get(source_el.element_id, 0) + 1
        # the tie extension never admits more than twice the budget
        # (families smaller than the budget keep all members, hence no
        # lower bound here)
        assert all(n <= 2 * budget for n in per_source.values())
        assert result.pruning_ratio > 0.0

    def test_deterministic(self):
        scenario = standard_suite(seeds=(7,))[0]
        runs = []
        for _ in range(2):
            context = MatchContext(scenario.source, scenario.target)
            runs.append(CandidateBlocker().candidates(context).pairs)
        assert _pair_ids(runs[0]) == _pair_ids(runs[1])


class TestParallelVoters:
    def test_parallel_votes_identical_to_serial(self, orders_graph, notice_graph):
        serial = HarmonyEngine(config=EngineConfig(parallelism=1)).match(
            orders_graph, notice_graph)
        parallel = HarmonyEngine(config=EngineConfig(parallelism=4)).match(
            orders_graph, notice_graph)
        assert serial.votes == parallel.votes

    def test_parallel_matrix_identical_to_serial(self):
        scenario = standard_suite(seeds=(7,))[0]
        serial = HarmonyEngine(config=EngineConfig(parallelism=1)).match(
            scenario.source, scenario.target)
        parallel = HarmonyEngine(config=EngineConfig(parallelism=4)).match(
            scenario.source, scenario.target)
        serial_cells = {(c.source_id, c.target_id): c.confidence
                        for c in serial.matrix.cells()}
        parallel_cells = {(c.source_id, c.target_id): c.confidence
                          for c in parallel.matrix.cells()}
        assert serial_cells == parallel_cells


class TestFastEquivalence:
    @pytest.mark.parametrize("seed", [7, 42])
    def test_fast_f1_matches_default(self, seed):
        for scenario in standard_suite(seeds=(seed,)):
            default = HarmonyEngine().match(scenario.source, scenario.target)
            fast = HarmonyEngine(config=EngineConfig.fast()).match(
                scenario.source, scenario.target)
            f1_default = evaluate_matrix(default.matrix, scenario.alignment).f1
            f1_fast = evaluate_matrix(fast.matrix, scenario.alignment).f1
            assert abs(f1_default - f1_fast) <= 0.01, scenario.name

    def test_fast_run_reports_blocking(self, orders_graph, notice_graph):
        run = HarmonyEngine(config=EngineConfig.fast()).match(
            orders_graph, notice_graph)
        assert run.blocking is not None
        summary = "\n".join(run.stage_summary())
        assert "blocking" in summary


class TestContextReuse:
    def test_five_round_session_builds_context_once(self, orders_graph, notice_graph):
        engine = HarmonyEngine(config=EngineConfig(reuse_context=True))
        session = MatchSession(orders_graph, notice_graph, engine=engine)
        first = session.run_engine()
        assert not first.reused_context
        session.accept("orders/customer/first_name",
                       "notice/shippingNotice/recipientName/firstName")
        session.reject("orders/purchase_order/po_id",
                       "notice/shippingNotice/total")
        for _ in range(4):
            run = session.run_engine()
            assert run.reused_context
        assert len(session.runs) == 5
        assert engine.context_builds == 1

    def test_default_config_rebuilds_every_run(self, orders_graph, notice_graph):
        engine = HarmonyEngine()
        session = MatchSession(orders_graph, notice_graph, engine=engine)
        for _ in range(3):
            assert not session.run_engine().reused_context
        assert engine.context_builds == 3

    def test_graph_mutation_invalidates_context(self, orders_graph, notice_graph):
        from repro.core import ElementKind, SchemaElement

        engine = HarmonyEngine(config=EngineConfig(reuse_context=True))
        engine.match(orders_graph, notice_graph)
        orders_graph.add_child(
            "orders/customer",
            SchemaElement(element_id="orders/customer/fax", name="fax",
                          kind=ElementKind.ATTRIBUTE),
        )
        run = engine.match(orders_graph, notice_graph)
        assert not run.reused_context
        assert engine.context_builds == 2

    def test_reused_run_matches_fresh_engine(self, orders_graph, notice_graph):
        """Cached scores must reproduce what a cold engine computes when
        no feedback intervened."""
        engine = HarmonyEngine(config=EngineConfig(reuse_context=True))
        engine.match(orders_graph, notice_graph)
        warm = engine.match(orders_graph, notice_graph)
        cold = HarmonyEngine().match(orders_graph, notice_graph)
        warm_cells = {(c.source_id, c.target_id): c.confidence
                      for c in warm.matrix.cells()}
        cold_cells = {(c.source_id, c.target_id): c.confidence
                      for c in cold.matrix.cells()}
        assert warm_cells == pytest.approx(cold_cells)

    def test_learning_still_applies_with_reuse(self, orders_graph, notice_graph):
        """Word-weight learning mutates the corpus; cached documentation
        scores must be invalidated, not replayed."""
        engine = HarmonyEngine(config=EngineConfig(reuse_context=True))
        session = MatchSession(orders_graph, notice_graph, engine=engine)
        session.run_engine()
        session.accept("orders/customer/first_name",
                       "notice/shippingNotice/recipientName/firstName")
        rev_before = engine._last_context.corpus.weights_revision
        run = session.run_engine()
        assert run.reused_context
        assert engine._last_context.corpus.weights_revision > rev_before


class TestMatrixCellCount:
    def test_cell_count_matches_cells(self, orders_graph, notice_graph):
        run = HarmonyEngine().match(orders_graph, notice_graph)
        assert run.matrix.cell_count() == len(list(run.matrix.cells()))
        assert len(run.matrix) == run.matrix.cell_count()


def _ordered_pairs(result):
    return [(s.element_id, t.element_id) for s, t in result.pairs]


def _evolve(graph):
    """A deterministic mix of the evolutions blocking keys depend on:
    rename, re-documentation, add, leaf removal and a containment move."""
    evolved = graph.copy()
    ids = [e.element_id for e in evolved if e.element_id != evolved.root.element_id]
    renamed = ids[0]
    evolved.element(renamed).name += "_renamed"
    evolved.revision += 1
    redocumented = ids[1]
    evolved.element(redocumented).documentation = "completely fresh words here"
    evolved.revision += 1
    evolved.add_child(
        renamed, SchemaElement(f"{graph.name}/brand_new", "brandNew", ElementKind.ATTRIBUTE)
    )
    leaf = next(i for i in reversed(ids) if not evolved.children(i))
    evolved.remove_element(leaf)
    movable = next(
        (
            i for i in ids[2:]
            if i in evolved and not evolved.children(i)
            and evolved.parent(i) is not None
            and evolved.parent(i).element_id not in (renamed, evolved.root.element_id)
        ),
        None,
    )
    if movable is not None:
        for edge in list(evolved.in_edges(movable)):
            if edge.label in CONTAINMENT_LABELS:
                evolved.remove_edge(edge)
        evolved.add_edge(renamed, CONTAINS_ELEMENT, movable)
    return evolved


def _same_size_evolution(graph):
    """Move one leaf to another parent, rename a second and redocument
    a third.  Element and edge counts stay put, so blackboard reads of
    both versions carry the same revision."""
    evolved = graph.copy()
    leaves = sorted(
        e.element_id for e in evolved
        if not evolved.children(e.element_id)
        and evolved.parent(e.element_id) is not None
    )
    moved = leaves[0]
    old_parent = evolved.parent(moved).element_id
    new_parent = next(
        evolved.parent(leaf).element_id for leaf in leaves
        if evolved.parent(leaf).element_id not in (old_parent, moved)
    )
    for edge in list(evolved.in_edges(moved)):
        if edge.label in CONTAINMENT_LABELS:
            evolved.remove_edge(edge)
    evolved.add_edge(new_parent, CONTAINS_ELEMENT, moved)
    evolved.element(leaves[len(leaves) // 2]).name += "_v2"
    evolved.element(leaves[-1]).documentation = "Freshly evolved words."
    return evolved


def _blackboard_reads(*graphs):
    """Each graph as a blackboard read returns it right after its
    ``put_schema``: a new object whose revision depends only on its
    element and edge counts, not on their content."""
    board = IntegrationBlackboard()
    reads = []
    for graph in graphs:
        board.put_schema(graph)
        reads.append(board.get_schema(graph.name))
    return reads


@pytest.fixture
def air_traffic():
    """The refinement-loop scenario: ``air_traffic@7`` (41×37 elements),
    large enough that blocking prunes."""
    return generate_scenario(air_traffic_model(), ScenarioConfig(seed=7))


class TestBlockingIndex:
    def test_index_backed_retrieval_identical(self, orders_graph, notice_graph):
        """Cold index-backed retrieval == ad-hoc retrieval, order included."""
        blocker = CandidateBlocker(BlockingConfig())
        context = MatchContext(orders_graph, notice_graph)
        index = BlockingIndex()
        indexed = blocker.candidates(context, index)
        adhoc = blocker.candidates(context)
        assert _ordered_pairs(indexed) == _ordered_pairs(adhoc)
        assert indexed.total_pairs == adhoc.total_pairs
        assert index.builds == 1 and index.patches == 0

    def test_epoch_hit_skips_rebuild(self, orders_graph, notice_graph):
        blocker = CandidateBlocker(BlockingConfig())
        context = MatchContext(orders_graph, notice_graph)
        index = BlockingIndex()
        first = blocker.candidates(context, index)
        second = blocker.candidates(context, index)
        assert _ordered_pairs(first) == _ordered_pairs(second)
        assert index.builds == 1 and index.hits == 1 and index.patches == 0

    def test_patched_index_identical_to_cold_build(self, orders_graph, notice_graph):
        """After an evolution, the patched index retrieves exactly what a
        from-scratch build on the evolved graphs retrieves."""
        blocker = CandidateBlocker(BlockingConfig())
        index = BlockingIndex()
        blocker.candidates(MatchContext(orders_graph, notice_graph), index)

        evolved = _evolve(orders_graph)
        delta = graph_delta(orders_graph, evolved)
        closure = evolution_closure(orders_graph, evolved, delta)
        index.note_evolution(closure | delta.removed, set())

        evolved_context = MatchContext(evolved, notice_graph)
        warm = blocker.candidates(evolved_context, index)
        cold = blocker.candidates(evolved_context)
        assert _ordered_pairs(warm) == _ordered_pairs(cold)
        assert index.builds == 1 and index.patches == 1

    def test_target_side_evolution_patches(self, orders_graph, notice_graph):
        blocker = CandidateBlocker(BlockingConfig())
        index = BlockingIndex()
        blocker.candidates(MatchContext(orders_graph, notice_graph), index)

        evolved = _evolve(notice_graph)
        delta = graph_delta(notice_graph, evolved)
        closure = evolution_closure(notice_graph, evolved, delta)
        index.note_evolution(set(), closure | delta.removed)

        evolved_context = MatchContext(orders_graph, evolved)
        warm = blocker.candidates(evolved_context, index)
        cold = blocker.candidates(evolved_context)
        assert _ordered_pairs(warm) == _ordered_pairs(cold)
        assert index.patches == 1

    def test_unannounced_revision_change_rebuilds(self, orders_graph, notice_graph):
        """A revision bump without note_evolution must rebuild cold, never
        serve stale keys."""
        blocker = CandidateBlocker(BlockingConfig())
        index = BlockingIndex()
        blocker.candidates(MatchContext(orders_graph, notice_graph), index)
        evolved = _evolve(orders_graph)
        evolved_context = MatchContext(evolved, notice_graph)
        warm = blocker.candidates(evolved_context, index)
        cold = blocker.candidates(evolved_context)
        assert _ordered_pairs(warm) == _ordered_pairs(cold)
        assert index.builds == 2 and index.patches == 0

    def test_equal_revision_evolution_patches(self, air_traffic):
        """Two schema versions read back from the blackboard carry the
        same revision, so the epoch matches: the noted closure must
        still be re-keyed, not dropped as an epoch hit."""
        v1, target, v2 = _blackboard_reads(
            air_traffic.source, air_traffic.target,
            _same_size_evolution(air_traffic.source))
        assert v1.revision == v2.revision
        blocker = CandidateBlocker(BlockingConfig())
        index = BlockingIndex()
        blocker.candidates(MatchContext(v1, target), index)

        delta = graph_delta(v1, v2)
        closure = evolution_closure(v1, v2, delta)
        index.note_evolution(closure | delta.removed, set())
        context = MatchContext(v2, target)
        warm = blocker.candidates(context, index)
        cold = blocker.candidates(context)
        assert _ordered_pairs(warm) == _ordered_pairs(cold)
        assert index.builds == 1 and index.patches == 1 and index.hits == 0

    def test_empty_noted_evolution_stays_a_hit(self, orders_graph, notice_graph):
        blocker = CandidateBlocker(BlockingConfig())
        index = BlockingIndex()
        context = MatchContext(orders_graph, notice_graph)
        blocker.candidates(context, index)
        index.note_evolution((), ())
        blocker.candidates(context, index)
        assert index.builds == 1 and index.hits == 1 and index.patches == 0

    def test_key_config_change_rebuilds(self, orders_graph, notice_graph):
        index = BlockingIndex()
        context = MatchContext(orders_graph, notice_graph)
        CandidateBlocker(BlockingConfig()).candidates(context, index)
        reconfigured = CandidateBlocker(BlockingConfig(ngram=4))
        result = reconfigured.candidates(context, index)
        assert index.builds == 2  # ngram feeds the keys: full rebuild
        assert _ordered_pairs(result) == _ordered_pairs(
            reconfigured.candidates(context)
        )

    def test_budget_change_reuses_index(self, orders_graph, notice_graph):
        """The recall budget is retrieval-time only — no re-keying."""
        index = BlockingIndex()
        context = MatchContext(orders_graph, notice_graph)
        CandidateBlocker(BlockingConfig()).candidates(context, index)
        wider = CandidateBlocker(BlockingConfig(budget=20))
        result = wider.candidates(context, index)
        assert index.builds == 1 and index.hits == 1
        assert _ordered_pairs(result) == _ordered_pairs(wider.candidates(context))

    def test_engine_patches_blocking_on_rematch(self, orders_graph, notice_graph):
        engine = HarmonyEngine(config=EngineConfig.fast())
        engine.match(orders_graph, notice_graph)
        evolved = _evolve(orders_graph)
        engine.rematch(evolved, notice_graph)
        stats = engine.fastpath_stats()
        assert stats["blocking_builds"] == 1
        assert stats["blocking_patches"] == 1
        assert stats["rematch_patches"] == 1


MATRIX = "air_traffic->air_traffic_prime"


def _cells(matrix):
    return {
        (c.source_id, c.target_id): (c.confidence, c.is_user_defined)
        for c in matrix.cells()
    }


def _workbench(engine, *graphs):
    manager = WorkbenchManager()
    manager.register(MatcherTool(engine))
    with manager.transaction():
        for graph in graphs:
            manager.blackboard.put_schema(graph)
    return manager


def _invoke(manager, source, target):
    return manager.invoke("harmony", source_schema=source.name,
                          target_schema=target.name, matrix_name=MATRIX)


class TestContentKeyedReuse:
    """``HarmonyEngine.match`` reuses its context by schema content: new
    graph objects with the same content hit, changed content patches,
    and a cached graph mutated in place rebuilds."""

    ROUNDS = 4

    def test_new_objects_with_same_content_hit(self, orders_graph, notice_graph):
        engine = HarmonyEngine(config=EngineConfig.fast())
        engine.match(orders_graph, notice_graph)
        run = engine.match(orders_graph.copy(), notice_graph.copy())
        assert run.reused_context
        assert engine.context_builds == 1 and engine.rematch_patches == 0

    def test_refinement_rounds_build_one_context(self, air_traffic):
        """N MatcherTool rounds with accept/reject decisions on an
        unchanged blackboard: each round reads the schemas back as new
        graph objects and still reuses the first round's context.  The
        final matrix equals a cold engine's given the same decisions and
        the same learned merger weights."""
        source, target = air_traffic.source, air_traffic.target
        engine = HarmonyEngine(config=EngineConfig.fast())
        manager = _workbench(engine, source, target)
        board = manager.blackboard
        _invoke(manager, source, target)
        truth = sorted(air_traffic.alignment.pairs)
        for index in range(self.ROUNDS):
            accept = truth[index]
            reject = (truth[index + self.ROUNDS][0], truth[index][1])
            with manager.transaction():
                board.update_cell(MATRIX, *accept, 1.0, user_defined=True)
                board.update_cell(MATRIX, *reject, 0.0, user_defined=True)
            _invoke(manager, source, target)

        stats = engine.fastpath_stats()
        assert engine.context_builds == 1
        assert stats["rematch_patches"] == 0
        assert stats["blocking_builds"] == 1
        assert stats["blocking_hits"] == self.ROUNDS

        warm = board.get_matrix(MATRIX)
        source_now = board.get_schema(source.name)
        target_now = board.get_schema(target.name)
        decided = MappingMatrix.from_schemas(source_now, target_now)
        for cell in warm.cells():
            if cell.is_user_defined:
                decided.set_confidence(cell.source_id, cell.target_id,
                                       cell.confidence, user_defined=True)
        cold = HarmonyEngine(config=EngineConfig.fast(),
                             merger=copy.deepcopy(engine.merger))
        # the warm engine learned from every decision in earlier rounds;
        # a first cold run on copies consumes them the same way, so the
        # compared run learns nothing new either
        cold.match(source_now.copy(), target_now.copy(),
                   matrix=copy.deepcopy(decided))
        cold.match(source_now, target_now, matrix=decided)
        assert _cells(warm) == _cells(decided)

    def test_put_schema_then_plain_invoke_patches(self, air_traffic):
        """A changed schema put on the blackboard, then a plain invoke
        with no evolution hint: the engine finds the change itself and
        patches, with the result of a cold match on the new schemas."""
        source, target = air_traffic.source, air_traffic.target
        engine = HarmonyEngine(config=EngineConfig.fast())
        manager = _workbench(engine, source, target)
        board = manager.blackboard
        _invoke(manager, source, target)
        with manager.transaction():
            board.put_schema(_same_size_evolution(source))
        before = board.get_matrix(MATRIX)
        matrix = _invoke(manager, source, target)

        stats = engine.fastpath_stats()
        assert engine.context_builds == 1
        assert stats["rematch_patches"] == 1
        assert stats["blocking_builds"] == 1
        assert stats["blocking_patches"] == 1
        HarmonyEngine(config=EngineConfig.fast()).match(
            board.get_schema(source.name), board.get_schema(target.name),
            matrix=before)
        assert _cells(matrix) == _cells(before)

    @pytest.mark.parametrize("fresh_object", [False, True])
    def test_cached_graph_mutated_in_place_rebuilds(
            self, orders_graph, notice_graph, fresh_object):
        """Diffing a cached graph mutated in place would find no change
        — against itself or against a copy of its new content — so the
        engine must build cold."""
        engine = HarmonyEngine(config=EngineConfig.fast())
        engine.match(orders_graph, notice_graph)
        orders_graph.add_child(
            "orders/customer",
            SchemaElement(element_id="orders/customer/fax", name="fax",
                          kind=ElementKind.ATTRIBUTE),
        )
        source = orders_graph.copy() if fresh_object else orders_graph
        run = engine.rematch(source, notice_graph)
        assert not run.reused_context
        assert engine.context_builds == 2 and engine.rematch_patches == 0
        cold = HarmonyEngine(config=EngineConfig.fast()).match(
            orders_graph.copy(), notice_graph.copy())
        assert _cells(run.matrix) == _cells(cold.matrix)

    def test_cold_context_rebuilds_persistent_indexes(self, air_traffic):
        """A cached graph moved in place keeps its element and edge
        counts, so a copy of it carries the revision the blocking index
        was keyed on.  The context is rebuilt cold, and the index must
        not serve its (names, revisions) epoch as a hit either."""
        def config():
            # a tight budget, so stale keys change which pairs are scored
            return EngineConfig.fast(blocking=BlockingConfig(budget=2))

        source, target = air_traffic.source.copy(), air_traffic.target
        engine = HarmonyEngine(config=config())
        engine.match(source, target)
        keyed_revision = source.revision
        moved = _same_size_evolution(source)
        for edge in list(source.edges):
            source.remove_edge(edge)
        for edge in moved.edges:
            source.add_edge(edge.subject, edge.label, edge.object)
        copy_of_moved = source.copy()
        assert copy_of_moved.revision == keyed_revision

        run = engine.match(copy_of_moved, target)
        stats = engine.fastpath_stats()
        assert engine.context_builds == 2
        assert stats["blocking_builds"] == 2 and stats["blocking_hits"] == 0
        cold = HarmonyEngine(config=config()).match(source.copy(), target)
        assert _cells(run.matrix) == _cells(cold.matrix)
