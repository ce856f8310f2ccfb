"""ANN blocking and the embedding voter through the harmony engine.

The dense path earns its keep only if it is *substitutable*: swapping
``BlockingConfig(strategy="ann")`` for the inverted index must never
drop a ground-truth correspondence the exhaustive pipeline would score,
a warm ANN-blocked rematch must equal a cold match on the evolved
graphs, and a precomputed :class:`EmbeddingSnapshot` must change
nothing but wall time.  Speed is gated in ``benchmarks/perf_smoke.py``;
this file pins the equivalences.
"""

import pytest

from repro.core import ElementKind, SchemaElement
from repro.eval import standard_suite
from repro.harmony import (
    BlockingConfig,
    CandidateBlocker,
    EmbeddingBlockingIndex,
    EmbeddingVoter,
    EngineConfig,
    HarmonyEngine,
    MatchContext,
    default_voters,
    evolution_closure,
    graph_delta,
    snapshot_embeddings,
)
from repro.harmony.blocking import BLOCKING_STRATEGIES


def _pair_ids(pairs):
    return {(s.element_id, t.element_id) for s, t in pairs}


def _ordered_pairs(result):
    return [(s.element_id, t.element_id) for s, t in result.pairs]


def _ann_engine_config(**overrides):
    base = dict(
        embedding=True,
        blocking=BlockingConfig(strategy="ann"),
        reuse_context=True,
    )
    base.update(overrides)
    return EngineConfig(**base)


class TestStrategyValidation:
    def test_vocabulary(self):
        assert BLOCKING_STRATEGIES == ("inverted", "ann")

    def test_unknown_strategy_raises_actionably(self):
        with pytest.raises(ValueError) as excinfo:
            BlockingConfig(strategy="lsh")
        message = str(excinfo.value)
        assert "lsh" in message
        assert "inverted" in message and "ann" in message

    def test_known_strategies_accepted(self):
        for strategy in BLOCKING_STRATEGIES:
            assert BlockingConfig(strategy=strategy).strategy == strategy


class TestAnnCandidates:
    def test_ground_truth_survives_default_budget(self):
        """The same recall property the inverted path is held to:
        blocking never drops a true correspondence the exhaustive
        pipeline would have scored."""
        blocker = CandidateBlocker(BlockingConfig(strategy="ann"))
        for scenario in standard_suite():
            context = MatchContext(scenario.source, scenario.target)
            exhaustive = _pair_ids(context.candidate_pairs())
            blocked = _pair_ids(blocker.candidates(context).pairs)
            lost = (scenario.alignment.pairs & exhaustive) - blocked
            assert not lost, f"{scenario.name}: ann blocking lost {sorted(lost)}"

    def test_blocked_pairs_subset_of_exhaustive(self, orders_graph, notice_graph):
        context = MatchContext(orders_graph, notice_graph)
        result = CandidateBlocker(
            BlockingConfig(strategy="ann")).candidates(context)
        assert _pair_ids(result.pairs) <= _pair_ids(context.candidate_pairs())
        assert result.total_pairs == len(context.candidate_pairs())

    def test_small_families_never_pruned(self, orders_graph, notice_graph):
        context = MatchContext(orders_graph, notice_graph)
        result = CandidateBlocker(
            BlockingConfig(strategy="ann")).candidates(context)
        assert _pair_ids(result.pairs) == _pair_ids(context.candidate_pairs())
        assert result.pruning_ratio == 0.0

    def test_budget_caps_large_families(self):
        scenario = standard_suite(seeds=(7,))[0]
        budget = 3
        context = MatchContext(scenario.source, scenario.target)
        result = CandidateBlocker(
            BlockingConfig(strategy="ann", budget=budget)
        ).candidates(context)
        per_source = {}
        for source_el, _ in result.pairs:
            per_source[source_el.element_id] = (
                per_source.get(source_el.element_id, 0) + 1
            )
        # the tie-floor extension never admits more than twice the budget
        assert all(n <= 2 * budget for n in per_source.values())
        assert result.pruning_ratio > 0.0

    def test_deterministic(self):
        scenario = standard_suite(seeds=(7,))[0]
        runs = []
        for _ in range(2):
            context = MatchContext(scenario.source, scenario.target)
            runs.append(
                CandidateBlocker(
                    BlockingConfig(strategy="ann")).candidates(context).pairs
            )
        assert _ordered_pairs_list(runs[0]) == _ordered_pairs_list(runs[1])

    def test_persistent_index_identical_to_adhoc(self):
        """Warm index-backed ANN retrieval == ad-hoc, order included."""
        scenario = standard_suite(seeds=(7,))[0]
        blocker = CandidateBlocker(BlockingConfig(strategy="ann"))
        context = MatchContext(scenario.source, scenario.target)
        index = EmbeddingBlockingIndex()
        cold = blocker.candidates(context, index)
        warm = blocker.candidates(context, index)
        adhoc = blocker.candidates(context)
        assert _ordered_pairs(cold) == _ordered_pairs(adhoc)
        assert _ordered_pairs(warm) == _ordered_pairs(adhoc)
        assert index.builds == 1 and index.hits == 1 and index.patches == 0

    def test_patched_families_structurally_fresh(self, orders_graph, notice_graph):
        """After an announced evolution, every per-family AnnIndex in the
        patched blocking index equals its freshly built counterpart."""
        blocker = CandidateBlocker(BlockingConfig(strategy="ann"))
        patched = EmbeddingBlockingIndex()
        blocker.candidates(MatchContext(orders_graph, notice_graph), patched)

        evolved = notice_graph.copy()
        leaf = next(
            e.element_id for e in evolved
            if e.kind is ElementKind.ATTRIBUTE
        )
        evolved.element(leaf).name += "_v2"
        evolved.revision += 1
        # the dirty set is the evolution *closure*, not just the renamed
        # leaf: the parent container embeds its leaves' tokens (l:
        # features), so its vector is stale too — exactly what the
        # engine hands note_evolution on rematch
        delta = graph_delta(notice_graph, evolved)
        closure = evolution_closure(notice_graph, evolved, delta)
        patched.note_evolution([], closure | delta.removed)
        warm = blocker.candidates(MatchContext(orders_graph, evolved), patched)

        fresh = EmbeddingBlockingIndex()
        cold = blocker.candidates(MatchContext(orders_graph, evolved), fresh)

        assert patched.patches == 1 and patched.builds == 1
        assert _ordered_pairs(warm) == _ordered_pairs(cold)
        assert patched.target_vectors == fresh.target_vectors
        assert patched.source_vectors == fresh.source_vectors
        assert set(patched.families) == set(fresh.families)
        for family, ann in patched.families.items():
            assert ann.structure() == fresh.families[family].structure()


    def test_equal_revision_evolution_patches(self, orders_graph, notice_graph):
        """An evolved graph carrying the same revision as the one before
        it — as blackboard reads do — matches the epoch: the noted
        closure must still be re-embedded, not dropped as a hit."""
        blocker = CandidateBlocker(BlockingConfig(strategy="ann"))
        patched = EmbeddingBlockingIndex()
        blocker.candidates(MatchContext(orders_graph, notice_graph), patched)

        evolved = notice_graph.copy()
        leaf = next(
            e.element_id for e in evolved
            if e.kind is ElementKind.ATTRIBUTE
        )
        evolved.element(leaf).name += "_v2"
        evolved.revision = notice_graph.revision
        delta = graph_delta(notice_graph, evolved)
        closure = evolution_closure(notice_graph, evolved, delta)
        patched.note_evolution([], closure | delta.removed)
        warm = blocker.candidates(MatchContext(orders_graph, evolved), patched)

        fresh = EmbeddingBlockingIndex()
        cold = blocker.candidates(MatchContext(orders_graph, evolved), fresh)
        assert (patched.builds, patched.patches, patched.hits) == (1, 1, 0)
        assert _ordered_pairs(warm) == _ordered_pairs(cold)
        assert patched.target_vectors == fresh.target_vectors


def _ordered_pairs_list(pairs):
    return [(s.element_id, t.element_id) for s, t in pairs]


class TestEmbeddingVoter:
    def test_opt_in_through_default_voters(self):
        names = [voter.name for voter in default_voters()]
        assert "embedding" not in names
        names = [voter.name for voter in default_voters(include_embedding=True)]
        assert "embedding" in names

    def test_engine_flag_produces_embedding_votes(self, orders_graph, notice_graph):
        run = HarmonyEngine(config=EngineConfig(embedding=True)).match(
            orders_graph, notice_graph)
        embedding_votes = [v for v in run.votes if v.voter == "embedding"]
        assert embedding_votes
        # calibrated to [negative_floor, 1]: anti-evidence goes mildly
        # negative, never past the voter's configured floor
        floor = EmbeddingVoter().negative_floor
        assert all(floor <= v.score <= 1.0 for v in embedding_votes)

    def test_abstains_on_zero_vector(self, orders_graph, notice_graph):
        context = MatchContext(orders_graph, notice_graph)
        source = next(
            e for e in orders_graph
            if e.element_id != orders_graph.root.element_id
        )
        target = next(
            e for e in notice_graph
            if e.element_id != notice_graph.root.element_id
        )
        dim = context.embedder.config.dim
        context.embedding_of = lambda graph, element: [0.0] * dim
        assert EmbeddingVoter().score(source, target, context) == 0.0

    def test_symmetric_on_identical_elements(self, orders_graph):
        context = MatchContext(orders_graph, orders_graph)
        element = next(
            e for e in orders_graph
            if e.element_id != orders_graph.root.element_id
        )
        score = EmbeddingVoter().score(element, element, context)
        assert score == pytest.approx(1.0, abs=1e-6)


class TestEngineEquivalences:
    def test_ann_matches_inverted_when_nothing_pruned(
        self, orders_graph, notice_graph
    ):
        """On families below the budget neither strategy prunes, so the
        matrices must be bit-identical — strategy choice only shows up
        as wall time."""
        inverted = HarmonyEngine(config=EngineConfig(
            embedding=True, blocking=BlockingConfig(strategy="inverted"),
        )).match(orders_graph, notice_graph)
        ann = HarmonyEngine(config=EngineConfig(
            embedding=True, blocking=BlockingConfig(strategy="ann"),
        )).match(orders_graph, notice_graph)
        assert ann.post_flooding == inverted.post_flooding

    def test_warm_ann_rematch_equals_cold_match(self):
        scenario = standard_suite(seeds=(7,))[0]
        engine = HarmonyEngine(config=_ann_engine_config())
        engine.match(scenario.source, scenario.target)

        evolved = scenario.source.copy()
        leaf = next(
            e.element_id for e in evolved
            if e.kind is ElementKind.ATTRIBUTE
        )
        evolved.element(leaf).name += "_v2"
        evolved.revision += 1
        warm = engine.rematch(evolved, scenario.target)

        cold = HarmonyEngine(config=_ann_engine_config()).match(
            evolved, scenario.target)
        assert warm.post_flooding == cold.post_flooding

        stats = engine.fastpath_stats()
        assert stats["embedding_builds"] == 1
        assert stats["embedding_patches"] == 1

    def test_snapshot_changes_nothing(self, orders_graph, notice_graph):
        """A precomputed embedding table is a pure wall-time optimisation:
        the vectors are the same floats, so the matrix is bit-identical."""
        config = _ann_engine_config()
        snapshot = snapshot_embeddings(
            [orders_graph, notice_graph], engine_config=config)
        plain = HarmonyEngine(config=config).match(orders_graph, notice_graph)
        snapped = HarmonyEngine(
            config=config, embedding_snapshot=snapshot
        ).match(orders_graph, notice_graph)
        assert snapped.post_flooding == plain.post_flooding
        assert snapped.votes == plain.votes

    def test_match_all_pairs_snapshot_identity(self, orders_graph, notice_graph):
        from repro.harmony import match_all_pairs

        config = _ann_engine_config()
        schemas = [orders_graph, notice_graph]
        snapshot = snapshot_embeddings(schemas, engine_config=config)
        without = match_all_pairs(schemas, engine_config=config)
        with_snapshot = match_all_pairs(
            schemas, engine_config=config, embedding_snapshot=snapshot)
        assert without.keys() == with_snapshot.keys()

        def cells(matrix):
            return {c.pair: c.confidence for c in matrix.cells()}

        for pair, matrix in without.items():
            assert cells(matrix) == cells(with_snapshot[pair])
