"""Column scoring and the column merge against their per-pair oracles.

Every built-in voter scores a whole candidate column from the context's
per-element feature records, and the merger merges one column per
voter.  ``tests/oracles/voters.py`` keeps the per-pair voter bodies and
the per-pair merge they replaced; here the columns must equal them bit
for bit on generated registry pairs, on the standard suite and after an
evolution the engine patched into a warm context.
"""

import gc
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MappingError, MappingMatrix, VoterScore
from repro.core.elements import ElementKind, SchemaElement
from repro.core.graph import CONTAINMENT_LABELS, CONTAINS_ELEMENT
from repro.eval import standard_suite
from repro.harmony import (
    MAX_WEIGHT,
    MIN_WEIGHT,
    ColumnVoter,
    EngineConfig,
    HarmonyEngine,
    MatchContext,
    MatchVoter,
    NameVoter,
    VoteMerger,
    decisions_from_matrix,
    default_voters,
    update_merger_weights,
)
from repro.harmony import engine as engine_module
from repro.loaders import ErModelLoader, load_sql
from repro.registry import RegistryProfile, generate_registry
from tests.oracles import merge_pair, voter_column

#: every built-in voter, the opt-in embedding voter included
VOTERS = default_voters(include_embedding=True)

PROFILE = RegistryProfile(
    model_count=2,
    elements_per_model=4,
    attributes_per_element=4,
    domain_values_per_attribute=0.5,
)


def _registry_pair(seed):
    models = generate_registry(seed=seed, scale=1.0, profile=PROFILE)["models"]
    loader = ErModelLoader()
    return (loader.load(json.dumps(models[0]), schema_name="source"),
            loader.load(json.dumps(models[1]), schema_name="target"))


def _assert_columns_equal_oracle(context, pairs):
    for voter in VOTERS:
        voter.prepare(context)
        assert voter.score_pairs(pairs, context) == voter_column(
            voter, pairs, context), voter.name


def _oracle_votes(pairs, columns):
    return [
        VoterScore(name, pair[0], pair[1], scores[i])
        for i, pair in enumerate(pairs)
        for name, scores in columns
        if scores[i] != 0.0
    ]


def _evolve(graph):
    """Rename an attribute and a domain code, redocument an entity, add
    an attribute, drop a leaf and move another to a new parent."""
    evolved = graph.copy()
    entities = [e for e in evolved if e.kind is ElementKind.ENTITY]
    attributes = [e for e in evolved if e.kind is ElementKind.ATTRIBUTE]
    codes = [e for e in evolved if e.kind is ElementKind.DOMAIN_VALUE]
    attributes[0].name += "Renamed"
    if codes:
        codes[0].name += "x"
    entities[0].documentation = "completely fresh words about cargo"
    evolved.add_child(
        entities[0].element_id,
        SchemaElement(f"{graph.name}/brand_new", "brandNew", ElementKind.ATTRIBUTE),
    )
    evolved.remove_element(attributes[-1].element_id)
    moved = attributes[1].element_id
    for edge in list(evolved.in_edges(moved)):
        if edge.label in CONTAINMENT_LABELS:
            evolved.remove_edge(edge)
    evolved.add_edge(entities[-1].element_id, CONTAINS_ELEMENT, moved)
    evolved.revision += 1
    return evolved


class TestVoterColumns:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_registry_pairs(self, seed):
        source, target = _registry_pair(seed)
        context = MatchContext(source, target)
        _assert_columns_equal_oracle(context, context.candidate_pairs())

    def test_standard_suite(self):
        for scenario in standard_suite():
            context = MatchContext(scenario.source, scenario.target)
            _assert_columns_equal_oracle(context, context.candidate_pairs())

    def test_single_pair_score_is_the_column(self, orders_graph, notice_graph):
        context = MatchContext(orders_graph, notice_graph)
        pairs = context.candidate_pairs()
        for voter in VOTERS:
            voter.prepare(context)
            assert [voter.score(s, t, context) for s, t in pairs] == (
                voter.score_pairs(pairs, context)), voter.name

    def test_same_named_schemas_keep_their_own_records(self):
        """Two schemas with one name share element ids; each side's
        records still describe its own elements."""
        source = load_sql("CREATE TABLE orders (status INT, total INT);", "db")
        target = load_sql("CREATE TABLE orders (buyer INT, placed DATE);", "db")
        context = MatchContext(source, target)
        pairs = context.candidate_pairs()
        _assert_columns_equal_oracle(context, pairs)
        orders = target.element("db/orders")
        assert context.features(target, orders).leaf_tokens == {"buyer", "place"}

    @pytest.mark.parametrize("scenario_name", ["air_traffic@7", "commerce@19"])
    def test_after_patched_evolution(self, scenario_name):
        scenario = {s.name: s for s in standard_suite()}[scenario_name]
        engine = HarmonyEngine(
            config=EngineConfig(reuse_context=True, embedding=True))
        engine.match(scenario.source, scenario.target)
        run = engine.match(_evolve(scenario.source), scenario.target)
        assert run.reused_context and engine.rematch_patches == 1
        context = run.context
        pairs = context.candidate_pairs()
        assert run.pairs == [(s.element_id, t.element_id) for s, t in pairs]
        # the warm columns (cached scores outside the evolution closure,
        # fresh ones inside it) equal the per-pair bodies on the patched
        # context, and so does a fresh column there
        assert run.columns == [
            (voter.name, voter_column(voter, pairs, context))
            for voter in engine.voters
        ]
        _assert_columns_equal_oracle(context, pairs)


class TestColumnMerge:
    scores = st.one_of(
        st.just(0.0), st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_pair_merge_bit_for_bit(self, data):
        names = data.draw(st.lists(st.sampled_from("abcde"), max_size=6))
        rows = data.draw(st.lists(
            st.lists(self.scores, min_size=len(names), max_size=len(names)),
            max_size=8))
        weights = data.draw(st.dictionaries(
            st.sampled_from("abcde"),
            st.floats(min_value=MIN_WEIGHT, max_value=MAX_WEIGHT)))
        merger = VoteMerger(weights)
        pairs = [(f"s{i}", f"t{i}") for i in range(len(rows))]
        columns = [(name, [row[j] for row in rows])
                   for j, name in enumerate(names)]
        expected = {}
        for pair, row in zip(pairs, rows):
            votes = [VoterScore(name, pair[0], pair[1], score)
                     for name, score in zip(names, row) if score != 0.0]
            if votes:
                expected[pair] = merge_pair(merger, votes)
                assert merger.merge_pair(votes) == expected[pair]
        assert list(merger.merge_columns(pairs, columns).items()) == list(
            expected.items())

    def test_engine_merge_equals_per_pair_merge(self):
        for scenario in standard_suite(seeds=(7,)):
            run = HarmonyEngine().match(scenario.source, scenario.target)
            grouped = {}
            for vote in run.votes:
                grouped.setdefault((vote.source_id, vote.target_id), []).append(vote)
            assert list(run.pre_flooding.items()) == [
                (pair, merge_pair(VoteMerger(), votes))
                for pair, votes in grouped.items()
            ]


class _Constant(MatchVoter):
    """A custom voter implementing only ``score``."""

    name = "constant"

    def __init__(self, value):
        self.value = value

    def score(self, source, target, context):
        return self.value


class _Column(ColumnVoter):
    name = "column"

    def __init__(self, value):
        self.value = value

    def score_pairs(self, pairs, context):
        return [self.value] * len(pairs)


class TestEngineColumns:
    def test_votes_built_from_columns(self, orders_graph, notice_graph):
        engine = HarmonyEngine()
        run = engine.match(orders_graph, notice_graph)
        context = MatchContext(orders_graph, notice_graph)
        pairs = context.candidate_pairs()
        columns = []
        for voter in engine.voters:
            voter.prepare(context)
            columns.append((voter.name, voter_column(voter, pairs, context)))
        assert run.columns == columns
        assert run.votes == _oracle_votes(run.pairs, columns)

    def test_cold_match_keeps_no_vote_objects(self, orders_graph, notice_graph):
        def alive():
            gc.collect()
            return sum(1 for o in gc.get_objects() if type(o) is VoterScore)

        before = alive()
        run = HarmonyEngine(config=EngineConfig.fast()).match(
            orders_graph, notice_graph)
        assert alive() == before
        assert run.votes

    def test_score_only_voter_still_works(self, orders_graph, notice_graph):
        run = HarmonyEngine(
            voters=[_Constant(0.5)], config=EngineConfig(flooding="off"),
        ).match(orders_graph, notice_graph)
        assert run.columns == [("constant", [0.5] * len(run.pairs))]
        assert set(run.pre_flooding.values()) == {0.5}

    @pytest.mark.parametrize("voter", [_Constant(1.5), _Column(-1.01),
                                       _Column(float("nan"))])
    @pytest.mark.parametrize("reuse", [False, True])
    def test_out_of_range_score_raises(self, orders_graph, notice_graph, voter,
                                       reuse):
        engine = HarmonyEngine(voters=[NameVoter(), voter],
                               config=EngineConfig(reuse_context=reuse))
        with pytest.raises(MappingError):
            engine.match(orders_graph, notice_graph)

    def test_learning_sums_the_decided_votes_in_order(
        self, orders_graph, notice_graph, monkeypatch
    ):
        engine = HarmonyEngine()
        matrix = MappingMatrix.from_schemas(orders_graph, notice_graph)
        first = engine.match(orders_graph, notice_graph, matrix)
        ranked = sorted(matrix.cells(), key=lambda c: (-c.confidence, c.pair))
        for cell in ranked[:4]:
            matrix.set_confidence(*cell.pair, 1.0, user_defined=True)
        for cell in ranked[4:8]:
            matrix.set_confidence(*cell.pair, -1.0, user_defined=True)
        decisions = decisions_from_matrix(matrix.cells())
        expected = VoteMerger()
        update_merger_weights(expected, first.votes, decisions,
                              learning_rate=engine.config.learning_rate)
        learned_from = []

        def spy(merger, votes, *args, **kwargs):
            learned_from.extend(votes)
            return update_merger_weights(merger, votes, *args, **kwargs)

        monkeypatch.setattr(engine_module, "update_merger_weights", spy)
        engine.match(orders_graph, notice_graph, matrix)
        # the votes on the decided pairs, in the order the run cast them
        assert learned_from == [
            vote for vote in first.votes
            if (vote.source_id, vote.target_id) in decisions
        ]
        assert engine.merger.weights == expected.weights
        assert any(weight != 1.0 for weight in expected.weights.values())
