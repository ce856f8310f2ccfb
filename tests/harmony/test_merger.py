"""Tests for the vote merger (Section 4's magnitude+performance weighting)."""

import pytest

from repro.core import VoterScore
from repro.harmony import MAX_WEIGHT, MIN_WEIGHT, EngineConfig, HarmonyEngine, VoteMerger


def _vote(voter, score, pair=("a", "x")):
    return VoterScore(voter, pair[0], pair[1], score)


class TestMergePair:
    def test_no_votes(self):
        assert VoteMerger().merge_pair([]) == 0.0

    def test_single_vote_passes_through(self):
        assert VoteMerger().merge_pair([_vote("v", 0.6)]) == pytest.approx(0.6)

    def test_abstentions_have_no_say(self):
        merged = VoteMerger().merge_pair([_vote("a", 0.8), _vote("b", 0.0)])
        assert merged == pytest.approx(0.8)

    def test_magnitude_weighting(self):
        """A confident voter outweighs an uncertain one (paper: 'a score
        close to 0 indicates that the match voter did not see enough
        evidence')."""
        merged = VoteMerger().merge_pair([_vote("strong", 0.9), _vote("weak", -0.1)])
        # plain average would be 0.4; magnitude weighting pulls toward 0.9
        assert merged > 0.7

    def test_balanced_disagreement_cancels(self):
        merged = VoteMerger().merge_pair([_vote("a", 0.5), _vote("b", -0.5)])
        assert merged == pytest.approx(0.0)

    def test_performance_weighting(self):
        merger = VoteMerger(weights={"trusted": 2.0, "doubted": 0.5})
        merged = merger.merge_pair([_vote("trusted", 0.5), _vote("doubted", -0.5)])
        assert merged > 0.0

    def test_merged_score_never_certain(self):
        """Machine scores stay strictly inside (-1, +1) — ±1 is reserved
        for user decisions (Section 5.1.2)."""
        merged = VoteMerger().merge_pair([_vote("a", 1.0), _vote("b", 1.0)])
        assert merged == pytest.approx(0.99)
        merged = VoteMerger().merge_pair([_vote("a", -1.0)])
        assert merged == pytest.approx(-0.99)


class TestWeights:
    def test_default_weight_is_one(self):
        assert VoteMerger().weight_of("anything") == 1.0

    def test_set_weight_clamped(self):
        merger = VoteMerger()
        merger.set_weight("v", 100.0)
        assert merger.weight_of("v") == MAX_WEIGHT
        merger.set_weight("v", 0.0001)
        assert merger.weight_of("v") == MIN_WEIGHT

    def test_scale_weight(self):
        merger = VoteMerger()
        merger.scale_weight("v", 2.0)
        assert merger.weight_of("v") == 2.0
        merger.scale_weight("v", 0.5)
        assert merger.weight_of("v") == 1.0


class TestMergeAll:
    def test_grouped_by_pair(self):
        votes = [
            _vote("a", 0.8, ("s1", "t1")),
            _vote("b", 0.6, ("s1", "t1")),
            _vote("a", -0.4, ("s2", "t1")),
        ]
        by_pair = VoteMerger().merge(votes)
        assert len(by_pair) == 2
        assert by_pair[("s1", "t1")] > 0.6
        assert by_pair[("s2", "t1")] < 0.0


class _MaxWins(VoteMerger):
    """The single most extreme cast vote decides."""

    def merge_columns(self, pairs, columns):
        merged = {}
        for pair, row in zip(pairs, zip(*[scores for _, scores in columns])):
            cast = [score for score in row if score]
            if cast:
                merged[pair] = max(-0.99, min(0.99, max(cast, key=abs)))
        return merged


class TestMergeRule:
    """``merge_columns`` is the one merge rule: what a subclass puts
    there is what the engine and ``merge_pair`` use."""

    def test_subclass_rule_reaches_the_engine(self, orders_graph, notice_graph):
        config = EngineConfig(flooding="off")
        default = HarmonyEngine(config=config).match(orders_graph, notice_graph)
        custom = HarmonyEngine(merger=_MaxWins(), config=config).match(
            orders_graph, notice_graph)
        assert custom.pre_flooding == _MaxWins().merge_columns(
            custom.pairs, custom.columns)
        cells = lambda run: {c.pair: c.confidence for c in run.matrix.cells()}
        assert cells(custom) != cells(default)

    def test_merge_pair_follows_the_subclass_rule(self):
        votes = [_vote("a", 0.9), _vote("b", -0.2), _vote("c", 0.0)]
        assert _MaxWins().merge_pair(votes) == 0.9
        assert VoteMerger().merge_pair(votes) < 0.9
