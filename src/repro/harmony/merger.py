"""The vote merger (Section 4).

*"Given k match voters, the vote merger combines the k values for each
pair into a single confidence score.  The vote merger weights each
matcher's confidence based on its magnitude — a score close to 0 indicates
that the match voter did not see enough evidence to make a strong
prediction.  The vote merger also weights each matcher in toto based on
past performance."*

Merged score for a pair, given voter scores :math:`s_v` and per-voter
performance weights :math:`w_v`::

    merged = Σ_v  w_v · |s_v| · s_v   /   Σ_v  w_v · |s_v|

i.e. a weighted mean where each voter's weight is its performance weight
times the magnitude of its own vote.  Voters that abstain (s=0) get no
say; confident voters dominate uncertain ones; historically unreliable
voters are discounted across the board.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.correspondence import VoterScore, clamp_confidence

#: Performance weights are clamped to this range so one bad feedback round
#: can never silence a voter permanently.
MIN_WEIGHT = 0.05
MAX_WEIGHT = 4.0

Pair = Tuple[str, str]
#: one voter's scores over a candidate list: (voter name, scores)
Column = Tuple[str, Sequence[float]]

#: the pair key :meth:`VoteMerger.merge_pair` merges its votes under
_ONE_PAIR: Pair = ("", "")


class VoteMerger:
    """Magnitude- and performance-weighted vote combination.

    :meth:`merge_columns` is the one merge rule: the engine calls it,
    and :meth:`merge_pair` / :meth:`merge` run per-vote objects through
    it, so a subclass changes the rule by overriding it alone.
    """

    def __init__(self, weights: Optional[Mapping[str, float]] = None) -> None:
        self.weights: Dict[str, float] = dict(weights or {})

    def weight_of(self, voter_name: str) -> float:
        return self.weights.get(voter_name, 1.0)

    def set_weight(self, voter_name: str, weight: float) -> None:
        self.weights[voter_name] = max(MIN_WEIGHT, min(MAX_WEIGHT, weight))

    def scale_weight(self, voter_name: str, factor: float) -> None:
        self.set_weight(voter_name, self.weight_of(voter_name) * factor)

    def merge_columns(
        self, pairs: Sequence[Pair], columns: Sequence[Column]
    ) -> Dict[Pair, float]:
        """Merge one score column per voter into one confidence per pair.

        Each column's scores align with *pairs*; a 0 score abstains.
        Pairs on which every voter abstains get no confidence, and the
        rest keep the order of *pairs*.
        """
        weights = [self.weight_of(name) for name, _ in columns]
        merged: Dict[Pair, float] = {}
        for pair, row in zip(pairs, zip(*[scores for _, scores in columns])):
            if not any(row):
                continue
            numerator = 0.0
            denominator = 0.0
            for weight, score in zip(weights, row):
                effective = weight * abs(score)
                numerator += effective * score
                denominator += effective
            if denominator == 0.0:
                merged[pair] = 0.0
                continue
            # The merged score is machine-generated, so it must stay
            # strictly inside (-1, +1): ±1 is reserved for user decisions
            # (Section 5.1.2).
            merged[pair] = clamp_confidence(
                max(-0.99, min(0.99, numerator / denominator)))
        return merged

    def merge_pair(self, votes: Iterable[VoterScore]) -> float:
        """Merge one pair's votes into a single confidence."""
        merged = self.merge_columns(
            [_ONE_PAIR], [(vote.voter, (vote.score,)) for vote in votes])
        return merged.get(_ONE_PAIR, 0.0)

    def merge(self, votes: Iterable[VoterScore]) -> Dict[Pair, float]:
        """Group votes by pair and merge each group: pair → confidence."""
        grouped: Dict[Pair, List[VoterScore]] = {}
        for vote in votes:
            grouped.setdefault((vote.source_id, vote.target_id), []).append(vote)
        return {pair: self.merge_pair(group) for pair, group in grouped.items()}
