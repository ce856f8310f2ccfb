"""Name voter: lexical similarity of element names."""

from __future__ import annotations

from typing import List, Sequence

from ...text import kernels
from .base import CandidatePair, ColumnVoter, MatchContext, calibrate


class NameVoter(ColumnVoter):
    """Compares element names with a blend of string measures.

    The blend covers the common ways names agree: whole-string edit /
    Jaro-Winkler similarity (typos, truncation), token-level Monge-Elkan
    over split+stemmed tokens (word reordering: ``firstName`` vs
    ``name_first``) and character trigrams (shared roots: ``lname`` vs
    ``lastname``).  The maximum of the measures drives the score — any one
    kind of agreement is evidence.
    """

    name = "name"

    def score_pairs(
        self, pairs: Sequence[CandidatePair], context: MatchContext
    ) -> List[float]:
        scores = []
        for (source, target), (fs, ft) in zip(pairs, context.pair_features(pairs)):
            if fs.lower == ft.lower or (
                fs.name_tokens and fs.name_tokens == ft.name_tokens
            ):
                scores.append(1.0)
                continue
            similarity = kernels.blended_name_similarity(
                source.name, target.name, fs.name_keys, ft.name_keys)
            scores.append(calibrate(
                similarity, zero_point=0.45, full_point=0.92, negative_floor=-0.6))
        return scores
