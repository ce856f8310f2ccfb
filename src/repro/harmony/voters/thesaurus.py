"""Thesaurus voter: name comparison after synonym expansion.

Section 4: *"Another matcher expands the elements' names using a
thesaurus."*  Names whose tokens are pairwise synonyms (``vendor`` /
``supplier``) score highly even with zero lexical overlap.
"""

from __future__ import annotations

from typing import List, Sequence

from .base import CandidatePair, ColumnVoter, MatchContext, calibrate


class ThesaurusVoter(ColumnVoter):
    """Best-synonym-match token alignment.

    For each token of one name, find whether any token of the other
    name is a synonym (or equal) after abbreviation expansion, and
    average the hit rates of both directions.  Purely a synonym signal:
    lexical similarity is the NameVoter's job, so near-miss strings
    contribute nothing here.
    """

    name = "thesaurus"

    def score_pairs(
        self, pairs: Sequence[CandidatePair], context: MatchContext
    ) -> List[float]:
        scores = []
        for fs, ft in context.pair_features(pairs):
            sets_a, sets_b = fs.synonym_sets, ft.synonym_sets
            if not sets_a or not sets_b:
                scores.append(0.0)
                continue
            keys_a, keys_b = fs.synonym_keys, ft.synonym_keys
            hits_a = sum(1 for synonyms in sets_a if not synonyms.isdisjoint(keys_b))
            hits_b = sum(1 for synonyms in sets_b if not synonyms.isdisjoint(keys_a))
            overlap = (hits_a / len(sets_a) + hits_b / len(sets_b)) / 2.0
            if overlap == 0.0:
                scores.append(0.0)  # abstain: no synonym evidence either way
                continue
            scores.append(calibrate(
                overlap, zero_point=0.25, full_point=0.95, negative_floor=0.0))
        return scores
