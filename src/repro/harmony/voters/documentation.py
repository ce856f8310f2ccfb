"""Documentation voter: TF-IDF cosine over element definitions.

Section 4: *"one matcher compares the words appearing in the elements'
definitions"*.  Section 4.1 notes these matchers *"have good recall,
although their precision is less impressive"* — the calibration reflects
that: generous positive scores for any real word overlap, and only mild
negative evidence when both elements are documented yet share nothing.
When either element lacks documentation the voter abstains (score 0),
which is what lets Harmony degrade gracefully on undocumented schemata.
"""

from __future__ import annotations

from typing import List, Sequence

from ...core.elements import SchemaElement
from .base import CandidatePair, ColumnVoter, MatchContext, calibrate


class DocumentationVoter(ColumnVoter):
    """Bag-of-words comparison of documentation, IDF-weighted."""

    name = "documentation"
    uses_word_weights = True

    def prepare(self, context: MatchContext) -> None:
        """Score every cross-schema pair sharing vocabulary in one
        postings sweep (``SparseTfIdf.all_pairs``) before scoring
        starts — scoring then only does table lookups, and pairs absent
        from the table have cosine exactly 0.0."""
        context.warm_pair_sims()

    def applicable(self, source: SchemaElement, target: SchemaElement) -> bool:
        return source.has_documentation and target.has_documentation

    def score_pairs(
        self, pairs: Sequence[CandidatePair], context: MatchContext
    ) -> List[float]:
        scores = []
        for fs, ft in context.pair_features(pairs):
            if fs.doc is None or ft.doc is None:
                scores.append(0.0)
                continue
            cosine = context.cosine(fs.doc, ft.doc)
            # recall-oriented: positive territory starts at low cosine,
            # and the negative floor is shallow.
            scores.append(calibrate(
                cosine, zero_point=0.08, full_point=0.75, negative_floor=-0.35))
        return scores
