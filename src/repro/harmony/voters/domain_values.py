"""Domain-value voter: overlap of coding schemes.

Section 2's third pragmatic consideration: *"domain values are often
available and could be better exploited by schema matchers"* — and the
engineers the authors observed matched coding schemes *first*, then worked
up the hierarchy.  This voter compares:

* two DOMAIN elements by the overlap of their value codes;
* two ATTRIBUTEs by the overlap of their attached domains' codes (via
  ``has-domain``), falling back to any ``instance_values`` annotation.

Code sets are strong evidence in both directions: coding schemes with high
overlap almost certainly encode the same concept, and documented schemes
with zero overlap almost certainly do not.
"""

from __future__ import annotations

from typing import List, Sequence

from ...core.elements import ElementKind, SchemaElement
from ...text.similarity import jaccard_similarity
from .base import CandidatePair, ColumnVoter, MatchContext, calibrate


class DomainValueVoter(ColumnVoter):
    """Jaccard overlap of the two elements' value-code sets
    (:attr:`~repro.harmony.voters.base.ElementFeatures.codes`)."""

    name = "domain-values"

    def applicable(self, source: SchemaElement, target: SchemaElement) -> bool:
        return source.kind in (ElementKind.DOMAIN, ElementKind.ATTRIBUTE) and target.kind in (
            ElementKind.DOMAIN,
            ElementKind.ATTRIBUTE,
        )

    def score_pairs(
        self, pairs: Sequence[CandidatePair], context: MatchContext
    ) -> List[float]:
        scores = []
        for fs, ft in context.pair_features(pairs):
            # only DOMAINs and ATTRIBUTEs carry codes
            if fs.codes is None or ft.codes is None:
                scores.append(0.0)  # abstain: a side has no coding scheme
                continue
            overlap = jaccard_similarity(fs.codes, ft.codes)
            scores.append(calibrate(
                overlap, zero_point=0.15, full_point=0.8, negative_floor=-0.8))
        return scores
