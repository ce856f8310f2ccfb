"""The dense-embedding voter.

A modern addition to the paper's voter suite (Section 4's architecture
is explicitly built to absorb new strategies): elements are embedded
into a fixed-dimension space by the deterministic hash-projection
embedder (:mod:`repro.embed`) and scored by cosine.  Because feature
hashing preserves the cosine of the underlying sparse feature-count
vectors in expectation, this voter behaves like a *fused* lexical
signal — name tokens, subword n-grams and documentation terms in one
similarity — which is precisely what makes the same vectors reusable
for sub-linear ANN blocking (``BlockingConfig(strategy="ann")``).

Vectors live on the :class:`MatchContext`'s per-element feature
records (evolution closures drop them), and the voter's pair scores
ride the engine's standard score cache.  The voter does not consult
learned word weights (``uses_word_weights = False``), so its cached
scores survive bag-of-words feedback rounds.
"""

from __future__ import annotations

from typing import List, Sequence

from ...core.elements import SchemaElement
from .base import CandidatePair, ColumnVoter, MatchContext, calibrate, kinds_comparable


class EmbeddingVoter(ColumnVoter):
    """Cosine of the two elements' hash-projection embeddings."""

    name = "embedding"
    uses_word_weights = False

    def __init__(
        self,
        zero_point: float = 0.12,
        full_point: float = 0.9,
        negative_floor: float = -0.25,
    ) -> None:
        # hashed cosines sit lower than exact lexical measures (collision
        # noise ~1/sqrt(dim)), so the calibration knee is lower than the
        # name voter's and the negative floor gentler
        self.zero_point = zero_point
        self.full_point = full_point
        self.negative_floor = negative_floor

    def applicable(
        self, source: SchemaElement, target: SchemaElement
    ) -> bool:
        return kinds_comparable(source.kind, target.kind)

    def score_pairs(
        self, pairs: Sequence[CandidatePair], context: MatchContext
    ) -> List[float]:
        scores = []
        for source, target in pairs:
            if not self.applicable(source, target):
                scores.append(0.0)
                continue
            source_vec = context.embedding_of(context.source, source)
            target_vec = context.embedding_of(context.target, target)
            if not any(source_vec) or not any(target_vec):
                scores.append(0.0)  # no lexical evidence on one side: abstain
                continue
            similarity = sum(a * b for a, b in zip(source_vec, target_vec))
            scores.append(calibrate(
                similarity,
                zero_point=self.zero_point,
                full_point=self.full_point,
                negative_floor=self.negative_floor,
            ))
        return scores
