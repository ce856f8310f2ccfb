"""Structure voter: positional evidence from name paths and leaf sets.

Complements similarity flooding (which propagates other voters' scores
through the graph) with direct structural measures:

* **path similarity** — the Monge-Elkan similarity of the two elements'
  root-to-element name paths; elements living under similarly-named
  ancestors get a boost;
* **leaf-context similarity** — for containers, the Jaccard overlap of
  the (stemmed) leaf-attribute names below each element; two entities
  whose attribute sets line up are probably the same concept, whatever
  their own names are.
"""

from __future__ import annotations

from typing import List, Sequence

from ...text import kernels
from .base import CandidatePair, ColumnVoter, MatchContext, calibrate


class StructureVoter(ColumnVoter):
    name = "structure"

    def score_pairs(
        self, pairs: Sequence[CandidatePair], context: MatchContext
    ) -> List[float]:
        scores = []
        for (source, target), (fs, ft) in zip(pairs, context.pair_features(pairs)):
            similarity = kernels.monge_elkan(fs.path_keys, ft.path_keys)
            if (
                source.is_container and target.is_container
                and fs.leaf_tokens and ft.leaf_tokens
            ):
                leaf_sim = kernels.jaccard_similarity(fs.leaf_tokens, ft.leaf_tokens)
                similarity = 0.5 * similarity + 0.5 * leaf_sim
            scores.append(calibrate(
                similarity, zero_point=0.4, full_point=0.95, negative_floor=-0.3))
        return scores
