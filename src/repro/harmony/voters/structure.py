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

from ...core.elements import SchemaElement
from ...text import kernels
from .base import MatchContext, MatchVoter, calibrate


class StructureVoter(MatchVoter):
    name = "structure"

    def score(self, source: SchemaElement, target: SchemaElement, context: MatchContext) -> float:
        graph_s = context.graph_of(source)
        graph_t = context.graph_of(target)
        path_sim = kernels.monge_elkan(
            context.path_tokens(graph_s, source), context.path_tokens(graph_t, target)
        )
        if source.is_container and target.is_container:
            leaves_s = context.leaf_tokens(graph_s, source)
            leaves_t = context.leaf_tokens(graph_t, target)
            if leaves_s and leaves_t:
                leaf_sim = kernels.jaccard_similarity(leaves_s, leaves_t)
                similarity = 0.5 * path_sim + 0.5 * leaf_sim
            else:
                similarity = path_sim
        else:
            similarity = path_sim
        return calibrate(similarity, zero_point=0.4, full_point=0.95, negative_floor=-0.3)
