"""Name voter: lexical similarity of element names."""

from __future__ import annotations

from ...core.elements import SchemaElement
from ...text import kernels
from .base import MatchContext, MatchVoter, calibrate


class NameVoter(MatchVoter):
    """Compares element names with a blend of string measures.

    The blend covers the common ways names agree: whole-string edit /
    Jaro-Winkler similarity (typos, truncation), token-level Monge-Elkan
    over split+stemmed tokens (word reordering: ``firstName`` vs
    ``name_first``) and character trigrams (shared roots: ``lname`` vs
    ``lastname``).  The maximum of the measures drives the score — any one
    kind of agreement is evidence.
    """

    name = "name"

    def score(self, source: SchemaElement, target: SchemaElement, context: MatchContext) -> float:
        a, b = source.name, target.name
        if a.lower() == b.lower():
            return 1.0
        tokens_a = context.name_tokens(context.graph_of(source), source)
        tokens_b = context.name_tokens(context.graph_of(target), target)
        similarity = kernels.blended_name_similarity(a, b, tokens_a, tokens_b)
        if tokens_a and tokens_a == tokens_b:
            return 1.0
        return calibrate(similarity, zero_point=0.45, full_point=0.92, negative_floor=-0.6)
