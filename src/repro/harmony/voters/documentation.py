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

from ...core.elements import SchemaElement
from .base import MatchContext, MatchVoter, calibrate


class DocumentationVoter(MatchVoter):
    """Bag-of-words comparison of documentation, IDF-weighted."""

    name = "documentation"
    uses_word_weights = True

    def prepare(self, context: MatchContext) -> None:
        """Score every cross-schema pair sharing vocabulary in one
        postings sweep (``SparseTfIdf.all_pairs``) before per-pair
        scoring starts — ``score`` then only does table lookups, and
        pairs absent from the table have cosine exactly 0.0.  The sweep
        itself routes through the corpus's ``all_pairs_backend`` seam: a
        NumPy CSR matmul when NumPy is importable, the dependency-free
        postings merge otherwise — same probe-once/auto-fallback
        discipline as the flooding sweep's backend selector."""
        context.warm_pair_sims()

    def applicable(self, source: SchemaElement, target: SchemaElement) -> bool:
        return source.has_documentation and target.has_documentation

    def score(self, source: SchemaElement, target: SchemaElement, context: MatchContext) -> float:
        if not self.applicable(source, target):
            return 0.0
        doc_a = context.doc_id(context.graph_of(source), source)
        doc_b = context.doc_id(context.graph_of(target), target)
        cosine = context.cosine(doc_a, doc_b)
        # recall-oriented: positive territory starts at low cosine, and the
        # negative floor is shallow.
        return calibrate(cosine, zero_point=0.08, full_point=0.75, negative_floor=-0.35)
